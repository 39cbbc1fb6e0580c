#!/usr/bin/env python3
"""Benchmark of the ``rnasel run`` sweep, end to end and layer by layer.

    python3 perfbench/bench.py --workload quickstart --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout. It drives ``rnasel.cli.main``
in process on inputs that ``rnasel.synth`` generates from ``--seed``, as a
closed loop: one process, one pass at a time. ``--trace 0`` times untraced
passes and reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics. Every pass's outputs
are checked after the timed region. The last line of standard output is one
JSON object; the lines before it give the same numbers for people, with the
provenance of the run. perfbench/README.md lists the workloads and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread per sweep cell keeps the process within nproc threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Size:
    synth: dict  # SynthSpec fields other than seed
    run: tuple[str, ...]  # `rnasel run` flags other than inputs, seed and output directory


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    tiny: Size  # the warm-up pass, and the harness self-check


def _flags(text: str) -> tuple[str, ...]:
    return tuple(text.split())


_QUICKSTART_GROUPS = (("G1", ("cmpA", "cmpB")), ("G2", ("cmpC", "cmpD")))  # the CLI default
_WIDE_GROUPS = (("G1", ("c1", "c2", "c3", "c4")), ("G2", ("c5", "c6", "c7", "c8")))
_ALL_GROUPS = (("G1", tuple(f"a{i}" for i in range(40))), ("G2", tuple(f"b{i}" for i in range(40))))
_TINY_ALL_GROUPS = (("G1", tuple(f"a{i}" for i in range(5))), ("G2", tuple(f"b{i}" for i in range(5))))

WORKLOADS = {
    w.name: w
    for w in (
        # The README quick start verbatim: G = 8, 4 cells x 688 steps x 50 proposals.
        Workload(
            "quickstart",
            Size(
                dict(groups=_QUICKSTART_GROUPS, n_features=500, n_informative=80),
                _flags("--n 100 --n 30 --alpha 0.0 --alpha 0.2 --gamma 0.99 --t-final 1e-3 "
                       "--swaps-per-temp 50 --cut-k 2 --jobs 1"),
            ),
            Size(
                dict(groups=_QUICKSTART_GROUPS, n_features=60, n_informative=10),
                _flags("--n 8 --n 4 --alpha 0.0 --alpha 0.2 --gamma 0.9 --t-final 1e-1 "
                       "--swaps-per-temp 5 --cut-k 2 --jobs 1"),
            ),
        ),
        # The CLI's default schedule (9,206 steps of one proposal) at G = 16,
        # two concurrent cells.
        Workload(
            "default_wide",
            Size(
                dict(groups=_WIDE_GROUPS, n_features=5000, n_informative=200, zero_fraction=0.02),
                _flags("--n 200 --alpha 0.0 --alpha 0.2 --cut-k 2 --jobs 2"),
            ),
            Size(
                dict(groups=_WIDE_GROUPS, n_features=80, n_informative=10, zero_fraction=0.02),
                _flags("--n 10 --alpha 0.0 --alpha 0.2 --gamma 0.9 --cut-k 2 --jobs 2"),
            ),
        ),
        # The paper's all-feature baseline: no annealing, 160 treated samples.
        Workload(
            "cluster_all",
            Size(
                dict(groups=_ALL_GROUPS, n_features=10000, n_informative=300,
                     control_noise_sd=0.5, zero_fraction=0.02),
                _flags("--cluster-all-features --cut-k 2"),
            ),
            Size(
                dict(groups=_TINY_ALL_GROUPS, n_features=100, n_informative=20,
                     control_noise_sd=0.5, zero_fraction=0.02),
                _flags("--cluster-all-features --cut-k 2"),
            ),
        ),
    )
}

_SYNTH_FLAGS = {
    "n_features": "--features",
    "n_informative": "--informative",
    "control_noise_sd": "--control-noise-sd",
    "zero_fraction": "--zero-fraction",
}


def synth_command(size: Size, seed: int, out_dir: str = "data") -> str:
    """The `rnasel synth` command that generates the same inputs."""
    groups = ";".join(f"{label}:{','.join(compounds)}" for label, compounds in size.synth["groups"])
    flags = [f"{_SYNTH_FLAGS[k]} {v}" for k, v in size.synth.items() if k != "groups"]
    return f"rnasel synth --out-dir {out_dir} --groups '{groups}' {' '.join(flags)} --seed {seed}"


def run_argv(size: Size, data_dir: Path, seed: int, out_dir: Path) -> list[str]:
    return [
        "run",
        "--matrix", str(data_dir / "matrix.tsv"),
        "--meta", str(data_dir / "meta.tsv"),
        "--weights", str(data_dir / "weights.tsv"),
        *size.run,
        "--seed", str(seed),
        "--out-dir", str(out_dir),
    ]


def run_pass(argv: list[str], recorder=None) -> tuple[float, str | None]:
    """One `rnasel run` in process: (wall seconds, error or None)."""
    from rnasel import cli

    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if recorder is None:
                rc = cli.main(argv)
            else:
                with spans.installed(recorder), recorder.span(spans.ROOT):
                    rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}"
    return elapsed, error


def setup(workload: Workload, size: Size, seed: int, data_dir: Path) -> None:
    """Synthesize and write the inputs, then one untimed warm-up pass.

    The warm-up runs the workload's own flags on its tiny inputs, so that
    first-use work shows in set-up time without paying a full pass.
    """
    from rnasel import synth

    synth.write_dataset(data_dir / "input", *synth.generate(synth.SynthSpec(seed=seed, **size.synth)))
    tiny = workload.tiny
    synth.write_dataset(data_dir / "warmup", *synth.generate(synth.SynthSpec(seed=seed, **tiny.synth)))
    _, error = run_pass(run_argv(tiny, data_dir / "warmup", seed, data_dir / "warmup_out"))
    if error is not None:
        raise RuntimeError(f"warm-up pass failed: {error}")


def timed_setups(args, work: Path) -> list[float]:
    """Set-up time of fresh processes: interpreter start, rnasel import,
    synthesis, file writes and the warm-up pass."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--size", args.size, "--setup-probe", str(work / f"setup{k}"),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return times


def reference_context(matrix, meta):
    """Objective context for checks, built with numpy instead of rnasel.ingest."""
    import numpy as np

    from rnasel.model import ROLE_TREATED
    from rnasel.objective import ObjectiveContext

    def stand_in_zeros(col):
        return np.where(col > 0, col, col[col > 0].min())

    values = matrix.values
    treated = [s for s in matrix.sample_ids if meta.record(s).role == ROLE_TREATED]
    ratios = np.column_stack([
        np.log2(
            stand_in_zeros(values[:, matrix.sample_index(s)])
            / stand_in_zeros(values[:, matrix.sample_index(meta.control_for(s))])
        )
        for s in treated
    ])
    norms = np.sqrt((values * values).sum(axis=1))
    return ObjectiveContext(ratios, norms, treated)


@dataclass
class Pass:
    out: Path
    seconds: float
    traced: bool
    error: str | None
    recorder: object = None
    failures: list[str] = field(default_factory=list)
    report: object = None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def layer_metrics(p: Pass, swaps: int) -> dict[str, float]:
    recorded = p.recorder.finished()
    busy = spans.self_times(recorded)
    counts = p.report.counts
    proposals, pairs = counts["annealer.proposals"], counts["objective.pairs"]
    run_s = busy.get("annealer.run", 0.0)
    reported = p.report.reported_steps * swaps
    return {
        "ingest.load_matrix_s": busy.get("ingest.load_matrix", 0.0),
        "ingest.compute_ratios_s": busy.get("ingest.compute_ratios", 0.0),
        "ingest.values": counts["ingest.values"],
        "objective.context_s": busy.get("objective.context", 0.0),
        "objective.pairs": pairs,
        "annealer.run_s": run_s,
        "annealer.proposals": proposals,
        "annealer.steps": counts["annealer.steps"],
        "annealer.us_per_proposal": run_s / proposals * 1e6 if proposals else 0.0,
        "annealer.ns_per_pair_update": run_s / (proposals * pairs) * 1e9 if proposals and pairs else 0.0,
        "annealer.accept_ratio": p.report.accepted / reported if reported else 0.0,
        "annealer.best_u_mean": statistics.fmean(p.report.u_values) if p.report.u_values else 0.0,
        "clustering.dissimilarity_s": busy.get("clustering.dissimilarity", 0.0),
        "clustering.average_linkage_s": busy.get("clustering.average_linkage", 0.0),
        "clustering.samples": counts["clustering.samples"],
        "render.svg_s": busy.get("render.dendrogram_svg", 0.0) + busy.get("render.scatter_svg", 0.0),
        "cli.self_s": spans.uncovered(recorded),
        "cli.bytes_written": counts["cli.bytes_written"],
    }


def provenance(seed: int) -> dict:
    import numpy
    import rnasel

    try:
        from rnasel import _kernels

        backend = getattr(_kernels, "HAVE_NUMBA", None)
    except ImportError:
        backend = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rnasel").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), None)
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "rnasel": getattr(rnasel, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "gcc": shutil.which("gcc"),
        "kernel_backend_numba": backend,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_metric_table(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def expected_for(size: Size, seed: int, matrix, meta):
    """What the checks compare a pass's outputs against."""
    import checks
    from rnasel import cli
    from rnasel.annealer import AnnealSchedule
    from rnasel.model import PairWeights

    ns = cli.build_parser().parse_args(run_argv(size, Path("data"), seed, Path("out")))
    given = dict(t_init=ns.t_init, t_final=ns.t_final, gamma=ns.gamma,
                 swaps_per_temperature=ns.swaps_per_temp, restarts=ns.restarts)
    schedule = AnnealSchedule(**{k: v for k, v in given.items() if v is not None})
    context = reference_context(matrix, meta)
    weights = PairWeights.from_entries(context.treated_ids, default=1)
    return checks.Expected(context, weights, matrix.n_samples, schedule, ns.cut_k)


def check_passes(passes: list[Pass], expected) -> int:
    """Check every pass, recording its failures; returns how many failed.

    Passes share inputs and seed, so their summary.json bytes and exact
    counts must repeat."""
    import checks

    first_summary = first_counts = None
    for p in passes:
        if p.error is not None:
            p.failures.append(p.error)
            continue
        p.report = checks.check_pass(p.out, expected)
        p.failures.extend(p.report.failures)
        path = p.out / "summary.json"
        summary = path.read_bytes() if path.is_file() else b""
        first_summary = summary if first_summary is None else first_summary
        first_counts = p.report.counts if first_counts is None else first_counts
        if summary != first_summary:
            p.failures.append("summary.json differs from the first pass with the same seed")
        if p.report.counts != first_counts:
            p.failures.append(f"exact counts differ between passes: {p.report.counts} vs {first_counts}")
    return sum(1 for p in passes if p.failures)


def bench(args) -> dict:
    """Set up, run passes for ``args.seconds``, check them, compute metrics."""
    from rnasel import synth

    workload = WORKLOADS[args.workload]
    size = workload.full if args.size == "full" else workload.tiny
    work = WORK / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = timed_setups(args, work)
        # the last set-up process left the inputs; this process warms up on them too
        data = work / f"setup{SETUP_REPEATS - 1}"
        matrix, meta, _ = synth.generate(synth.SynthSpec(seed=args.seed, **size.synth))
        _, error = run_pass(run_argv(workload.tiny, data / "warmup", args.seed, work / "warmup_out"))
        if error is not None:
            raise RuntimeError(f"warm-up pass failed: {error}")

        passes: list[Pass] = []
        unit = 2 if args.trace else 1
        start = time.perf_counter()
        while True:
            for k in range(unit):
                recorder = spans.Recorder() if args.trace and k == 1 else None
                out = work / f"pass{len(passes)}"
                seconds, error = run_pass(run_argv(size, data / "input", args.seed, out), recorder)
                passes.append(Pass(out, seconds, recorder is not None, error, recorder))
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed + elapsed / len(passes) * unit > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # everything below is outside the timed region
        expected = expected_for(size, args.seed, matrix, meta)
        failed = check_passes(passes, expected)

        plain = [p for p in passes if not p.traced]
        untraced = [p.seconds for p in plain if not p.failures] or [p.seconds for p in plain]
        wall = statistics.median(untraced)
        q1, q3 = quartiles(untraced)
        if args.trace:
            traced = [p for p in passes if p.traced and p.report is not None]
            per_pass = [layer_metrics(p, expected.schedule.swaps_per_temperature) for p in traced]
            if not per_pass:
                raise RuntimeError("no traced pass completed")
            # counts repeat exactly (checked above); times are medians
            metrics = {
                name: value if isinstance(value, int) else statistics.median(m[name] for m in per_pass)
                for name, value in per_pass[0].items()
            }
            metrics["trace_overhead_ratio"] = statistics.median(p.seconds for p in traced) / wall
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
        record = {
            "workload": args.workload,
            "size": args.size,
            "trace": args.trace,
            "synth": synth_command(size, args.seed),
            "run": "rnasel " + " ".join(run_argv(size, Path("data"), args.seed, Path("out"))),
            "provenance": provenance(args.seed),
            "passes": [
                {"seconds": p.seconds, "traced": p.traced, "failures": p.failures}
                for p in passes
            ],
            "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(untraced)},
            "setup_s": setup_times,
            "counts": next((p.report.counts for p in passes if p.report is not None), None),
            "attempted": len(passes),
            "failed": failed,
            "metrics": metrics,
            "spans": [spans.to_records(p.recorder.finished()) for p in passes if p.traced],
        }
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, units: dict[str, str]) -> dict:
    """Print the human-readable lines and return the result object."""
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"harness metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"workload {record['workload']} ({record['size']}), trace {record['trace']}: "
          f"{record['attempted']} passes, {record['failed']} failed")
    print(f"  inputs: {record['synth']}")
    print(f"  pass:   {record['run']}")
    print(f"  provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    wall = record["wall_s"]
    for name, unit in units.items():
        extra = ""
        if name == "wall_s":
            extra = f"  (median; q1 {_fmt(wall['q1'])}, q3 {_fmt(wall['q3'])}, n={wall['n']})"
        elif name == "setup_s":
            extra = f"  (median of {len(record['setup_s'])} fresh processes)"
        print(f"  {name:<30} {_fmt(metrics[name]):>14} {unit}{extra}")
    failures = Counter(f.strip() for p in record["passes"] for f in p["failures"])
    for failure, count in failures.most_common(5):
        print(f"  FAILED ({count}x): {failure}")
    print(f"  {'fail_ratio':<30} {_fmt(record['failed'] / record['attempted']):>14} 1"
          f"  ({record['failed']} of {record['attempted']} passes)")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on small inputs, for the harness self-check")
    p.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_rnasel() -> None:
    """Import rnasel from this checkout's src/, and nowhere else."""
    package = SRC / "rnasel"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no rnasel sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import rnasel

    if Path(rnasel.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported rnasel from {rnasel.__file__}, not from {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_rnasel()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # the CLI logs at INFO; keep the benchmark's output to its own lines
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, workload.full if args.size == "full" else workload.tiny, args.seed, Path(args.setup_probe))
        return 0
    try:
        units = load_metric_table(args.trace)
        record = bench(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(record, units)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
