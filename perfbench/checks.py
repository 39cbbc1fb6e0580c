"""Output checks and exact work counts for one benchmark pass.

Everything here runs outside the timed region and reads only the pass's
output directory plus the inputs the benchmark generated. No golden files:
each output is checked against an independent computation, so a documented
change of seed semantics does not break the benchmark.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rnasel import oracle
from rnasel.annealer import AnnealSchedule
from rnasel.clustering import DissimilarityMatrix
from rnasel.objective import ObjectiveContext, ObjectiveParams, eval_u
from rnasel.model import PairWeights

TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """What the benchmark knows about a pass before it runs."""

    context: ObjectiveContext
    weights: PairWeights
    n_samples: int
    schedule: AnnealSchedule  # its seed is unused; cells derive their own
    cut_k: int | None


@dataclass
class PassReport:
    failures: list[str]
    counts: dict[str, int]
    u_values: list[float]
    accepted: int = 0
    reported_steps: int = 0


def _read_dissimilarity(path: Path) -> DissimilarityMatrix:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    labels = rows[0][1:]
    if [r[0] for r in rows[1:]] != labels:
        raise ValueError("row labels differ from the header")
    return DissimilarityMatrix(tuple(labels), np.array([[float(v) for v in r[1:]] for r in rows[1:]]))


def _check_clustering(cell_dir: Path, profiles: np.ndarray, failures: list[str], where: str) -> int:
    """Dissimilarity against numpy, dendrogram against an independent linkage.
    Returns the number of clustered samples."""
    dis = _read_dissimilarity(cell_dir / "dissimilarity.tsv")
    expect = np.clip((1.0 - np.corrcoef(profiles)) / 2.0, 0.0, 1.0)
    np.fill_diagonal(expect, 0.0)
    if not np.allclose(dis.d, expect, rtol=0.0, atol=TOL):
        failures.append(f"{where}: dissimilarity.tsv differs from (1 - corr) / 2")
    merges = json.loads((cell_dir / "dendrogram.json").read_text(encoding="utf-8"))["merges"]
    s = dis.n_samples
    if s <= 16:
        ref = [list(m) for m in oracle.naive_average_linkage(dis).merges]
        same = len(ref) == len(merges) and all(
            a[:2] == b[:2] and abs(a[2] - b[2]) <= TOL for a, b in zip(merges, ref)
        )
        if not same:
            failures.append(f"{where}: dendrogram differs from oracle.naive_average_linkage")
    else:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        ref_h = np.sort(linkage(squareform(dis.d, checks=False), method="average")[:, 2])
        got_h = np.sort([m[2] for m in merges])
        if got_h.shape != ref_h.shape or not np.allclose(got_h, ref_h, rtol=0.0, atol=TOL):
            failures.append(f"{where}: merge heights differ from scipy average linkage")
    return s


def _check_cell(out: Path, entry: dict, exp: Expected, report: PassReport) -> None:
    where = entry["directory"]
    cell_dir = out / where
    sel = json.loads((cell_dir / "selection.json").read_text(encoding="utf-8"))
    n, idx = sel["n"], sel["indices"]
    f = exp.context.n_features
    if not (
        n == entry["n"] and len(idx) == n and len(set(idx)) == n
        and all(isinstance(i, int) and 0 <= i < f for i in idx)
    ):
        report.failures.append(f"{where}: selection.json does not hold {entry['n']} distinct indices in [0, {f})")
        return
    params = ObjectiveParams(alpha=sel["alpha"], n=n, weights=exp.weights)
    u, u1, u2 = eval_u(exp.context, idx, params)
    naive = oracle.naive_u(exp.context, idx, params)
    if not all(abs(a - b) <= TOL for a, b in ((sel["u"], u), (sel["u1"], u1), (sel["u2"], u2), (sel["u"], naive))):
        report.failures.append(f"{where}: u/u1/u2 differ from eval_u or oracle.naive_u by more than {TOL}")
    if entry["u"] != sel["u"]:
        report.failures.append(f"{where}: summary.json u differs from selection.json")
    report.u_values.append(sel["u"])

    with open(cell_dir / "trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = exp.schedule.num_steps
    if len(rows) != steps:
        report.failures.append(f"{where}: trace.csv has {len(rows)} rows, AnnealSchedule.num_steps = {steps}")
    report.counts["annealer.steps"] += len(rows) * exp.schedule.restarts
    report.reported_steps += len(rows)
    report.accepted += sum(int(r["accepted_count"]) for r in rows)

    profiles = exp.context.ratios[np.array(sorted(idx))].T
    report.counts["clustering.samples"] += _check_clustering(cell_dir, profiles, report.failures, where)
    if exp.cut_k is not None and "groups_file" not in entry:
        report.failures.append(f"{where}: no k-group cut written")


def check_pass(out_dir, exp: Expected) -> PassReport:
    """Check every output of one pass and count its work exactly."""
    out = Path(out_dir)
    report = PassReport([], dict.fromkeys(("annealer.steps", "clustering.samples"), 0), [])
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary["features"] != exp.context.n_features or summary["samples"] != exp.n_samples:
            report.failures.append("summary.json shape differs from the generated input")
        g = summary["treated"]
        report.counts["ingest.values"] = (summary["features"] + len(summary["dropped_features"])) * summary["samples"]
        report.counts["objective.pairs"] = g * (g - 1) // 2
        for key in sorted(summary["cells"]):
            _check_cell(out, summary["cells"][key], exp, report)
        if "all_features" in summary:
            report.counts["clustering.samples"] += _check_clustering(
                out / "all_features", exp.context.ratios.T, report.failures, "all_features"
            )
        elif not summary["cells"]:
            report.failures.append("summary.json lists no cells")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        report.failures.append(f"unreadable output: {exc!r}")
    report.counts["annealer.proposals"] = report.counts["annealer.steps"] * exp.schedule.swaps_per_temperature
    # timings.json holds wall-clock readings, so its length varies from pass to pass
    report.counts["cli.bytes_written"] = sum(
        p.stat().st_size for p in out.rglob("*") if p.is_file() and p.name != "timings.json"
    )
    return report
