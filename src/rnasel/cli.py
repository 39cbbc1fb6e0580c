"""Pipeline command line: ingest, ratios, annealed selection, clustering, export.

``rnasel run`` executes a sweep over subset sizes and blend weights. Every
(n, alpha) cell gets its own deterministically derived seed, runs the
annealer, clusters the samples on the selected features, and writes its
artifacts into one directory. A summary JSON collects the stable facts of
all cells; wall-clock timings go to a separate timings file so reruns with
the same seed are byte-identical.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 parameter error, 5 numerical error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from . import clustering, ingest, render, synth
from .annealer import AnnealSchedule, run
from .errors import NumericalError, ParameterError, ValidationError
from .model import ROLE_TREATED, PairWeights, SampleMeta
from .objective import ObjectiveContext, ObjectiveParams

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_PARAMETER = 4
EXIT_NUMERICAL = 5

log = logging.getLogger("rnasel")


class _Parser(argparse.ArgumentParser):
    # usage mistakes are parameter errors, exit code 4
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARAMETER, f"{self.prog}: error: {message}\n")


def _boolean(token: str) -> bool:
    word = token.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _option(default, parse, help, check=None, *, choices=None, repeat=False):
    """Declare one ``rnasel run`` setting as a ``RunConfig`` field.

    The flag is ``--`` plus the field name with ``_`` spelt ``-``; the config
    file key is the field name (a ``-`` in it reads as ``_``). ``parse`` reads
    one token of either; a ``_boolean`` setting is a bare flag, and a
    ``repeat`` setting takes a repeated flag or a comma or space separated
    list of distinct values. ``check`` is ``(test, description)`` of the
    allowed values, applied by ``RunConfig`` however the value arrived.
    """
    if choices:
        check = (choices.__contains__, "one of " + ", ".join(map(str, choices)))
    metadata = {"parse": parse, "help": help, "check": check, "choices": choices, "repeat": repeat}
    return field(default=default, metadata=metadata)


_POSITIVE = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one pipeline invocation; each field is one
    option of ``rnasel run``, declared with ``_option``."""

    matrix: str | None = _option(None, str, "expression matrix file (tsv/csv)")
    meta: str | None = _option(None, str, "sample metadata file")
    weights: str | None = _option(None, str, "pair weights file (optional)")
    n: tuple[int, ...] = _option((1000,), int, "subset size; repeat to sweep", _POSITIVE, repeat=True)
    alpha: tuple[float, ...] = _option((0.2,), float, "blend weight; repeat to sweep", _UNIT, repeat=True)
    t_init: float = _option(AnnealSchedule.t_init, float, "initial temperature")
    t_final: float = _option(AnnealSchedule.t_final, float, "final temperature")
    gamma: float = _option(AnnealSchedule.gamma, float, "cooling rate in (0, 1)")
    swaps_per_temp: int = _option(AnnealSchedule.swaps_per_temperature, int, "proposals per temperature")
    restarts: int = _option(AnnealSchedule.restarts, int, "independent chains per cell")
    seed: int = _option(0, int, "run seed, an unsigned 64-bit integer")
    default_weight: int = _option(
        1, int, "weight for pairs not listed in the weights file", choices=(-1, 0, 1)
    )
    cluster_mode: str = _option(
        "ratios", str, "cluster log2 ratios (treated samples) or raw levels (all samples)",
        choices=("ratios", "levels"),
    )
    cluster_all_features: bool = _option(False, _boolean, "skip selection and cluster on all features")
    cut_k: int | None = _option(None, int, "also report the k-group cut", _POSITIVE)
    out_dir: str = _option("out", str, "output directory")
    format: str = _option("all", str, "dendrogram export format", choices=("newick", "json", "svg", "all"))
    return_final: bool = _option(
        False, _boolean, "report the final annealing state instead of the best one"
    )
    scatter_compound: str | None = _option(
        None, str, "compound for the replicate scatter plot (default: first)"
    )
    jobs: int = _option(1, int, "concurrent sweep cells", _POSITIVE)

    def __post_init__(self):
        if not self.matrix or not self.meta:
            raise ParameterError("matrix and metadata paths are required (flags or config file)")
        for f in fields(self):
            value, opt = getattr(self, f.name), f.metadata
            values = value if opt["repeat"] else (value,)
            if opt["repeat"] and (not values or len(set(values)) != len(values)):
                raise ParameterError(f"{f.name} needs one or more distinct values, got {value}")
            if opt["check"] is None or (value is None and f.default is None):
                continue
            test, allowed = opt["check"]
            if not all(test(v) for v in values):
                raise ParameterError(f"{f.name} must be {allowed}, got {value!r}")
        self.schedule  # builds the schedule, and so checks its settings and the seed

    @cached_property
    def schedule(self) -> AnnealSchedule:
        """The annealing schedule of these settings, seeded with the run seed."""
        return AnnealSchedule(
            t_init=self.t_init,
            t_final=self.t_final,
            gamma=self.gamma,
            swaps_per_temperature=self.swaps_per_temp,
            seed=self.seed,
            restarts=self.restarts,
        )


def _add_options(p) -> None:
    """Add the flag of every ``RunConfig`` field.

    Flags default to None, so ``resolve_config`` can tell a given flag from
    an absent one.
    """
    for f in fields(RunConfig):
        opt = f.metadata
        kwargs = {"dest": f.name, "help": opt["help"]}
        if opt["parse"] is _boolean:
            kwargs.update(action="store_true", default=None)
        else:
            kwargs.update(type=opt["parse"], action="append" if opt["repeat"] else "store")
            if f.default is not None:
                shown = ",".join(map(str, f.default)) if opt["repeat"] else f.default
                kwargs["help"] += f" (default: {shown})"
        if opt["choices"]:
            kwargs["metavar"] = "{" + ",".join(map(str, opt["choices"])) + "}"
        p.add_argument("--" + f.name.replace("_", "-"), **kwargs)


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    options = {f.name: f.metadata for f in fields(RunConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in options:
                raise ParameterError(f"{path}:{line_no}: unknown config key {key!r}")
            parse = options[key]["parse"]
            try:
                if options[key]["repeat"]:
                    values[key] = tuple(parse(tok) for tok in value.replace(",", " ").split())
                else:
                    values[key] = parse(value)
            except ValueError:
                raise ParameterError(f"{path}:{line_no}: bad value for {key!r}: {value!r}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: command-line flags > config file > defaults."""
    merged = load_config_file(args.config) if getattr(args, "config", None) else {}
    for f in fields(RunConfig):
        given = getattr(args, f.name, None)
        if given is not None:
            merged[f.name] = tuple(given) if f.metadata["repeat"] else given
    return RunConfig(**merged)


def derive_cell_seed(seed: int, cell_index: int) -> int:
    """Stable per-cell seed: child ``cell_index`` of the run seed."""
    child = np.random.SeedSequence(entropy=seed, spawn_key=(cell_index,))
    return int(child.generate_state(1, np.uint64)[0])


def _alpha_token(alpha: float) -> str:
    return repr(float(alpha))


def report_groups(dend, k: int, compounds) -> str:
    """Text listing of the k-cut. ``compounds`` maps the label of each treated
    leaf to its compound; the leaves of a compound collapse to its name when
    all of them land in one group, and every other leaf is listed by label."""
    groups = clustering.cut(dend, k)
    homes: dict[str, set[int]] = {}
    for gi, group in enumerate(groups):
        for label in group:
            if label in compounds:
                homes.setdefault(compounds[label], set()).add(gi)
    lines = [f"k={k} groups:"]
    for gi, group in enumerate(groups, start=1):
        shown = []
        for label in group:
            compound = compounds.get(label)
            shown.append(compound if compound is not None and len(homes[compound]) == 1 else label)
        lines.append(f"group {gi}: " + ", ".join(dict.fromkeys(shown)))
    return "\n".join(lines) + "\n"


def _sample_labels(meta: SampleMeta, sample_ids) -> list[str]:
    labels = []
    for sid in sample_ids:
        rec = meta.record(sid)
        labels.append(f"{rec.compound}_{rec.replicate}" if rec.role == ROLE_TREATED else sid)
    if len(set(labels)) != len(labels):
        return list(sample_ids)
    return labels


def _write_text(path: Path, text: str) -> None:
    with ingest.replacing(path) as fh:
        fh.write(text)


def _scatter_columns(meta: SampleMeta, compound: str | None):
    by_compound: dict[str, list] = {}
    for rec in meta.samples:
        if rec.role == ROLE_TREATED:
            by_compound.setdefault(rec.compound, []).append(rec)
    candidates = {c: recs for c, recs in by_compound.items() if len(recs) >= 2}
    if not candidates:
        return None
    if compound is None:
        compound = sorted(candidates)[0]
    elif compound not in candidates:
        raise ParameterError(f"compound {compound!r} does not have two treated replicates")
    recs = sorted(candidates[compound], key=lambda r: r.replicate)[:2]
    return compound, recs[0], recs[1]


def run_pipeline(config: RunConfig) -> int:
    ingest_start = time.perf_counter()
    matrix, report = ingest.load_matrix(config.matrix)
    meta = ingest.load_meta(config.meta)
    entries = ingest.load_weights(config.weights) if config.weights else []
    ratio_matrix = ingest.compute_ratios(matrix, meta, report)
    # checked in both modes, though only the sweep uses them
    weights = PairWeights.from_entries(ratio_matrix.treated_ids, entries, config.default_weight)
    timings: dict = {"ingest": time.perf_counter() - ingest_start, "cells": {}}
    # the sweep's objective context and the replicate pair of each cell's
    # scatter plot (None: no plot); clustering on all features needs neither
    context = scatter = None
    if not config.cluster_all_features:
        context = ObjectiveContext.from_matrices(matrix, ratio_matrix)
        if max(config.n) > context.n_features:
            raise ParameterError(f"n = {max(config.n)} exceeds the {context.n_features} available features")
        if config.format in ("svg", "all"):
            scatter = _scatter_columns(meta, config.scatter_compound)
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    for message in report.warnings:
        log.warning("%s", message)
    for sample_id, value, count in report.zero_replacements:
        log.info("replaced %d zero(s) in column %s with %.6g", count, sample_id, value)

    # the clustered samples, resolved once: their profiles as a features x
    # samples table, their leaf labels, and the compound of each treated leaf
    if config.cluster_mode == "ratios":
        sample_ids, table = ratio_matrix.treated_ids, ratio_matrix.ratios
    else:
        sample_ids, table = matrix.sample_ids, matrix.values
    labels = _sample_labels(meta, sample_ids)
    compounds = {
        label: rec.compound
        for label, rec in zip(labels, map(meta.record, sample_ids))
        if rec.role == ROLE_TREATED and rec.compound
    }
    want = (config.format,) if config.format != "all" else ("newick", "json", "svg")

    def cluster_outputs(cell_dir: Path, profiles, title: str) -> dict:
        dis = clustering.dissimilarity(labels, profiles)
        ingest.write_table(cell_dir / "dissimilarity.tsv", "label", dis.labels, dis.labels, dis.d)
        dend = clustering.average_linkage(dis)
        entry: dict = {"dissimilarity": "dissimilarity.tsv", "dendrogram": {}}
        if "newick" in want:
            _write_text(cell_dir / "dendrogram.nwk", clustering.to_newick(dend) + "\n")
            entry["dendrogram"]["newick"] = "dendrogram.nwk"
        if "json" in want:
            ingest.write_json(cell_dir / "dendrogram.json", clustering.to_merge_dict(dend))
            entry["dendrogram"]["json"] = "dendrogram.json"
        if "svg" in want:
            _write_text(cell_dir / "dendrogram.svg", render.dendrogram_svg(dend, title))
            entry["dendrogram"]["svg"] = "dendrogram.svg"
        if config.cut_k is not None:
            k = min(config.cut_k, dend.n_leaves)
            _write_text(cell_dir / f"groups_k{k}.txt", report_groups(dend, k, compounds))
            entry["groups"] = clustering.cut(dend, k)
            entry["groups_file"] = f"groups_k{k}.txt"
        return entry

    def run_cell(cell_index: int, n: int, alpha: float) -> tuple[str, dict, float]:
        started = time.perf_counter()
        cell_seed = derive_cell_seed(config.seed, cell_index)
        schedule = replace(config.schedule, seed=cell_seed)
        params = ObjectiveParams(alpha=alpha, n=n, weights=weights)
        best, trace = run(context, params, schedule, return_final=config.return_final)

        alpha_token = _alpha_token(alpha)
        tag = f"n={n}, alpha={alpha_token}"
        cell_name = f"n{n}_alpha{alpha_token}"
        cell_dir = out_root / cell_name
        cell_dir.mkdir(parents=True, exist_ok=True)
        scores = {"n": n, "alpha": alpha, "seed": cell_seed, "u": best.objective, "u1": best.u1, "u2": best.u2}
        ingest.write_json(cell_dir / "selection.json", {
            **scores,
            "indices": list(best.indices),
            "feature_ids": [matrix.feature_ids[i] for i in best.indices],
        })
        trace.to_csv(cell_dir / "trace.csv")

        idx = np.array(best.indices, dtype=np.int64)
        entry = cluster_outputs(cell_dir, table[idx].T, tag)
        entry.update(scores, selection="selection.json", trace="trace.csv", directory=cell_name)
        if scatter is not None:
            compound, rec1, rec2 = scatter
            mask = np.zeros(matrix.n_features, dtype=bool)
            mask[idx] = True
            svg = render.scatter_svg(
                matrix.values[:, matrix.sample_index(rec1.sample_id)],
                matrix.values[:, matrix.sample_index(rec2.sample_id)],
                mask,
                f"{compound}_{rec1.replicate} level",
                f"{compound}_{rec2.replicate} level",
                f"{compound}: selected features, {tag}",
            )
            _write_text(cell_dir / "scatter.svg", svg)
            entry["scatter"] = "scatter.svg"
        return f"n={n},alpha={alpha_token}", entry, time.perf_counter() - started

    summary: dict = {
        "features": matrix.n_features,
        "samples": matrix.n_samples,
        "treated": ratio_matrix.n_treated,
        "dropped_features": report.dropped_features,
        "seed": config.seed,
        "cells": {},
    }
    total_start = time.perf_counter()

    if config.cluster_all_features:
        cell_dir = out_root / "all_features"
        cell_dir.mkdir(parents=True, exist_ok=True)
        entry = cluster_outputs(cell_dir, table.T, f"all features ({config.cluster_mode})")
        entry.update(directory="all_features", mode=config.cluster_mode)
        summary["all_features"] = entry
        timings["cells"]["all_features"] = time.perf_counter() - total_start
    else:
        cells = list(product(config.n, config.alpha))
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(run_cell, i, n, alpha) for i, (n, alpha) in enumerate(cells)]
            for future in futures:
                key, entry, elapsed = future.result()
                summary["cells"][key] = entry
                timings["cells"][key] = elapsed

    timings["total"] = time.perf_counter() - total_start
    ingest.write_json(out_root / "summary.json", summary)
    ingest.write_json(out_root / "timings.json", timings)
    for key in summary["cells"]:
        cell = summary["cells"][key]
        print(f"{key}: u={cell['u']!r} u1={cell['u1']!r} u2={cell['u2']!r} -> {cell['directory']}")
    if "all_features" in summary:
        print(f"all_features ({config.cluster_mode}) -> all_features")
    print(f"summary: {out_root / 'summary.json'}")
    return EXIT_OK


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run the selection + clustering pipeline")
    p.add_argument("--config", help="key = value config file; flags override it")
    _add_options(p)


# SynthSpec fields whose flags are spelt differently
_SYNTH_FLAGS = {"n_features": "features", "n_informative": "informative"}


def _synth_fields():
    """(field, flag dest) of each ``SynthSpec`` field set by a numeric flag."""
    return [(f, _SYNTH_FLAGS.get(f.name, f.name)) for f in fields(synth.SynthSpec) if f.name != "groups"]


def _add_synth_parser(sub) -> None:
    p = sub.add_parser("synth", help="generate a synthetic dataset in the pipeline formats")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--groups", default="G1:cmpA,cmpB;G2:cmpC,cmpD",
                   help="planted groups, e.g. 'G1:a,b;G2:c,d'")
    for f, dest in _synth_fields():
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=type(f.default), default=f.default)


def _parse_groups(spec: str):
    groups = []
    for chunk in spec.split(";"):
        if ":" not in chunk:
            raise ParameterError(f"bad group spec {chunk!r}, expected 'label:compound,compound'")
        label, _, compounds = chunk.partition(":")
        groups.append((label.strip(), tuple(c.strip() for c in compounds.split(",") if c.strip())))
    return tuple(groups)


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.SynthSpec(
        groups=_parse_groups(args.groups),
        **{f.name: getattr(args, dest) for f, dest in _synth_fields()},
    )
    matrix, meta, truth = synth.generate(spec)
    paths = synth.write_dataset(args.out_dir, matrix, meta, truth)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rnasel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="{run,synth}")
    _add_run_parser(sub)
    _add_synth_parser(sub)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_pipeline(resolve_config(args))
        return _cmd_synth(args)
    except ParameterError as exc:
        log.error("parameter error: %s", exc)
        return EXIT_PARAMETER
    except ValidationError as exc:
        log.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO
    except NumericalError as exc:
        log.error("numerical error: %s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
