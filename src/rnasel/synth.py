"""Synthetic expression datasets with planted group structure.

Baselines are drawn from a log-normal so feature norms span orders of
magnitude like real expression data. A random sign pattern of log2 effects
is planted on the informative features; groups alternate the sign of that
shared pattern (two groups are exact mirrors), so every treated pair is
strongly correlated in absolute value on informative features while signed
correlation still separates the groups. Each compound adds a smaller
compound-specific wiggle so its replicates stay more alike than other
members of the same group. Treated columns are

    base * 2^(compound effect) * 2^(N(0, noise_sd))

and control columns are base * 2^(N(0, control_noise_sd)). With
control_noise_sd = 0 a treated column is exactly its control times
2^effect times noise. A positive value injects column-specific measurement
deviation into the controls, which the ratio step cannot cancel; that is
what makes all-feature ratio clustering split samples by shared control
rather than by compound.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest
from .errors import ValidationError
from .model import (
    ROLE_CONTROL,
    ROLE_TREATED,
    ExpressionMatrix,
    PairWeights,
    SampleMeta,
    SampleRecord,
)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset; every field is part of the seed."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]
    replicates: int = 2
    n_features: int = 500
    n_informative: int = 50
    effect_size: float = 2.0
    compound_effect_sd: float = 0.4
    noise_sd: float = 0.3
    control_noise_sd: float = 0.0
    baseline_log_mean: float = 1.0
    baseline_log_sd: float = 2.0
    zero_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        groups = tuple((label, tuple(compounds)) for label, compounds in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups or any(not compounds for _, compounds in groups):
            raise ValidationError("need at least one group and no empty groups")
        compounds = [c for _, cs in groups for c in cs]
        if len(set(compounds)) != len(compounds):
            raise ValidationError("compounds must be unique across groups")
        if len(set(label for label, _ in groups)) != len(groups):
            raise ValidationError("group labels must be unique")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.n_features < 2:
            raise ValidationError("need at least 2 features")
        if not 0 <= self.n_informative <= self.n_features:
            raise ValidationError("n_informative must be in [0, n_features]")
        for name in ("effect_size", "compound_effect_sd", "noise_sd", "control_noise_sd", "baseline_log_sd"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if not 0.0 <= self.zero_fraction < 1.0:
            raise ValidationError("zero_fraction must be in [0, 1)")

    @property
    def compounds(self) -> tuple[str, ...]:
        return tuple(c for _, cs in self.groups for c in cs)


@dataclass(frozen=True)
class GroundTruth:
    """What was planted: the partition and the informative feature set."""

    partition: tuple[tuple[str, ...], ...]
    informative_ids: tuple[str, ...]
    informative_indices: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "partition": [list(g) for g in self.partition],
            "informative_ids": list(self.informative_ids),
            "informative_indices": list(self.informative_indices),
        }


def generate(spec: SynthSpec) -> tuple[ExpressionMatrix, SampleMeta, GroundTruth]:
    """Deterministic dataset for ``spec``; identical seeds give identical data."""
    rng = np.random.default_rng(spec.seed)
    f = spec.n_features
    base = rng.lognormal(mean=spec.baseline_log_mean, sigma=spec.baseline_log_sd, size=f)

    informative = np.sort(rng.choice(f, size=spec.n_informative, replace=False)) if spec.n_informative else np.array([], dtype=int)
    base_pattern = rng.choice(np.array([-1.0, 1.0]), size=spec.n_informative)
    effects: dict[str, np.ndarray] = {}
    for gi, (_, compounds) in enumerate(spec.groups):
        pattern = base_pattern * (1.0 if gi % 2 == 0 else -1.0)
        for compound in compounds:
            wiggle = rng.normal(0.0, spec.compound_effect_sd, size=spec.n_informative)
            effects[compound] = pattern * spec.effect_size + wiggle

    # each column is written into the matrix as it is drawn: a list of columns
    # stacked at the end would need twice the memory, and leave a hole in the
    # heap as large as the matrix
    values = np.empty((f, spec.replicates * (1 + len(spec.compounds))))
    records = []
    for r in range(1, spec.replicates + 1):
        deviation = rng.normal(0.0, spec.control_noise_sd, size=f)
        values[:, len(records)] = base * np.exp2(deviation)
        records.append(SampleRecord(f"control_{r}", ROLE_CONTROL, "", r, ""))
    for compound in spec.compounds:
        full_effect = np.zeros(f)
        full_effect[informative] = effects[compound]
        for r in range(1, spec.replicates + 1):
            noise = rng.normal(0.0, spec.noise_sd, size=f)
            values[:, len(records)] = base * np.exp2(full_effect) * np.exp2(noise)
            records.append(SampleRecord(f"{compound}_{r}", ROLE_TREATED, compound, r, f"control_{r}"))

    zero_mask = rng.random(values.shape) < spec.zero_fraction
    values[zero_mask] = 0.0
    if np.any((values > 0).sum(axis=0) == 0):
        raise ValidationError("zero_fraction left an entirely-zero sample column; lower it")

    width = max(5, len(str(f - 1)))
    feature_ids = tuple(f"RNA{i:0{width}d}" for i in range(f))
    sample_ids = tuple(rec.sample_id for rec in records)
    matrix = ExpressionMatrix(feature_ids, sample_ids, values)
    meta = SampleMeta(tuple(records))
    truth = GroundTruth(
        partition=tuple(tuple(cs) for _, cs in spec.groups),
        informative_ids=tuple(feature_ids[i] for i in informative),
        informative_indices=tuple(int(i) for i in informative),
    )
    return matrix, meta, truth


def write_dataset(out_dir, matrix: ExpressionMatrix, meta: SampleMeta, truth: GroundTruth) -> dict[str, Path]:
    """Emit matrix/meta/weights files in the ingest formats plus a truth sidecar;
    the weights file lists every treated pair with weight 1."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "matrix": out / "matrix.tsv",
        "meta": out / "meta.tsv",
        "weights": out / "weights.tsv",
        "truth": out / "truth.json",
    }
    ingest.write_matrix(matrix, paths["matrix"])
    ingest.write_meta(meta, paths["meta"])
    ingest.write_weights(PairWeights.from_entries(meta.treated_ids(), default=1), paths["weights"])
    ingest.write_json(paths["truth"], truth.to_dict())
    return paths
