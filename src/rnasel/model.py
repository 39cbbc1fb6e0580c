"""Core immutable data types shared by all pipeline stages.

Everything here is frozen after construction and safe to share read-only
across concurrent workers. Numeric payloads are float64 numpy arrays with
the writeable flag cleared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

ROLE_CONTROL = "control"
ROLE_TREATED = "treated"

# Slack for validating merge heights: average linkage is monotone in exact
# arithmetic, so anything beyond rounding noise is a real bug.
_HEIGHT_TOL = 1e-9


def _readonly(values, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_unique(ids, name: str) -> None:
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for ident in ids:
        if ident in seen:
            raise ValidationError(f"duplicate {name}: {ident!r}")
        seen.add(ident)


@dataclass(frozen=True)
class ExpressionMatrix:
    """Features x samples matrix of nonnegative expression levels.

    ``values[i, j]`` is the expression level of ``feature_ids[i]`` in
    ``sample_ids[j]``. Levels are dimensionless nonnegative reals.
    """

    feature_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "values", _readonly(self.values, "values", 2))
        f, s = self.values.shape
        if f != len(self.feature_ids) or s != len(self.sample_ids):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.feature_ids)} features x {len(self.sample_ids)} samples"
            )
        if f < 2 or s < 2:
            raise ValidationError(f"need at least 2 features and 2 samples, got {f}x{s}")
        _check_unique(self.feature_ids, "feature id")
        _check_unique(self.sample_ids, "sample id")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("expression values must be finite")
        if np.any(self.values < 0):
            raise ValidationError("expression values must be nonnegative")

    @property
    def n_features(self) -> int:
        return len(self.feature_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @cached_property
    def _sample_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.sample_ids)}

    def sample_index(self, sample_id: str) -> int:
        return self._sample_index[sample_id]


@dataclass(frozen=True)
class SampleRecord:
    """Metadata for one sample column."""

    sample_id: str
    role: str
    compound: str = ""
    replicate: int = 1
    control_id: str = ""


@dataclass(frozen=True)
class SampleMeta:
    """Role, compound, replicate, and control pairing for every sample."""

    samples: tuple[SampleRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        _check_unique([r.sample_id for r in self.samples], "sample id")
        controls = {r.sample_id for r in self.samples if r.role == ROLE_CONTROL}
        seen_pairs = set()
        for rec in self.samples:
            if rec.role not in (ROLE_CONTROL, ROLE_TREATED):
                raise ValidationError(f"unknown role {rec.role!r} for sample {rec.sample_id!r}")
            if not isinstance(rec.replicate, int) or rec.replicate < 1:
                raise ValidationError(f"replicate must be a positive integer for sample {rec.sample_id!r}")
            if rec.role == ROLE_CONTROL:
                if rec.compound:
                    raise ValidationError(f"control sample {rec.sample_id!r} must have an empty compound")
                if rec.control_id:
                    raise ValidationError(f"control sample {rec.sample_id!r} must not reference a control")
            else:
                if not rec.control_id:
                    raise ValidationError(f"treated sample {rec.sample_id!r} has no control_id")
                if rec.control_id not in controls:
                    raise ValidationError(
                        f"treated sample {rec.sample_id!r} references missing control {rec.control_id!r}"
                    )
                key = (rec.compound, rec.replicate)
                if key in seen_pairs:
                    raise ValidationError(f"duplicate (compound, replicate) pair {key!r}")
                seen_pairs.add(key)

    @cached_property
    def _by_id(self) -> dict[str, SampleRecord]:
        return {r.sample_id: r for r in self.samples}

    def record(self, sample_id: str) -> SampleRecord:
        return self._by_id[sample_id]

    def control_ids(self) -> tuple[str, ...]:
        return tuple(r.sample_id for r in self.samples if r.role == ROLE_CONTROL)

    def treated_ids(self) -> tuple[str, ...]:
        return tuple(r.sample_id for r in self.samples if r.role == ROLE_TREATED)

    def control_for(self, sample_id: str) -> str:
        rec = self.record(sample_id)
        if rec.role != ROLE_TREATED:
            raise ValidationError(f"sample {sample_id!r} is not treated")
        return rec.control_id


@dataclass(frozen=True)
class RatioMatrix:
    """Features x treated-samples matrix of log2 expression ratios."""

    feature_ids: tuple[str, ...]
    treated_ids: tuple[str, ...]
    ratios: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "treated_ids", tuple(self.treated_ids))
        object.__setattr__(self, "ratios", _readonly(self.ratios, "ratios", 2))
        f, g = self.ratios.shape
        if f != len(self.feature_ids) or g != len(self.treated_ids):
            raise ValidationError(
                f"ratios shape {self.ratios.shape} does not match "
                f"{len(self.feature_ids)} features x {len(self.treated_ids)} treated samples"
            )
        _check_unique(self.feature_ids, "feature id")
        _check_unique(self.treated_ids, "treated sample id")
        if not np.all(np.isfinite(self.ratios)):
            raise ValidationError("ratio values must be finite")

    @property
    def n_features(self) -> int:
        return len(self.feature_ids)

    @property
    def n_treated(self) -> int:
        return len(self.treated_ids)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValidationError(f"weight pair must name two distinct samples, got {a!r} twice")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PairWeights:
    """Symmetric weights in {-1, 0, 1} over unordered treated-sample pairs."""

    weights: dict[tuple[str, str], int]

    def __post_init__(self):
        normalized = {}
        for (a, b), w in self.weights.items():
            key = _pair_key(a, b)
            if w not in (-1, 0, 1):
                raise ValidationError(f"weight for pair {key!r} must be -1, 0 or 1, got {w!r}")
            if key in normalized and normalized[key] != w:
                raise ValidationError(f"conflicting weights for pair {key!r}")
            normalized[key] = int(w)
        object.__setattr__(self, "weights", normalized)

    @classmethod
    def from_entries(
        cls,
        treated_ids,
        entries=(),
        default: int = 1,
    ) -> "PairWeights":
        """Build weights over all unordered pairs of ``treated_ids``.

        ``entries`` is an iterable of (sample_a, sample_b, weight) overriding
        the default for listed pairs. Listing an unknown sample or the same
        pair twice is an error.
        """
        ids = list(treated_ids)
        if default not in (-1, 0, 1):
            raise ValidationError(f"default weight must be -1, 0 or 1, got {default!r}")
        default = int(default)
        known = set(ids)
        if len(known) != len(ids):
            twice = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(f"weight pair must name two distinct samples, got {twice!r} twice")
        # sorted ids make every combination a normalised key
        table = dict.fromkeys(itertools.combinations(sorted(ids), 2), default)
        listed = set()
        for a, b, w in entries:
            if a not in known or b not in known:
                raise ValidationError(f"weight entry ({a!r}, {b!r}) names an unknown treated sample")
            key = _pair_key(a, b)
            if key in listed:
                raise ValidationError(f"pair {key!r} listed more than once in weights")
            listed.add(key)
            if w not in (-1, 0, 1):
                raise ValidationError(f"weight for pair {key!r} must be -1, 0 or 1, got {w!r}")
            table[key] = int(w)
        # every key is normalised and every weight checked: skip __post_init__
        weights = object.__new__(cls)
        object.__setattr__(weights, "weights", table)
        return weights

    def get(self, a: str, b: str) -> int:
        return self.weights[_pair_key(a, b)]

    @property
    def count_positive(self) -> int:
        return sum(1 for w in self.weights.values() if w == 1)


@dataclass(frozen=True)
class Selection:
    """A fixed-size feature subset with its objective value breakdown."""

    indices: tuple[int, ...]
    objective: float
    u1: float
    u2: float

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValidationError("selection must contain at least one feature")
        if any(i < 0 for i in idx):
            raise ValidationError("selection indices must be nonnegative")
        if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
            raise ValidationError("selection indices must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Dendrogram:
    """Binary merge tree over samples with per-merge dissimilarity heights.

    Leaves are numbered 0..S-1 in ``leaves`` order; the merge at position m
    creates internal node S+m. Merge heights lie in [0, 1] and are
    non-decreasing along any root-ward path.
    """

    leaves: tuple[str, ...]
    merges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        leaves = tuple(self.leaves)
        merges = tuple((int(l), int(r), float(h)) for l, r, h in self.merges)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "merges", merges)
        s = len(leaves)
        if s < 2:
            raise ValidationError("dendrogram needs at least 2 leaves")
        _check_unique(leaves, "leaf label")
        if len(merges) != s - 1:
            raise ValidationError(f"expected {s - 1} merges for {s} leaves, got {len(merges)}")
        heights = [0.0] * (2 * s - 1)
        merged = set()
        for m, (left, right, height) in enumerate(merges):
            node = s + m
            for child in (left, right):
                if not 0 <= child < node:
                    raise ValidationError(f"merge {m} references invalid node {child}")
                if child in merged:
                    raise ValidationError(f"node {child} participates in more than one merge")
                merged.add(child)
                if height < heights[child] - _HEIGHT_TOL:
                    raise ValidationError(
                        f"merge {m} height {height} below child height {heights[child]}"
                    )
            if left == right:
                raise ValidationError(f"merge {m} joins node {left} with itself")
            if not -_HEIGHT_TOL <= height <= 1.0 + _HEIGHT_TOL:
                raise ValidationError(f"merge height {height} outside [0, 1]")
            heights[node] = height

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def feature_norms(matrix: ExpressionMatrix) -> np.ndarray:
    """Euclidean norms of every feature row, as a read-only vector."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix.values, matrix.values))
    norms.setflags(write=False)
    return norms
