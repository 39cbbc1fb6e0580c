"""Subset objective: correlation strength, expression magnitude, and blend.

For a subset R of n features the score is

    u = (1 - alpha) * u1 + alpha * u2

u1 is the weighted mean absolute Pearson correlation between treated-sample
ratio profiles restricted to R, normalized by the number of pairs carrying
weight 1. u2 is the mean Euclidean feature norm of R divided by the largest
feature norm in the whole matrix. With all weights in {0, 1} both terms, and
hence u, lie in [0, 1]; pairs with weight -1 subtract from u1 and can push it
below 0, which is permitted and documented.

The annealer's inner loop never re-evaluates from scratch: ``SubsetState``
carries per-column and per-pair running sums so a swap costs O(pairs). Pairs
of weight 0 are dropped before annealing (``ObjectiveContext.pair_data``):
they add nothing to u1, so u does not change, and sparse weights cost less.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import ParameterError, ValidationError
from .model import ExpressionMatrix, PairWeights, RatioMatrix, feature_norms


class DegeneratePairWarning(UserWarning):
    """A correlation was requested for a zero-variance vector."""


def pearson(x, y) -> float:
    """Pearson correlation; 0 (with a warning) if either vector is constant."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValidationError(f"correlation needs two equal-length vectors, got {xa.shape} and {ya.shape}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(np.dot(xc, xc))
    sy = float(np.dot(yc, yc))
    if sx <= _kernels.REL_VAR_EPS * float(np.dot(xa, xa)) or sy <= _kernels.REL_VAR_EPS * float(np.dot(ya, ya)):
        warnings.warn("zero-variance vector in correlation, contributing 0", DegeneratePairWarning)
        return 0.0
    r = float(np.dot(xc, yc)) / np.sqrt(sx * sy)
    return float(_kernels.snap_unit(min(1.0, max(-1.0, r))))


def pearson_abs(x, y) -> float:
    """Absolute Pearson correlation in [0, 1]."""
    return abs(pearson(x, y))


@dataclass(frozen=True)
class ObjectiveParams:
    """Blend weight, subset size, and pair weights for one optimization."""

    alpha: float
    n: int
    weights: PairWeights

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"subset size n must be a positive integer, got {self.n!r}")
        if self.weights.count_positive < 1:
            raise ParameterError("pair weights must assign weight 1 to at least one pair")


@dataclass(frozen=True)
class PairData:
    """The pairs of nonzero weight, aligned to ratio-matrix column order."""

    iu: np.ndarray
    ju: np.ndarray
    w: np.ndarray
    count_positive: float

    @cached_property
    def lists(self) -> tuple[list, list, list]:
        """``iu``, ``ju`` and ``w`` as Python lists, built once for the
        Python reference kernel; the C kernel reads the arrays."""
        return self.iu.tolist(), self.ju.tolist(), self.w.tolist()


class ObjectiveContext:
    """Immutable evaluation context: ratio rows, feature norms, max norm.

    Shared read-only by any number of chains; per-chain mutable state lives
    in ``SubsetState``.
    """

    def __init__(self, ratios, norms, treated_ids):
        ratio_arr = np.ascontiguousarray(np.asarray(ratios, dtype=np.float64))
        norm_arr = np.ascontiguousarray(np.asarray(norms, dtype=np.float64))
        if ratio_arr.ndim != 2:
            raise ValidationError(f"ratios must be 2-D, got shape {ratio_arr.shape}")
        if norm_arr.ndim != 1 or norm_arr.shape[0] != ratio_arr.shape[0]:
            raise ValidationError("norms must be a vector with one entry per feature")
        if not np.all(np.isfinite(ratio_arr)):
            raise ValidationError("ratios must be finite")
        if not np.all(np.isfinite(norm_arr)) or np.any(norm_arr < 0):
            raise ValidationError("norms must be finite and nonnegative")
        treated = tuple(treated_ids)
        if len(treated) != ratio_arr.shape[1]:
            raise ValidationError("treated_ids length must match ratio columns")
        max_norm = float(norm_arr.max())
        if max_norm <= 0.0:
            raise ValidationError("max feature norm must be positive")
        ratio_arr.setflags(write=False)
        norm_arr.setflags(write=False)
        self.ratios = ratio_arr
        self.norms = norm_arr
        self.max_norm = max_norm
        self.treated_ids = treated

    @classmethod
    def from_matrices(cls, expression: ExpressionMatrix, ratio_matrix: RatioMatrix) -> "ObjectiveContext":
        if expression.feature_ids != ratio_matrix.feature_ids:
            raise ValidationError("expression and ratio matrices list different features")
        return cls(ratio_matrix.ratios, feature_norms(expression), ratio_matrix.treated_ids)

    @property
    def n_features(self) -> int:
        return self.ratios.shape[0]

    @property
    def n_treated(self) -> int:
        return self.ratios.shape[1]

    def pair_data(self, weights: PairWeights) -> PairData:
        """The pairs of nonzero weight in ``weights``, in upper-triangle order."""
        g = self.n_treated
        iu, ju = np.triu_indices(g, 1)
        w = np.empty(len(iu), dtype=np.float64)
        for p in range(len(iu)):
            w[p] = weights.get(self.treated_ids[iu[p]], self.treated_ids[ju[p]])
        count_pos = float(np.count_nonzero(w == 1.0))
        if count_pos < 1:
            raise ParameterError("pair weights must assign weight 1 to at least one pair")
        keep = w != 0.0
        return PairData(iu[keep].astype(np.int64), ju[keep].astype(np.int64), w[keep], count_pos)


def _check_indices(context: ObjectiveContext, indices) -> np.ndarray:
    # sorted so evaluation has set semantics: the summation order, and hence
    # the exact float result, cannot depend on how the caller ordered the subset
    idx = np.sort(np.asarray(list(indices), dtype=np.int64))
    if idx.size == 0:
        raise ParameterError("subset must contain at least one feature")
    if np.any(idx < 0) or np.any(idx >= context.n_features):
        raise ParameterError("subset index out of range")
    if np.any(idx[1:] == idx[:-1]):
        raise ParameterError("subset indices must be distinct")
    return idx


def _subset_sums(context: ObjectiveContext, idx: np.ndarray, pair: PairData):
    sub = context.ratios[idx]
    s1 = sub.sum(axis=0)
    s2 = np.einsum("ij,ij->j", sub, sub)
    cp = (sub.T @ sub)[pair.iu, pair.ju]
    return np.ascontiguousarray(s1), np.ascontiguousarray(s2), np.ascontiguousarray(cp)


def eval_u1(context: ObjectiveContext, indices, weights: PairWeights) -> float:
    """Weighted mean absolute correlation over the subset, from scratch."""
    idx = _check_indices(context, indices)
    pair = context.pair_data(weights)
    s1, s2, cp = _subset_sums(context, idx, pair)
    return _kernels.u1_from_sums(idx.size, s1, s2, cp, pair)


def eval_u2(context: ObjectiveContext, indices) -> float:
    """Mean normalized feature norm of the subset, in [0, 1]."""
    idx = _check_indices(context, indices)
    return float(context.norms[idx].sum() / (idx.size * context.max_norm))


def eval_u(context: ObjectiveContext, indices, params: ObjectiveParams) -> tuple[float, float, float]:
    """Blended objective (u, u1, u2) for the subset, from scratch."""
    idx = _check_indices(context, indices)
    if idx.size != params.n:
        raise ParameterError(f"subset has {idx.size} features but params.n = {params.n}")
    u1 = eval_u1(context, idx, params.weights)
    u2 = eval_u2(context, idx)
    u = (1.0 - params.alpha) * u1 + params.alpha * u2
    return u, u1, u2


@dataclass(slots=True, eq=False)
class SubsetState:
    """Running sums for one annealing chain.

    Owns the current subset (and its complement) plus the per-column and
    per-pair sums that make swap evaluation O(pairs). Never share one state
    between chains.
    """

    context: ObjectiveContext
    pair: PairData
    alpha: float
    n: int
    sel: np.ndarray
    comp: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    cp: np.ndarray
    norm_sum: float

    @classmethod
    def build(cls, context: ObjectiveContext, indices, params: ObjectiveParams) -> "SubsetState":
        idx = _check_indices(context, indices)
        if idx.size != params.n:
            raise ParameterError(f"subset has {idx.size} features but params.n = {params.n}")
        pair = context.pair_data(params.weights)
        s1, s2, cp = _subset_sums(context, idx, pair)
        comp = np.setdiff1d(np.arange(context.n_features, dtype=np.int64), idx)
        norm_sum = float(context.norms[idx].sum())
        return cls(context, pair, params.alpha, params.n, idx.copy(), comp, s1, s2, cp, norm_sum)

    def current_u(self) -> float:
        """u computed from the running sums."""
        u1 = _kernels.u1_from_sums(self.n, self.s1, self.s2, self.cp, self.pair)
        u2 = self.norm_sum / (self.n * self.context.max_norm)
        return (1.0 - self.alpha) * u1 + self.alpha * u2

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.sort(self.sel))

    def contains(self, feature: int) -> bool:
        return bool(np.any(self.sel == feature))

    def apply(self, pending: "PendingSwap") -> None:
        """Commit a swap previously evaluated by ``swap_delta``."""
        i = np.nonzero(self.sel == pending.out_feature)[0]
        j = np.nonzero(self.comp == pending.in_feature)[0]
        if i.size != 1 or j.size != 1:
            raise ParameterError("pending swap no longer matches the subset state")
        self.sel[i[0]] = pending.in_feature
        self.comp[j[0]] = pending.out_feature
        self.s1 = pending.s1
        self.s2 = pending.s2
        self.cp = pending.cp
        self.norm_sum = pending.norm_sum


@dataclass(frozen=True)
class PendingSwap:
    """Candidate running sums for one not-yet-committed swap."""

    out_feature: int
    in_feature: int
    s1: np.ndarray
    s2: np.ndarray
    cp: np.ndarray
    norm_sum: float
    u: float


def swap_delta(
    context: ObjectiveContext,
    state: SubsetState,
    out_feature: int,
    in_feature: int,
    params: ObjectiveParams,
) -> tuple[float, PendingSwap]:
    """Objective after swapping one feature, in O(pairs).

    Returns (new_u, pending); commit with ``state.apply(pending)``. The state
    is untouched until then. ``params`` must be those the state was built with.
    """
    if (params.alpha, params.n) != (state.alpha, state.n):
        raise ParameterError("params differ from those the subset state was built with")
    if not state.contains(out_feature):
        raise ParameterError(f"feature {out_feature} is not in the current subset")
    if state.contains(in_feature) or not 0 <= in_feature < context.n_features:
        raise ParameterError(f"feature {in_feature} is not available to swap in")
    new_u, (s1, s2, cp, norm_sum) = _kernels.trial_swap(state, in_feature, out_feature)
    return new_u, PendingSwap(int(out_feature), int(in_feature), s1, s2, cp, norm_sum, new_u)
