"""Brute-force references used by tests and acceptance checks.

The subset oracle enumerates every n-subset and scores it with a separate
two-pass correlation (mean first, then centered sums) so it shares no code
with the incremental evaluation path it is meant to check. The clustering
oracle recomputes every cross-cluster average from the raw matrix at each
step instead of using the running update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .clustering import DissimilarityMatrix
from .errors import ParameterError
from .model import Dendrogram, PairWeights, Selection
from .objective import ObjectiveContext, ObjectiveParams

_MAX_SUBSETS = 10**6
_MAX_ORACLE_SAMPLES = 16


@dataclass(frozen=True)
class OracleResult:
    best_subset: Selection
    best_u: float
    evaluated_count: int


def _naive_pair_weights(context: ObjectiveContext, weights: PairWeights):
    pairs = []
    ids = context.treated_ids
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            w = weights.get(ids[a], ids[b])
            if w != 0:
                pairs.append((a, b, w))
    count_pos = sum(1 for a in range(len(ids)) for b in range(a + 1, len(ids)) if weights.get(ids[a], ids[b]) == 1)
    if count_pos < 1:
        raise ParameterError("pair weights must assign weight 1 to at least one pair")
    return pairs, count_pos


def _naive_u(context: ObjectiveContext, idx, params: ObjectiveParams, pairs, count_pos) -> tuple[float, float, float]:
    sub = context.ratios[list(idx)]
    n = sub.shape[0]
    cols = [sub[:, g] for g in range(sub.shape[1])]
    means = [float(np.mean(c)) for c in cols]
    centered = [c - mu for c, mu in zip(cols, means)]
    sds = [math.sqrt(float(np.mean(c * c))) for c in centered]
    total = 0.0
    for a, b, w in pairs:
        if sds[a] == 0.0 or sds[b] == 0.0:
            continue
        r = float(np.mean(centered[a] * centered[b])) / (sds[a] * sds[b])
        r = min(1.0, max(-1.0, r))
        total += w * abs(r)
    u1 = total / count_pos
    u2 = sum(float(context.norms[i]) for i in idx) / (n * context.max_norm)
    u = (1.0 - params.alpha) * u1 + params.alpha * u2
    return u, u1, u2


def exhaustive_optimum(context: ObjectiveContext, params: ObjectiveParams) -> OracleResult:
    """Enumerate all C(F, n) subsets and return the best, ties lexicographic."""
    f = context.n_features
    n = params.n
    if n > f:
        raise ParameterError(f"n = {n} exceeds {f} features")
    count = math.comb(f, n)
    if count > _MAX_SUBSETS:
        raise ParameterError(f"instance too large: C({f}, {n}) = {count} subsets exceeds {_MAX_SUBSETS}")
    pairs, count_pos = _naive_pair_weights(context, params.weights)
    best_idx = None
    best = None
    for idx in combinations(range(f), n):
        u, u1, u2 = _naive_u(context, idx, params, pairs, count_pos)
        # strict > keeps the lexicographically first subset among ties
        if best is None or u > best[0]:
            best = (u, u1, u2)
            best_idx = idx
    assert best_idx is not None
    selection = Selection(best_idx, best[0], best[1], best[2])
    return OracleResult(selection, best[0], count)


def naive_u(context: ObjectiveContext, indices, params: ObjectiveParams) -> float:
    """From-scratch two-pass objective for one subset (test support)."""
    pairs, count_pos = _naive_pair_weights(context, params.weights)
    u, _, _ = _naive_u(context, tuple(indices), params, pairs, count_pos)
    return u


def naive_average_linkage(d: DissimilarityMatrix) -> Dendrogram:
    """Textbook agglomeration recomputing all cross-cluster means each step."""
    s = d.n_samples
    if s > _MAX_ORACLE_SAMPLES:
        raise ParameterError(f"naive clustering capped at {_MAX_ORACLE_SAMPLES} samples, got {s}")
    clusters: dict[int, list[int]] = {i: [i] for i in range(s)}
    merges = []
    for m in range(s - 1):
        ids = sorted(clusters)
        best_val = None
        best_key = None
        best_pair = None
        for xi in range(len(ids)):
            for yi in range(xi + 1, len(ids)):
                a, b = ids[xi], ids[yi]
                val = float(np.mean(d.d[np.ix_(clusters[a], clusters[b])]))
                la = min(d.labels[i] for i in clusters[a])
                lb = min(d.labels[i] for i in clusters[b])
                key = (min(la, lb), max(la, lb))
                if best_val is None or val < best_val or (val == best_val and key < best_key):
                    best_val, best_key, best_pair = val, key, (a, b)
        a, b = best_pair
        la = min(d.labels[i] for i in clusters[a])
        lb = min(d.labels[i] for i in clusters[b])
        left, right = (a, b) if la <= lb else (b, a)
        merges.append((left, right, best_val))
        clusters[s + m] = clusters.pop(a) + clusters.pop(b)
    return Dendrogram(d.labels, tuple(merges))
