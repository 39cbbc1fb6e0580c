"""Correlation dissimilarity and average-linkage agglomeration.

Samples are compared through d(x, y) = (1 - corr(x, y)) / 2, which maps
Pearson correlation onto [0, 1]. Clusters are merged bottom-up at the
minimal unweighted mean pairwise dissimilarity across all cross-cluster
sample pairs; equal minima are broken by the lexicographically smallest
pair of cluster member labels so results are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import REL_VAR_EPS, snap_unit
from .errors import NumericalError, ParameterError, ValidationError
from .model import Dendrogram


class ZeroVarianceProfileWarning(UserWarning):
    """A sample profile was constant; its dissimilarities default to 0.5."""


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric sample-by-sample dissimilarity with zero diagonal."""

    labels: tuple[str, ...]
    d: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        arr = np.ascontiguousarray(np.asarray(self.d, dtype=np.float64))
        object.__setattr__(self, "labels", labels)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"dissimilarity must be square, got shape {arr.shape}")
        if arr.shape[0] != len(labels):
            raise ValidationError("labels length must match matrix size")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate sample labels")
        if len(labels) < 2:
            raise ValidationError("need at least 2 samples")
        if not np.array_equal(arr, arr.T):
            raise ValidationError("dissimilarity matrix must be symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise ValidationError("dissimilarity diagonal must be zero")
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise ValidationError("dissimilarities must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    @property
    def n_samples(self) -> int:
        return len(self.labels)


def dissimilarity(labels, profiles) -> DissimilarityMatrix:
    """(1 - Pearson correlation) / 2 between every pair of sample profiles.

    ``profiles`` is one row per sample over a common feature axis. A
    constant profile has no defined correlation; it is scored 0.5 against
    everything (correlation treated as 0) and a warning is issued.
    """
    labels = tuple(labels)
    try:
        x = np.asarray(profiles, dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"profiles must form a rectangular array: {exc}") from None
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise ValidationError(f"profiles must be one row per label, got shape {x.shape}")
    s, length = x.shape
    if s < 2:
        raise ValidationError("need at least 2 samples")
    if length < 2:
        raise ValidationError("profiles need at least 2 entries")
    if not np.all(np.isfinite(x)):
        raise ValidationError("profiles must be finite")

    xc = x - x.mean(axis=1, keepdims=True)
    ss = np.einsum("ij,ij->i", xc, xc)
    msq = np.einsum("ij,ij->i", x, x)
    if not np.all(np.isfinite(msq)):  # every profile would look constant
        raise ValidationError("profiles too large: a sum of squares overflows")
    degenerate = ss <= REL_VAR_EPS * msq
    if np.any(degenerate):
        bad = [labels[i] for i in np.nonzero(degenerate)[0]]
        warnings.warn(
            f"constant profile for {bad}; dissimilarity to other samples set to 0.5",
            ZeroVarianceProfileWarning,
        )
    # constant profiles get a stand-in norm; their correlations are then set to 0
    norm2 = np.where(degenerate, 1.0, ss)
    r = snap_unit(np.clip(xc @ xc.T / np.sqrt(np.outer(norm2, norm2)), -1.0, 1.0))
    r[np.logical_or.outer(degenerate, degenerate)] = 0.0
    d = np.triu(np.clip((1.0 - r) / 2.0, 0.0, 1.0), 1)
    return DissimilarityMatrix(labels, d + d.T)


def average_linkage(d: DissimilarityMatrix) -> Dendrogram:
    """UPGMA-style agglomeration; merge height = mean cross-cluster distance.

    Each cluster pair keeps the sum of its cross-pair distances, updated on a
    merge as sum(A+B, C) = sum(A, C) + sum(B, C); the height is that sum over
    |A| |B|. Equal means of exactly summed distances are equal floats, so the
    label tie rule sees every exact tie. A merged cluster takes over the slot
    of one of its parts; slots no longer in use hold +inf means.
    """
    labels = d.labels
    s = len(labels)
    total = np.array(d.d)
    mean = np.array(d.d)
    np.fill_diagonal(mean, np.inf)
    size = np.ones(s)
    active = np.ones(s, dtype=bool)
    node_of = list(range(s))
    # rank of each cluster's smallest label; labels are unique, so rank order is label order
    rank = np.zeros(s, dtype=np.int64)
    rank[sorted(range(s), key=labels.__getitem__)] = np.arange(s)
    merges = []
    prev_height = 0.0
    for node in range(s, 2 * s - 1):
        height = float(mean.min())
        # exact ties go to the smallest (label, label) pair; a holds the smaller label
        xs, ys = np.nonzero((mean == height) & (rank[:, None] < rank))
        k = int(np.argmin(rank[xs] * s + rank[ys]))
        a, b = int(xs[k]), int(ys[k])
        if height < prev_height - 1e-12:
            raise NumericalError(
                f"average linkage produced a height inversion: {height} after {prev_height}"
            )
        prev_height = height
        merges.append((node_of[a], node_of[b], height))
        node_of[a] = node  # slot a takes the merged cluster, which keeps a's rank
        active[b] = False
        size[a] += size[b]
        total[a, :] = total[:, a] = total[a] + total[b]
        row = np.where(active, total[a] / (size[a] * size), np.inf)
        row[a] = np.inf
        mean[a, :] = mean[:, a] = row
        mean[b, :] = mean[:, b] = np.inf
    return Dendrogram(labels, tuple(merges))


def cut(dend: Dendrogram, k: int) -> list[list[str]]:
    """Partition of the leaf labels obtained by removing the k-1 highest merges.

    Groups are sorted internally and by their first label.
    """
    s = dend.n_leaves
    if not isinstance(k, int) or not 1 <= k <= s:
        raise ParameterError(f"k must be in [1, {s}], got {k!r}")
    groups: dict[int, list[int]] = {i: [i] for i in range(s)}
    for m in range(s - k):
        left, right, _ = dend.merges[m]
        groups[s + m] = groups.pop(left) + groups.pop(right)
    out = [sorted(dend.leaves[i] for i in members) for members in groups.values()]
    out.sort(key=lambda g: g[0])
    return out


def node_heights(dend: Dendrogram) -> list[float]:
    """Merge height per node id (0.0 for leaves)."""
    heights = [0.0] * (2 * dend.n_leaves - 1)
    for m, (_, _, h) in enumerate(dend.merges):
        heights[dend.n_leaves + m] = h
    return heights


def leaf_order(dend: Dendrogram) -> list[int]:
    """Left-to-right leaf indices of the drawn tree (no crossings)."""
    s = dend.n_leaves
    order = []
    stack = [2 * s - 2]
    while stack:
        node = stack.pop()
        if node < s:
            order.append(node)
        else:
            left, right, _ = dend.merges[node - s]
            stack.append(right)
            stack.append(left)
    return order


def _newick_label(label: str) -> str:
    out = label
    for ch in "(),:;'\"[] \t\n":
        out = out.replace(ch, "_")
    return out


def to_newick(dend: Dendrogram) -> str:
    """Newick serialization with branch lengths = height differences."""
    s = dend.n_leaves
    heights = node_heights(dend)

    def render(node: int) -> str:
        if node < s:
            return _newick_label(dend.leaves[node])
        left, right, h = dend.merges[node - s]
        lb = max(h - heights[left], 0.0)
        rb = max(h - heights[right], 0.0)
        return f"({render(left)}:{lb:.12g},{render(right)}:{rb:.12g})"

    return render(2 * s - 2) + ";"


def to_merge_dict(dend: Dendrogram) -> dict:
    """JSON-ready form: leaf labels plus (left, right, height) merge triples."""
    return {
        "leaves": list(dend.leaves),
        "merges": [[left, right, height] for left, right, height in dend.merges],
    }
