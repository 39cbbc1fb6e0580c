"""Inner loops for objective evaluation and annealing: the Python reference.

The swap move changes one feature, so the per-pair correlation sums can be
updated in O(pairs) instead of O(n * pairs). Everything here operates on the
running sums of a single annealing chain; the public API lives in
``objective`` and ``annealer``.

``anneal_chain`` has a C twin in ``_anneal.c`` (loaded by ``_ckernel``) that
the annealer runs when it can be built. The two use the same operation order,
correctly rounded ``sqrt`` and libm's ``exp`` (hence ``math.exp`` here, not
numpy's SIMD ``np.exp``) and the same random stream, so they give the same
bits; this module is the reference the C kernel is tested against and the
fallback when no C compiler is available.
"""

from __future__ import annotations

from math import exp, sqrt

import numpy as np

# A column whose variance over the subset falls below this fraction of its
# mean square is treated as constant: its correlations contribute 0. The
# threshold sits well above one-pass cancellation noise (~1e-16) and well
# below any real variance seen at desk scale, so the incremental and
# from-scratch paths classify degeneracy identically.
REL_VAR_EPS = 1e-12

# Correlations within a few ulps of +-1 are treated as exact: genuinely
# colinear vectors land there only through rounding of the norm product.
UNIT_SNAP = 32 * np.finfo(np.float64).eps


def snap_unit(r):
    """r with values within UNIT_SNAP of +-1 set to +-1; scalar or array."""
    return np.where(np.abs(r) > 1.0 - UNIT_SNAP, np.copysign(1.0, r), r)


def u1_from_sums(n, s1, s2, cp, pairs, count_pos):
    """Weighted mean absolute correlation from per-column and per-pair sums.

    s1/s2 are per-column sums and sums of squares over the subset, cp the
    per-pair cross-product sums, in the order of ``pairs``: the (i, j, w) of
    each pair of columns.
    """
    inv = 1.0 / n
    m = []
    v = []
    for a, b in zip(s1, s2):
        mean = a * inv
        mean_sq = b * inv
        var = mean_sq - mean * mean
        m.append(mean)
        v.append(0.0 if var <= REL_VAR_EPS * mean_sq else var)
    acc = 0.0
    for (i, j, wp), c in zip(pairs, cp):
        if wp == 0.0:
            continue
        dv = v[i] * v[j]
        if dv <= 0.0:
            continue
        r = (c * inv - m[i] * m[j]) / sqrt(dv)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
        acc += wp * abs(r)
    return acc / count_pos


class ListChain:
    """The constants and running sums of one chain as Python numbers and lists.

    The interpreted loop runs about three times faster on these than on
    numpy scalars, and does the same IEEE operations, so it gives the same
    bits. Swaps are scored with blend weight ``alpha``.
    """

    __slots__ = ("n", "alpha", "max_norm", "pairs", "count_pos", "s1", "s2", "cp", "norm_sum")

    def __init__(self, state, alpha):
        self.n = state.n
        self.alpha = alpha
        self.max_norm = state.context.max_norm
        self.pairs = state.pair.triples()
        self.count_pos = state.pair.count_positive
        self.s1 = state.s1.tolist()
        self.s2 = state.s2.tolist()
        self.cp = state.cp.tolist()
        self.norm_sum = state.norm_sum

    def trial_swap(self, a, b, norm_in, norm_out):
        """Objective after swapping the feature with ratio row b and norm
        norm_out for the one with row a and norm norm_in, without committing.

        Returns (new_u, (s1, s2, cp, norm_sum)), the candidate sums as lists.
        """
        s1 = [x + p - q for x, p, q in zip(self.s1, a, b)]
        s2 = [x + p * p - q * q for x, p, q in zip(self.s2, a, b)]
        cp = [x + a[i] * a[j] - b[i] * b[j] for x, (i, j, _) in zip(self.cp, self.pairs)]
        norm_sum = self.norm_sum + norm_in - norm_out
        u1 = u1_from_sums(self.n, s1, s2, cp, self.pairs, self.count_pos)
        u2 = norm_sum / (self.n * self.max_norm)
        return (1.0 - self.alpha) * u1 + self.alpha * u2, (s1, s2, cp, norm_sum)


def anneal_chain(state, best_sel, rng, temperatures, swaps, cur_u):
    """Every temperature step of one chain of Metropolis swap moves.

    Runs ``swaps`` proposals at each temperature, starting from ``state``
    with objective ``cur_u``. Draw order per proposal: position into the
    subset, position into the complement, then one uniform draw only when
    the move does not improve. Updates ``state`` and ``best_sel`` in place
    and returns the per-step lists (cur_u, best_u, accepted).
    """
    chain = ListChain(state, state.alpha)
    ratios = state.context.ratios.tolist()
    norms = state.context.norms.tolist()
    sel = state.sel.tolist()
    comp = state.comp.tolist()
    n, n_comp = len(sel), len(comp)
    best_u = cur_u
    best = None  # the subset at best_u, once a move has improved on the start
    cur_trace, best_trace, accepted_trace = [], [], []
    for temperature in temperatures:
        accepted = 0
        for _ in range(swaps):
            i = rng.integers(0, n)
            j = rng.integers(0, n_comp)
            out_f, in_f = sel[i], comp[j]
            new_u, sums = chain.trial_swap(ratios[in_f], ratios[out_f], norms[in_f], norms[out_f])
            if new_u > cur_u or rng.random() < exp(-(cur_u - new_u) / temperature):
                chain.s1, chain.s2, chain.cp, chain.norm_sum = sums
                sel[i], comp[j] = in_f, out_f
                cur_u = new_u
                accepted += 1
                if cur_u > best_u:
                    best_u = cur_u
                    best = list(sel)
        cur_trace.append(cur_u)
        best_trace.append(best_u)
        accepted_trace.append(accepted)
    state.sel[:] = sel
    state.comp[:] = comp
    state.s1[:] = chain.s1
    state.s2[:] = chain.s2
    state.cp[:] = chain.cp
    state.norm_sum = chain.norm_sum
    if best is not None:
        best_sel[:] = best
    return cur_trace, best_trace, accepted_trace
