"""Inner loops for objective evaluation and annealing: the Python reference.

The swap move changes one feature, so the per-pair correlation sums can be
updated in O(pairs) instead of O(n * pairs). Everything here operates on the
running sums of a single annealing chain, a ``SubsetState``; the public API
lives in ``objective`` and ``annealer``. The pairs are those of nonzero
weight: ``ObjectiveContext.pair_data`` drops weight-0 pairs before
annealing, which leaves u unchanged and makes sparse weights cheaper.

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


def u1_from_sums(n, s1, s2, cp, pair):
    """Weighted mean absolute correlation from per-column and per-pair sums.

    s1/s2 are the arrays of per-column sums and sums of squares over the
    subset, cp the per-pair cross-product sums, in the order of ``pair``
    (``objective.PairData``: the columns iu, ju and weight w of each pair).
    """
    inv = 1.0 / n
    m = []
    v = []
    for a, b in zip(s1.tolist(), s2.tolist()):
        mean = a * inv
        mean_sq = b * inv
        var = mean_sq - mean * mean
        m.append(mean)
        v.append(0.0 if var <= REL_VAR_EPS * mean_sq else var)
    acc = 0.0
    for i, j, wp, c in zip(*pair.lists, cp.tolist()):
        dv = v[i] * v[j]
        if dv <= 0.0:
            continue
        r = (c * inv - m[i] * m[j]) / sqrt(dv)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
        acc += wp * abs(r)
    return acc / pair.count_positive


def trial_swap(state, in_f, out_f):
    """Objective of ``state`` (a ``SubsetState``) after swapping feature
    in_f in for feature out_f, without committing. The candidate sums are
    element-wise numpy operations in the C kernel's order, so they have its
    bits.

    Returns (new_u, (s1, s2, cp, norm_sum)): the candidate sums as new arrays.
    """
    context, iu, ju = state.context, state.pair.iu, state.pair.ju
    a, b = context.ratios[in_f], context.ratios[out_f]
    s1 = state.s1 + a - b
    s2 = state.s2 + a * a - b * b
    cp = state.cp + a[iu] * a[ju] - b[iu] * b[ju]
    norm_sum = state.norm_sum + float(context.norms[in_f]) - float(context.norms[out_f])
    u1 = u1_from_sums(state.n, s1, s2, cp, state.pair)
    u2 = norm_sum / (state.n * context.max_norm)
    return (1.0 - state.alpha) * u1 + state.alpha * u2, (s1, s2, cp, norm_sum)


def anneal_chain(state, best_sel, rng, temperatures, swaps, cur_u, cur_out, best_out, accepted_out):
    """Every temperature step of one chain of Metropolis swap moves.

    Runs ``swaps`` proposals at each temperature, starting from ``state``
    with objective ``cur_u``. Draw order per proposal: position into the
    subset, position into the complement, then one uniform draw only when
    the move does not improve. Updates ``state`` and ``best_sel`` in place.
    The outputs are owned by the caller and filled in place: after step k,
    ``cur_out[k]``, ``best_out[k]`` and ``accepted_out[k]`` hold the current
    u, the best u and the number of accepted proposals.
    """
    sel, comp = state.sel, state.comp
    n, n_comp = sel.size, comp.size
    best_u = cur_u
    for step, temperature in enumerate(temperatures):
        accepted = 0
        for _ in range(swaps):
            i = rng.integers(0, n)
            j = rng.integers(0, n_comp)
            out_f, in_f = sel[i], comp[j]
            new_u, sums = trial_swap(state, in_f, out_f)
            if new_u > cur_u or rng.random() < exp(-(cur_u - new_u) / temperature):
                state.s1, state.s2, state.cp, state.norm_sum = sums
                sel[i], comp[j] = in_f, out_f
                cur_u = new_u
                accepted += 1
                if cur_u > best_u:
                    best_u = cur_u
                    best_sel[:] = sel
        cur_out[step], best_out[step], accepted_out[step] = cur_u, best_u, accepted
