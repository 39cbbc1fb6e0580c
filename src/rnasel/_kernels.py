"""Inner loops for objective evaluation and annealing: the Python reference.

The swap move changes one feature, so the per-pair correlation sums can be
updated in O(pairs) instead of O(n * pairs). Everything here operates on the
raw sum arrays owned by a single annealing chain; the public API lives in
``objective`` and ``annealer``.

``anneal_batch`` has a C twin in ``_anneal.c`` (loaded by ``_ckernel``) that
the annealer runs when it can be built. The two use the same operation order,
libm's ``exp`` and ``sqrt`` (hence ``math.exp`` here, not numpy's SIMD
``np.exp``) and the same random stream, so they give the same bits; this
module is the reference the C kernel is tested against and the fallback when
no C compiler is available.
"""

from __future__ import annotations

import math

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


def u1_from_sums(n, s1, s2, cp, iu, ju, w, count_pos, m, v):
    """Weighted mean absolute correlation from per-column and per-pair sums.

    s1/s2 are per-column sums and sums of squares over the subset, cp the
    per-pair cross-product sums (pairs enumerated by iu/ju). m and v are
    scratch buffers of length G.
    """
    inv = 1.0 / n
    for g in range(s1.shape[0]):
        mean = s1[g] * inv
        m[g] = mean
        mean_sq = s2[g] * inv
        var = mean_sq - mean * mean
        if var <= REL_VAR_EPS * mean_sq:
            var = 0.0
        v[g] = var
    acc = 0.0
    for p in range(iu.shape[0]):
        wp = w[p]
        if wp == 0.0:
            continue
        i = iu[p]
        j = ju[p]
        dv = v[i] * v[j]
        if dv <= 0.0:
            continue
        r = (cp[p] * inv - m[i] * m[j]) / np.sqrt(dv)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
        acc += wp * abs(r)
    return acc / count_pos


def trial_swap(
    ratios,
    norms,
    max_norm,
    alpha,
    n,
    iu,
    ju,
    w,
    count_pos,
    s1,
    s2,
    cp,
    norm_sum,
    out_f,
    in_f,
    t_s1,
    t_s2,
    t_cp,
    m,
    v,
):
    """Objective after swapping out_f for in_f, without committing.

    Writes the candidate sums into t_s1/t_s2/t_cp and returns
    (new_u, new_norm_sum).
    """
    for g in range(s1.shape[0]):
        a = ratios[in_f, g]
        b = ratios[out_f, g]
        t_s1[g] = s1[g] + a - b
        t_s2[g] = s2[g] + a * a - b * b
    for p in range(iu.shape[0]):
        gi = iu[p]
        gj = ju[p]
        t_cp[p] = cp[p] + ratios[in_f, gi] * ratios[in_f, gj] - ratios[out_f, gi] * ratios[out_f, gj]
    new_norm_sum = norm_sum + norms[in_f] - norms[out_f]
    u1 = u1_from_sums(n, t_s1, t_s2, t_cp, iu, ju, w, count_pos, m, v)
    u2 = new_norm_sum / (n * max_norm)
    return (1.0 - alpha) * u1 + alpha * u2, new_norm_sum


def anneal_batch(
    rng,
    ratios,
    norms,
    max_norm,
    alpha,
    n,
    iu,
    ju,
    w,
    count_pos,
    sel,
    comp,
    s1,
    s2,
    cp,
    norm_sum,
    cur_u,
    temperature,
    n_swaps,
    best_u,
    best_sel,
    t_s1,
    t_s2,
    t_cp,
    m,
    v,
):
    """One temperature batch of Metropolis swap moves, in place.

    Draw order per proposal: position into the subset, position into the
    complement, then one uniform draw only when the move does not improve.
    Returns (norm_sum, cur_u, best_u, accepted_count).
    """
    n_comp = comp.shape[0]
    accepted = 0
    for _ in range(n_swaps):
        i = rng.integers(0, n)
        j = rng.integers(0, n_comp)
        out_f = sel[i]
        in_f = comp[j]
        new_u, new_norm_sum = trial_swap(
            ratios, norms, max_norm, alpha, n, iu, ju, w, count_pos,
            s1, s2, cp, norm_sum, out_f, in_f, t_s1, t_s2, t_cp, m, v,
        )
        if new_u > cur_u:
            take = True
        else:
            take = rng.random() < math.exp(-(cur_u - new_u) / temperature)
        if take:
            for g in range(s1.shape[0]):
                s1[g] = t_s1[g]
                s2[g] = t_s2[g]
            for p in range(cp.shape[0]):
                cp[p] = t_cp[p]
            norm_sum = new_norm_sum
            sel[i] = in_f
            comp[j] = out_f
            cur_u = new_u
            accepted += 1
            if cur_u > best_u:
                best_u = cur_u
                for q in range(n):
                    best_sel[q] = sel[q]
    return norm_sum, cur_u, best_u, accepted


def stepper(state, best_sel, cur_u, rng, swaps):
    """One temperature step of ``anneal_batch`` over a chain's ``SubsetState``.

    The returned ``step(temperature)`` updates ``state`` and ``best_sel`` in
    place and returns ``(cur_u, best_u, accepted)``.
    """
    context, pair = state.context, state.pair
    best_u = cur_u

    def step(temperature):
        nonlocal cur_u, best_u
        state.norm_sum, cur_u, best_u, accepted = anneal_batch(
            rng,
            context.ratios, context.norms, context.max_norm, state.alpha, state.n,
            pair.iu, pair.ju, pair.w, pair.count_positive,
            state.sel, state.comp, state.s1, state.s2, state.cp, state.norm_sum, cur_u,
            temperature, swaps, best_u, best_sel,
            state._t_s1, state._t_s2, state._t_cp, state._m, state._v,
        )
        return cur_u, best_u, accepted

    return step
