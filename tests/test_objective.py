import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rnasel import _ckernel, _kernels
from rnasel.annealer import AnnealSchedule, run
from rnasel.errors import ParameterError, ValidationError
from rnasel.model import PairWeights
from rnasel.objective import (
    DegeneratePairWarning,
    ObjectiveContext,
    ObjectiveParams,
    PairData,
    SubsetState,
    eval_u,
    eval_u1,
    eval_u2,
    pearson,
    pearson_abs,
    swap_delta,
)

from conftest import all_ones_weights, random_context, trace_columns


class TestPearsonAbs:
    def test_self_correlation_exact(self):
        assert pearson_abs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_anticorrelation_exact(self):
        assert pearson_abs([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 1.0

    def test_hand_computed_point_eight(self):
        # means 2.5, population cov 1.0, sds sqrt(1.25): r = 0.8
        assert pearson_abs([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8, abs=1e-12)

    def test_signed_value(self):
        assert pearson([1.0, 2.0, 3.0, 4.0], [4.0, 2.0, 3.0, 1.0]) == pytest.approx(-0.8, abs=1e-12)

    def test_zero_variance_flags_degenerate(self):
        with pytest.warns(DegeneratePairWarning):
            assert pearson_abs([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson_abs([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_snap_unit_scalar_and_array(self):
        eps = np.finfo(np.float64).eps
        values = [1.0 - 4 * eps, -1.0 + 4 * eps, 1.0 - 64 * eps, 0.5, -0.25, 1.0, -1.0]
        want = [1.0, -1.0, 1.0 - 64 * eps, 0.5, -0.25, 1.0, -1.0]
        assert [float(_kernels.snap_unit(v)) for v in values] == want
        assert _kernels.snap_unit(np.array(values)).tolist() == want

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=10),
        st.floats(-50, 50),
        st.floats(0.1, 20),
    )
    @settings(max_examples=60)
    def test_shift_scale_invariance(self, xs, shift, scale):
        assume(max(xs) - min(xs) > 1e-6)
        rng = np.random.default_rng(0)
        ys = rng.normal(size=len(xs))
        x = np.asarray(xs)
        base = pearson_abs(x, ys)
        moved = pearson_abs(x * scale + shift, ys)
        assert moved == pytest.approx(base, abs=1e-9)


def worked_context() -> ObjectiveContext:
    # treated columns over the 4-feature subset: B tracks A exactly,
    # C correlates with A at 0.8, the fifth feature carries the max norm
    ratios = np.array(
        [
            [1.0, 2.0, 1.0],
            [2.0, 4.0, 3.0],
            [3.0, 6.0, 2.0],
            [4.0, 8.0, 4.0],
            [0.0, 5.0, 9.0],
        ]
    )
    norms = np.array([5.0, 3.0, 6.0, 2.0, 10.0])
    return ObjectiveContext(ratios, norms, ("A", "B", "C"))


def worked_weights() -> PairWeights:
    return PairWeights({("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 0})


class TestEvalU1:
    def test_identical_columns_score_one(self):
        ratios = np.tile(np.array([[1.0], [2.0], [4.0]]), (1, 4))
        ctx = ObjectiveContext(ratios, np.ones(3), ("a", "b", "c", "d"))
        u1 = eval_u1(ctx, [0, 1, 2], all_ones_weights(ctx))
        assert u1 == pytest.approx(1.0, abs=1e-12)

    def test_single_positive_pair_isolates_it(self):
        ctx = worked_context()
        w = PairWeights({("A", "B"): 0, ("A", "C"): 1, ("B", "C"): 0})
        assert eval_u1(ctx, [0, 1, 2, 3], w) == pytest.approx(0.8, abs=1e-12)

    def test_weighted_pair_sum(self):
        # |corr(A,B)| = 1 and |corr(A,C)| = 0.8 with weights AB=1, AC=1, BC=0
        ctx = worked_context()
        assert eval_u1(ctx, [0, 1, 2, 3], worked_weights()) == pytest.approx(0.9, abs=1e-12)

    def test_matches_pairwise_pearson(self):
        rng = np.random.default_rng(21)
        ctx = random_context(rng, 30, 6)
        idx = rng.choice(30, size=8, replace=False)
        w = all_ones_weights(ctx)
        sub = ctx.ratios[idx]
        expected = 0.0
        pairs = 0
        for a in range(6):
            for b in range(a + 1, 6):
                expected += pearson_abs(sub[:, a], sub[:, b])
                pairs += 1
        assert eval_u1(ctx, idx, w) == pytest.approx(expected / pairs, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(33)
        ctx = random_context(rng, 20, 5)
        w = all_ones_weights(ctx)
        idx = [3, 7, 11, 15]
        assert eval_u1(ctx, idx, w) == eval_u1(ctx, [15, 3, 11, 7], w)

    def test_column_shift_and_scale_invariance(self):
        rng = np.random.default_rng(34)
        ratios = rng.normal(size=(20, 4))
        norms = np.abs(rng.normal(size=20)) + 0.1
        ctx = ObjectiveContext(ratios, norms, ("a", "b", "c", "d"))
        moved = ratios.copy()
        moved[:, 1] = moved[:, 1] * -3.5 + 2.0
        ctx2 = ObjectiveContext(moved, norms, ("a", "b", "c", "d"))
        w = all_ones_weights(ctx)
        idx = [0, 4, 9, 13, 17]
        assert eval_u1(ctx2, idx, w) == pytest.approx(eval_u1(ctx, idx, w), abs=1e-12)

    def test_negative_weights_can_go_negative_but_not_above_one(self):
        rng = np.random.default_rng(35)
        ctx = random_context(rng, 15, 5)
        choices = np.array([-1, 0, 1])
        for trial in range(50):
            ids = ctx.treated_ids
            entries = []
            for a in range(5):
                for b in range(a + 1, 5):
                    entries.append((ids[a], ids[b], int(choices[rng.integers(3)])))
            if not any(w == 1 for _, _, w in entries):
                entries[0] = (entries[0][0], entries[0][1], 1)
            weights = PairWeights.from_entries(ids, entries, default=0)
            u1 = eval_u1(ctx, rng.choice(15, size=5, replace=False), weights)
            assert u1 <= 1.0 + 1e-12

    def test_no_positive_pair_rejected(self):
        ctx = worked_context()
        w = PairWeights({("A", "B"): 0, ("A", "C"): -1, ("B", "C"): 0})
        with pytest.raises(ParameterError):
            eval_u1(ctx, [0, 1], w)

    def test_negative_weight_on_correlated_pair_goes_negative(self):
        # B tracks A perfectly (weight -1), C is near-orthogonal (weight 1),
        # so the subtracted term dominates and u1 drops below zero
        ctx = worked_context()
        w = PairWeights({("A", "B"): -1, ("A", "C"): 1, ("B", "C"): 0})
        u1 = eval_u1(ctx, [0, 1, 2, 3], w)
        assert u1 == pytest.approx(0.8 - 1.0, abs=1e-12)
        assert u1 < 0.0


class TestEvalU2:
    def test_single_max_norm_feature(self):
        ctx = worked_context()
        assert eval_u2(ctx, [4]) == 1.0

    def test_zero_norm_subset(self):
        ctx = ObjectiveContext(np.zeros((3, 2)), np.array([0.0, 0.0, 4.0]), ("a", "b"))
        assert eval_u2(ctx, [0, 1]) == 0.0

    def test_hand_mean(self):
        # norms 5 and 3 against max norm 10: (0.5 + 0.3) / 2 = 0.4
        ctx = worked_context()
        assert eval_u2(ctx, [0, 1]) == pytest.approx(0.4, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(40)
        ctx = random_context(rng, 50, 4)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            u2 = eval_u2(ctx, rng.choice(50, size=n, replace=False))
            assert 0.0 <= u2 <= 1.0


class TestEvalU:
    def test_alpha_zero_is_u1(self):
        ctx = worked_context()
        params = ObjectiveParams(alpha=0.0, n=4, weights=worked_weights())
        u, u1, u2 = eval_u(ctx, [0, 1, 2, 3], params)
        assert u == u1

    def test_alpha_one_is_u2(self):
        ctx = worked_context()
        params = ObjectiveParams(alpha=1.0, n=4, weights=worked_weights())
        u, u1, u2 = eval_u(ctx, [0, 1, 2, 3], params)
        assert u == u2

    def test_blend_hand_value(self):
        # u1 = 0.9 over the 4-feature subset, u2 = (0.5+0.3+0.6+0.2)/4 = 0.4,
        # so 0.8 * 0.9 + 0.2 * 0.4 = 0.80
        ctx = worked_context()
        params = ObjectiveParams(alpha=0.2, n=4, weights=worked_weights())
        u, u1, u2 = eval_u(ctx, [0, 1, 2, 3], params)
        assert u1 == pytest.approx(0.9, abs=1e-12)
        assert u2 == pytest.approx(0.4, abs=1e-12)
        assert u == pytest.approx(0.80, abs=1e-12)

    def test_alpha_zero_ignores_norms(self):
        rng = np.random.default_rng(41)
        ratios = rng.normal(size=(25, 4))
        norms = np.abs(rng.normal(size=25)) + 0.1
        ids = ("a", "b", "c", "d")
        ctx1 = ObjectiveContext(ratios, norms, ids)
        ctx2 = ObjectiveContext(ratios, rng.permutation(norms), ids)
        w = all_ones_weights(ctx1)
        params = ObjectiveParams(alpha=0.0, n=6, weights=w)
        idx = rng.choice(25, size=6, replace=False)
        assert eval_u(ctx1, idx, params)[0] == eval_u(ctx2, idx, params)[0]

    def test_bounds_with_01_weights(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            ctx = random_context(rng, int(rng.integers(6, 40)), int(rng.integers(2, 7)))
            w = all_ones_weights(ctx)
            n = int(rng.integers(1, ctx.n_features))
            params = ObjectiveParams(alpha=float(rng.random()), n=n, weights=w)
            u, u1, u2 = eval_u(ctx, rng.choice(ctx.n_features, size=n, replace=False), params)
            assert -1e-12 <= u <= 1.0 + 1e-12
            assert -1e-12 <= u1 <= 1.0 + 1e-12
            assert -1e-12 <= u2 <= 1.0 + 1e-12

    def test_size_mismatch(self):
        ctx = worked_context()
        params = ObjectiveParams(alpha=0.2, n=3, weights=worked_weights())
        with pytest.raises(ParameterError):
            eval_u(ctx, [0, 1], params)


class TestObjectiveParams:
    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            ObjectiveParams(alpha=1.5, n=3, weights=PairWeights({("a", "b"): 1}))

    def test_positive_n(self):
        with pytest.raises(ParameterError):
            ObjectiveParams(alpha=0.5, n=0, weights=PairWeights({("a", "b"): 1}))

    def test_needs_positive_pair(self):
        with pytest.raises(ParameterError):
            ObjectiveParams(alpha=0.5, n=3, weights=PairWeights({("a", "b"): 0}))


class TestSwapDelta:
    def _setup(self, seed=50, f=40, g=5, n=8, alpha=0.3):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, f, g)
        params = ObjectiveParams(alpha=alpha, n=n, weights=all_ones_weights(ctx))
        idx = np.sort(rng.choice(f, size=n, replace=False))
        state = SubsetState.build(ctx, idx, params)
        return rng, ctx, params, state

    def test_matches_from_scratch(self):
        rng, ctx, params, state = self._setup()
        for _ in range(300):
            out_f = int(state.sel[rng.integers(state.sel.size)])
            in_f = int(state.comp[rng.integers(state.comp.size)])
            new_u, pending = swap_delta(ctx, state, out_f, in_f, params)
            idx = sorted(set(state.indices()) - {out_f} | {in_f})
            expected, _, _ = eval_u(ctx, idx, params)
            assert new_u == pytest.approx(expected, abs=1e-9)
            if rng.random() < 0.5:
                state.apply(pending)

    def test_swap_out_and_back_is_involution(self):
        rng, ctx, params, state = self._setup(seed=51)
        u0 = state.current_u()
        out_f = int(state.sel[0])
        in_f = int(state.comp[0])
        _, pending = swap_delta(ctx, state, out_f, in_f, params)
        state.apply(pending)
        back_u, pending2 = swap_delta(ctx, state, in_f, out_f, params)
        state.apply(pending2)
        assert back_u == pytest.approx(u0, abs=1e-9)
        assert state.current_u() == pytest.approx(u0, abs=1e-9)

    def test_duplicate_row_swap_matches_degenerate_eval(self):
        # C's ratio row duplicates A's: the {A, C} subset makes every sample
        # profile constant, so every pair correlation is 0 on both paths
        ratios = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        ctx = ObjectiveContext(ratios, np.array([1.0, 2.0, 3.0, 4.0]), ("x", "y", "z"))
        params = ObjectiveParams(alpha=0.0, n=2, weights=all_ones_weights(ctx))
        state = SubsetState.build(ctx, [0, 1], params)
        new_u, pending = swap_delta(ctx, state, 1, 2, params)
        expected, u1, _ = eval_u(ctx, [0, 2], params)
        assert u1 == 0.0
        assert new_u == pytest.approx(expected, abs=1e-12)

    def test_thousand_swap_drift_below_1e7(self):
        rng, ctx, params, state = self._setup(seed=52, f=120, n=25)
        for _ in range(1000):
            out_f = int(state.sel[rng.integers(state.sel.size)])
            in_f = int(state.comp[rng.integers(state.comp.size)])
            _, pending = swap_delta(ctx, state, out_f, in_f, params)
            state.apply(pending)
        expected, _, _ = eval_u(ctx, state.indices(), params)
        assert state.current_u() == pytest.approx(expected, abs=1e-7)

    def test_preconditions(self):
        _, ctx, params, state = self._setup(seed=53)
        inside = int(state.sel[0])
        outside = int(state.comp[0])
        with pytest.raises(ParameterError):
            swap_delta(ctx, state, outside, outside, params)  # out not in subset
        with pytest.raises(ParameterError):
            swap_delta(ctx, state, inside, inside, params)  # in already present

    def test_params_must_be_those_of_the_state(self):
        # a swap is scored with the state's blend weight and size
        _, ctx, params, state = self._setup(seed=53)
        inside, outside = int(state.sel[0]), int(state.comp[0])
        for other in (ObjectiveParams(alpha=0.5, n=params.n, weights=params.weights),
                      ObjectiveParams(alpha=params.alpha, n=params.n + 1, weights=params.weights)):
            with pytest.raises(ParameterError, match="params differ"):
                swap_delta(ctx, state, inside, outside, other)

    @pytest.mark.skipif(_ckernel.find_compiler() is None, reason="no C compiler for the swap kernel")
    def test_pure_python_kernel_fallback_matches_compiled(self, monkeypatch):
        # the C kernel against the Python reference it stands in for: whole
        # runs must agree bit for bit in the selection, every trace row and
        # the chosen chain
        assert _ckernel.load() is not None, "C kernel did not build or load"
        rng = np.random.default_rng(55)
        f = 9
        ctx = random_context(rng, f, 5)
        ids = ctx.treated_ids
        signed = PairWeights.from_entries(
            ids, [(ids[0], ids[1], -1), (ids[0], ids[2], 0), (ids[3], ids[4], -1)], default=1
        )
        cases = [
            (ctx, ObjectiveParams(alpha=0.3, n=n, weights=weights), AnnealSchedule(
                t_init=1.0, t_final=1e-3, gamma=0.9, swaps_per_temperature=swaps, seed=n, restarts=3
            ))
            for n in (1, 4, f - 1, f)
            for weights, swaps in ((signed, 1), (all_ones_weights(ctx), 7))
        ]
        # the CLI default schedule: 9,206 steps of one proposal each, G = 16
        wide = random_context(rng, 300, 16)
        schedule = AnnealSchedule(seed=8)
        assert schedule.num_steps == 9206 and schedule.swaps_per_temperature == 1
        cases.append((wide, ObjectiveParams(alpha=0.2, n=12, weights=all_ones_weights(wide)), schedule))
        for context, params, schedule in cases:
            compiled, compiled_trace = run(context, params, schedule)
            with monkeypatch.context() as patch:
                patch.setattr(_ckernel, "load", lambda: None)
                reference, reference_trace = run(context, params, schedule)
            assert compiled == reference
            assert trace_columns(compiled_trace) == trace_columns(reference_trace)
            assert compiled_trace.chain == reference_trace.chain

    def test_running_sums_match_rebuild(self):
        rng, ctx, params, state = self._setup(seed=54)
        for _ in range(200):
            out_f = int(state.sel[rng.integers(state.sel.size)])
            in_f = int(state.comp[rng.integers(state.comp.size)])
            _, pending = swap_delta(ctx, state, out_f, in_f, params)
            state.apply(pending)
        rebuilt = SubsetState.build(ctx, state.indices(), params)
        np.testing.assert_allclose(state.s1, rebuilt.s1, atol=1e-9)
        np.testing.assert_allclose(state.s2, rebuilt.s2, atol=1e-9)
        np.testing.assert_allclose(state.cp, rebuilt.cp, atol=1e-9)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_weight_zero_pairs_change_nothing(monkeypatch, backend):
    # sparse weights: 1 on the replicate pairs (t0, t1), (t2, t3), ..., one
    # -1, 0 on every other pair
    g = 8
    ctx = random_context(np.random.default_rng(14), 40, g)
    ids = ctx.treated_ids
    entries = [(ids[k], ids[k + 1], 1) for k in range(0, g, 2)] + [(ids[0], ids[g - 1], -1)]
    weights = PairWeights.from_entries(ids, entries, default=0)
    iu, ju = np.triu_indices(g, 1)
    w = np.array([float(weights.get(ids[i], ids[j])) for i, j in zip(iu, ju)])
    everything = PairData(iu.astype(np.int64), ju.astype(np.int64), w, 4.0)

    pair = ctx.pair_data(weights)
    assert 0.0 not in pair.w.tolist()
    assert pair.count_positive == everything.count_positive
    keep = w != 0.0
    assert (pair.iu.tolist(), pair.ju.tolist(), pair.w.tolist()) == (
        iu[keep].tolist(), ju[keep].tolist(), w[keep].tolist()
    )
    assert len(pair.w) == 5 < len(w)

    if backend == "python":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
    else:
        assert _ckernel.load() is not None, "C kernel did not build or load"
    params = ObjectiveParams(alpha=0.3, n=6, weights=weights)
    schedule = AnnealSchedule(t_init=1.0, t_final=1e-3, gamma=0.95, swaps_per_temperature=5, seed=3, restarts=2)
    dropped, dropped_trace = run(ctx, params, schedule)
    monkeypatch.setattr(ObjectiveContext, "pair_data", lambda self, weights: everything)
    kept, kept_trace = run(ctx, params, schedule)
    assert dropped.indices == kept.indices
    for a, b in [
        ([dropped.objective, dropped.u1, dropped.u2], [kept.objective, kept.u1, kept.u2]),
        (dropped_trace.temperature, kept_trace.temperature),
        (dropped_trace.current_u, kept_trace.current_u),
        (dropped_trace.best_u, kept_trace.best_u),
        (dropped_trace.accepted_count, kept_trace.accepted_count),
    ]:
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert dropped_trace.chain == kept_trace.chain
