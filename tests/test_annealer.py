import math

import numpy as np
import pytest

from rnasel import _ckernel, _kernels, annealer
from rnasel.annealer import AnnealSchedule, AnnealTrace, chain_rng, run, _run_chain
from rnasel.errors import ParameterError
from rnasel.model import Selection
from rnasel.objective import ObjectiveContext, ObjectiveParams, SubsetState, eval_u, swap_delta

from conftest import all_ones_weights, random_context, trace_columns


def small_problem(seed=0, f=12, g=6, n=4, alpha=0.2):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, f, g)
    params = ObjectiveParams(alpha=alpha, n=n, weights=all_ones_weights(ctx))
    return ctx, params


def mirror_run(context, params, schedule, return_final=False, worsening_floor=1e-3):
    """Reference chain built from ``swap_delta`` and ``SubsetState.apply``,
    drawing the same rng stream as the compiled batch kernel. Also counts
    clearly-worsening acceptances at the final temperature."""
    rng = chain_rng(schedule.seed, 0)
    start = np.sort(rng.choice(context.n_features, size=params.n, replace=False))
    state = SubsetState.build(context, start, params)
    cur_u = state.current_u()
    best_u = cur_u
    best_idx = state.indices()
    rows = []
    final_worsening = 0
    last_step = schedule.num_steps - 1
    for step in range(schedule.num_steps):
        temperature = schedule.temperature(step)
        accepted = 0
        for _ in range(schedule.swaps_per_temperature):
            out_f = int(state.sel[rng.integers(0, params.n)])
            in_f = int(state.comp[rng.integers(0, state.comp.size)])
            new_u, pending = swap_delta(context, state, out_f, in_f, params)
            if new_u > cur_u or rng.random() < math.exp(-(cur_u - new_u) / temperature):
                state.apply(pending)
                if step == last_step and new_u < cur_u - worsening_floor:
                    final_worsening += 1
                cur_u = new_u
                accepted += 1
                if cur_u > best_u:
                    best_u = cur_u
                    best_idx = state.indices()
        rows.append((step, temperature, cur_u, best_u, accepted))
    reported = state.indices() if return_final else best_idx
    return reported, rows, final_worsening


def two_feature_state(norms, start):
    """F = 2, n = 1, alpha = 1: u is the chosen feature's norm over the larger
    one, and every proposal swaps the two features."""
    ctx = ObjectiveContext(np.random.default_rng(0).normal(size=(2, 3)), np.array(norms), ("t0", "t1", "t2"))
    params = ObjectiveParams(alpha=1.0, n=1, weights=all_ones_weights(ctx))
    return SubsetState.build(ctx, [start], params)


def reference_step(state, rng, swaps=1):
    """``step(temperature)``: a one-step chain of the Python reference kernel
    on ``state``, returning that step's (cur_u, best_u, accepted)."""
    best_sel = state.sel.copy()
    cur_u = state.current_u()

    def step(temperature):
        nonlocal cur_u
        columns = (np.empty(1), np.empty(1), np.empty(1, np.int64))
        _kernels.anneal_chain(state, best_sel, rng, [temperature], swaps, cur_u, *columns)
        cur_u = columns[0][0]
        return tuple(column[0] for column in columns)

    return step


def chain_start(monkeypatch, ctx, params, seed):
    """The subset chain 0 of a run seeded with ``seed`` starts from: run
    ``_run_chain`` with a kernel that never moves."""
    monkeypatch.setattr(_ckernel, "anneal_chain", lambda *args: None)
    monkeypatch.setattr(_kernels, "anneal_chain", lambda *args: None)
    schedule = AnnealSchedule(t_init=1.0, t_final=0.9, gamma=0.5, seed=seed)
    return _run_chain(ctx, params, schedule, 0, True).selection


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AnnealSchedule(t_init=1.0, t_final=2.0)
        with pytest.raises(ParameterError):
            AnnealSchedule(gamma=1.0)
        with pytest.raises(ParameterError):
            AnnealSchedule(swaps_per_temperature=0)
        with pytest.raises(ParameterError):
            AnnealSchedule(seed=-1)
        with pytest.raises(ParameterError):
            AnnealSchedule(t_init=math.inf)

    def test_num_steps_matches_formula(self):
        sched = AnnealSchedule(t_init=1.0, t_final=1e-4, gamma=0.95)
        expected = math.ceil(math.log(1e-4) / math.log(0.95))
        assert sched.num_steps == expected == 180

    def test_num_steps_counts_loop_iterations(self):
        sched = AnnealSchedule(t_init=1.0, t_final=1e-3, gamma=0.5)
        t, count = 1.0, 0
        while t >= sched.t_final:
            count += 1
            t = sched.temperature(count)
        assert sched.num_steps == count

    def test_at_least_one_step(self):
        assert AnnealSchedule(t_init=1.0, t_final=0.9999, gamma=0.5).num_steps == 1

    def test_temperature_column_is_built_once(self):
        sched = AnnealSchedule(t_init=0.7, t_final=1e-3, gamma=0.97)
        column = sched.temperatures
        assert column.tolist() == [sched.temperature(step) for step in range(sched.num_steps)]
        assert column.dtype == np.float64 and not column.flags.writeable
        assert sched.temperatures is column


class TestAccept:
    def test_improving_always(self):
        # from the 0.9-norm feature the only move improves u, even at T = 1e-9
        for seed in range(100):
            state = two_feature_state([1.0, 0.9], start=1)
            _, _, accepted = reference_step(state, np.random.default_rng(seed))(1e-9)
            assert accepted == 1 and list(state.sel) == [0]

    def test_equal_always(self):
        state = two_feature_state([1.0, 1.0], start=0)
        _, _, accepted = reference_step(state, np.random.default_rng(0), swaps=100)(0.5)
        assert accepted == 100

    def test_worsening_frequency(self):
        # from feature 0 the only move drops u from 1.0 to 0.9, accepted at
        # T = 1 with probability exp(-0.1); from feature 1 it always returns
        state = two_feature_state([1.0, 0.9], start=0)
        step = reference_step(state, np.random.default_rng(123))
        trials = hits = 0
        while trials < 20_000:
            worsening = state.sel[0] == 0
            _, _, accepted = step(1.0)
            if worsening:
                trials += 1
                hits += accepted
        p = math.exp(-(1.0 - 0.9))
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) < 5 * sigma

    def test_temperature_must_be_positive(self):
        for t_final in (0.0, -0.5):
            with pytest.raises(ParameterError):
                AnnealSchedule(t_init=1.0, t_final=t_final)


class TestInitialState:
    def test_full_set_when_n_equals_f(self, monkeypatch):
        ctx, _ = small_problem(f=6, n=6)
        params = ObjectiveParams(alpha=0.2, n=6, weights=all_ones_weights(ctx))
        sel = chain_start(monkeypatch, ctx, params, 0)
        assert sel.indices == tuple(range(6))

    def test_seed_determinism(self, monkeypatch):
        ctx, params = small_problem()
        a = chain_start(monkeypatch, ctx, params, 99)
        b = chain_start(monkeypatch, ctx, params, 99)
        assert a == b

    def test_uniform_membership(self, monkeypatch):
        ctx, _ = small_problem(f=10, g=4)
        params = ObjectiveParams(alpha=0.0, n=3, weights=all_ones_weights(ctx))
        counts = np.zeros(10)
        draws = 10_000
        for seed in range(draws):
            sel = chain_start(monkeypatch, ctx, params, seed)
            counts[list(sel.indices)] += 1
        # each feature present with probability n/F = 0.3
        sigma = math.sqrt(draws * 0.3 * 0.7)
        assert np.all(np.abs(counts - draws * 0.3) < 5 * sigma)

    def test_n_too_large(self):
        ctx, _ = small_problem()
        params = ObjectiveParams(alpha=0.2, n=ctx.n_features + 1, weights=all_ones_weights(ctx))
        with pytest.raises(ParameterError):
            run(ctx, params, AnnealSchedule())


class TestProposeSwap:
    def test_single_possible_swap(self):
        state = two_feature_state([1.0, 1.0], start=0)
        step = reference_step(state, np.random.default_rng(0))
        for k in range(1, 21):
            _, _, accepted = step(0.5)
            assert accepted == 1 and list(state.sel) == [k % 2] and list(state.comp) == [1 - k % 2]

    def test_seed_reproducible(self):
        ctx, params = small_problem()
        states = [SubsetState.build(ctx, [0, 1, 2, 3], params) for _ in range(2)]
        for state in states:
            reference_step(state, np.random.default_rng(5))(1e9)
        assert list(states[0].sel) == list(states[1].sel)
        assert list(states[0].comp) == list(states[1].comp)

    def test_uniform_over_pairs(self):
        # equal norms and alpha = 1 accept every move, so each step shows
        # which (subset, complement) positions it swapped
        ctx = ObjectiveContext(np.random.default_rng(0).normal(size=(4, 3)), np.ones(4), ("t0", "t1", "t2"))
        params = ObjectiveParams(alpha=1.0, n=2, weights=all_ones_weights(ctx))
        state = SubsetState.build(ctx, [0, 1], params)
        step = reference_step(state, np.random.default_rng(11))
        counts = {}
        draws = 10_000
        for _ in range(draws):
            sel, comp = state.sel.copy(), state.comp.copy()
            step(0.5)
            pair = (int(np.flatnonzero(sel != state.sel)[0]), int(np.flatnonzero(comp != state.comp)[0]))
            counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        sigma = math.sqrt(draws * 0.25 * 0.75)
        for pair, count in counts.items():
            assert abs(count - draws * 0.25) < 5 * sigma

    def test_full_subset_rejected(self, monkeypatch):
        # a full subset has no complement, so no kernel is ever asked to swap
        def no_kernel(*args):
            raise AssertionError("swap kernel called on a full subset")

        monkeypatch.setattr(_ckernel, "anneal_chain", no_kernel)
        monkeypatch.setattr(_kernels, "anneal_chain", no_kernel)
        ctx, _ = small_problem(f=4, g=3)
        params = ObjectiveParams(alpha=0.2, n=4, weights=all_ones_weights(ctx))
        trace = _run_chain(ctx, params, AnnealSchedule(), 0, False)
        assert trace.selection.indices == (0, 1, 2, 3)
        assert all(count == 0 for count in trace.accepted_count)


class TestRun:
    def test_n_equals_f_returns_initial_state(self):
        ctx, _ = small_problem(f=5, g=4)
        params = ObjectiveParams(alpha=0.2, n=5, weights=all_ones_weights(ctx))
        schedule = AnnealSchedule(t_init=1.0, t_final=0.5, gamma=0.5, seed=3)
        best, trace = run(ctx, params, schedule)
        assert best.indices == tuple(range(5))
        assert all(count == 0 for count in trace.accepted_count)
        for column in (trace.temperature, trace.current_u, trace.best_u, trace.accepted_count):
            assert len(column) == schedule.num_steps == 2
            assert not column.flags.writeable

    def test_determinism_bit_identical(self):
        ctx, params = small_problem(seed=1)
        schedule = AnnealSchedule(t_init=1.0, t_final=1e-2, gamma=0.9, swaps_per_temperature=20, seed=42)
        best_a, trace_a = run(ctx, params, schedule)
        best_b, trace_b = run(ctx, params, schedule)
        assert best_a == best_b
        assert trace_columns(trace_a) == trace_columns(trace_b)

    def test_matches_public_op_mirror(self):
        # the compiled batch loop and swap_delta/SubsetState.apply must
        # produce the same trajectory from the same generator stream
        ctx, params = small_problem(seed=2)
        schedule = AnnealSchedule(t_init=1.0, t_final=1e-2, gamma=0.85, swaps_per_temperature=25, seed=7)
        best, trace = run(ctx, params, schedule)
        mirror_idx, mirror_rows, _ = mirror_run(ctx, params, schedule)
        assert best.indices == mirror_idx
        assert len(trace.temperature) == len(mirror_rows)
        for step, row in enumerate(zip(*trace_columns(trace))):
            assert (step, *row) == mirror_rows[step]

    def test_return_final_matches_mirror(self):
        ctx, params = small_problem(seed=3)
        schedule = AnnealSchedule(t_init=1.0, t_final=0.05, gamma=0.8, swaps_per_temperature=10, seed=9)
        best, _ = run(ctx, params, schedule, return_final=True)
        mirror_idx, _, _ = mirror_run(ctx, params, schedule, return_final=True)
        assert best.indices == mirror_idx

    def test_best_u_non_decreasing_and_final_reported(self):
        ctx, params = small_problem(seed=4)
        schedule = AnnealSchedule(t_init=1.0, t_final=1e-3, gamma=0.9, swaps_per_temperature=10, seed=13)
        best, trace = run(ctx, params, schedule)
        bests = trace.best_u.tolist()
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert best.objective == pytest.approx(bests[-1], abs=1e-9)
        assert bests[-1] >= trace.current_u[0] - 1e-12

    def test_selection_objective_is_fresh_recomputation(self):
        ctx, params = small_problem(seed=5)
        schedule = AnnealSchedule(t_init=1.0, t_final=1e-2, gamma=0.9, swaps_per_temperature=15, seed=21)
        best, _ = run(ctx, params, schedule)
        u, u1, u2 = eval_u(ctx, best.indices, params)
        assert best.objective == u and best.u1 == u1 and best.u2 == u2
        assert best.objective == pytest.approx((1 - params.alpha) * u1 + params.alpha * u2, abs=1e-12)

    def test_running_sums_match_final_subset(self):
        ctx, params = small_problem(seed=6)
        schedule = AnnealSchedule(t_init=1.0, t_final=1e-3, gamma=0.9, swaps_per_temperature=30, seed=2)
        mirror_idx, rows, _ = mirror_run(ctx, params, schedule, return_final=True)
        u, _, _ = eval_u(ctx, mirror_idx, params)
        assert rows[-1][2] == pytest.approx(u, abs=1e-7)

    def test_hill_climbing_at_final_temperature(self):
        # by the final temperature the chain must accept no clearly-worsening
        # move: exp(-1e-3 / 1e-6) underflows to 0
        ctx, params = small_problem(seed=8)
        total = 0
        for seed in range(100):
            schedule = AnnealSchedule(
                t_init=0.5, t_final=1e-6, gamma=0.6, swaps_per_temperature=8, seed=seed
            )
            _, _, worsening = mirror_run(ctx, params, schedule, worsening_floor=1e-3)
            total += worsening
        assert total == 0

    def test_restart_semantics(self):
        ctx, params = small_problem(seed=9)
        schedule = AnnealSchedule(t_init=1.0, t_final=0.05, gamma=0.8, swaps_per_temperature=10,
                                  seed=31, restarts=4)
        best, trace = run(ctx, params, schedule)
        singles = [_run_chain(ctx, params, schedule, chain, False) for chain in range(4)]
        expected = max(singles, key=lambda single: single.selection.objective)
        assert best.objective == expected.selection.objective
        assert best.indices == expected.selection.indices
        assert best is trace.selection and trace.selection == expected.selection
        assert trace.chain == expected.chain and 0 <= trace.chain < 4
        assert trace_columns(trace) == trace_columns(expected)

    @pytest.mark.parametrize("library", [True, False], ids=["C", "Python"])
    @pytest.mark.parametrize("n", [5, 2], ids=["full", "partial"])
    def test_restart_tie_goes_to_the_first_chain(self, monkeypatch, library, n):
        # alpha = 1 and equal norms give every subset u = 1, so the three chains
        # tie: with n = F each keeps the full set, with n < F its own start
        if not library:
            monkeypatch.setattr(_ckernel, "load", lambda: None)
        elif _ckernel.load() is None:
            pytest.skip("no C library")
        ctx = ObjectiveContext(np.random.default_rng(0).normal(size=(5, 4)), np.ones(5), ("t0", "t1", "t2", "t3"))
        params = ObjectiveParams(alpha=1.0, n=n, weights=all_ones_weights(ctx))
        schedule = AnnealSchedule(t_init=1.0, t_final=0.1, gamma=0.5, seed=8, restarts=3)
        best, trace = run(ctx, params, schedule)
        assert trace.chain == 0
        assert best == _run_chain(ctx, params, schedule, 0, False).selection
        if n == 5:
            assert best.indices == tuple(range(5))

    def test_trace_csv_round_trip(self, tmp_path):
        ctx, params = small_problem(seed=10)
        schedule = AnnealSchedule(t_init=1.0, t_final=0.1, gamma=0.7, swaps_per_temperature=5, seed=17)
        _, trace = run(ctx, params, schedule)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,temperature,current_u,best_u,accepted_count"
        assert len(lines) == 1 + len(trace.temperature)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == trace.temperature[0]
        assert float(first[2]) == trace.current_u[0]

    def test_trace_csv_exact_text(self, tmp_path):
        # each float is written as repr of a Python float: 0.1 and 1e-320 read
        # differently under %.17g, and 1.0 under repr of a numpy scalar
        trace = AnnealTrace(
            temperature=np.array([1.0, 0.1 + 0.2]),
            current_u=np.array([0.1, 1e-320]),
            best_u=np.array([1e-320, 1 / 3]),
            accepted_count=np.array([0, 7]),
            selection=Selection((0,), 0.5, 0.5, 0.5),
            seed=3,
            chain=0,
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text(encoding="utf-8") == (
            "step,temperature,current_u,best_u,accepted_count\n"
            "0,1.0,0.1,1e-320,0\n"
            "1,0.30000000000000004,1e-320,0.3333333333333333,7\n"
        )

    @pytest.mark.parametrize("library", [True, False], ids=["C", "Python"])
    def test_trace_csv_interrupted_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, library):
        if not library:
            monkeypatch.setattr(_ckernel, "load", lambda: None)
        elif _ckernel.load() is None:
            pytest.skip("no C library")
        rng = np.random.default_rng(5)
        traces = [
            AnnealTrace(
                temperature=rng.random(2500), current_u=rng.random(2500), best_u=rng.random(2500),
                accepted_count=rng.integers(0, 50, 2500), selection=Selection((0,), 0.5, 0.5, 0.5), seed=3, chain=0,
            )
            for _ in range(2)
        ]
        path = tmp_path / "trace.csv"
        traces[0].to_csv(path)
        before = path.read_bytes()
        csv_blocks = annealer._csv_blocks

        def first_block_then_kill(*columns):
            yield next(csv_blocks(*columns))  # the first thousand rows are written
            raise KeyboardInterrupt

        monkeypatch.setattr(annealer, "_csv_blocks", first_block_then_kill)
        with pytest.raises(KeyboardInterrupt):
            traces[1].to_csv(path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_trace_csv_long_traces_that_share_a_schedule(self, tmp_path):
        # rows are written a thousand at a time, and traces may share a
        # temperature column; neither may change a byte
        rng = np.random.default_rng(4)
        steps = 2500
        shared = 0.999 ** np.arange(steps)
        for temperature in (shared, shared.copy(), shared[: steps - 1], rng.random(steps)):
            n = len(temperature)
            trace = AnnealTrace(
                temperature=temperature, current_u=rng.random(n), best_u=rng.random(n),
                accepted_count=rng.integers(0, 50, n), selection=Selection((0,), 0.5, 0.5, 0.5), seed=3, chain=0,
            )
            path = tmp_path / "trace.csv"
            trace.to_csv(path)
            rows = zip(*(c.tolist() for c in (temperature, trace.current_u, trace.best_u, trace.accepted_count)))
            assert path.read_text(encoding="utf-8") == "step,temperature,current_u,best_u,accepted_count\n" + "".join(
                f"{k},{t!r},{cur!r},{best!r},{acc}\n" for k, (t, cur, best, acc) in enumerate(rows)
            )
