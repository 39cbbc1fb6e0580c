"""Simulated annealing over fixed-size feature subsets.

One chain starts from a uniformly random subset, proposes single-feature
swaps with the complement, accepts improving moves outright and worsening
moves with probability exp(-|dU|/T), and cools T by a factor gamma after
each batch of proposals. The loop runs while T >= t_final and the reported
result is the best subset ever visited (a flag restores return-the-final
behaviour).

Reproducibility: chain c of a run seeded with s draws from
``numpy.random.default_rng(SeedSequence(entropy=s, spawn_key=(c,)))``
(PCG64). Restarts are independent chains merged by best objective value,
ties going to the lowest chain index. Per proposal a chain draws the position
into the subset, then the position into the complement, then one uniform only
when the move does not improve.

Each chain gives one ``AnnealTrace``, whose columns one call of the C kernel
(``_ckernel``) fills in place when it can be built, else the Python reference
(``_kernels.anneal_chain``, with a warning). Both read the chain's generator
in that order and give the same bits, so the backend never changes a
selection or a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _ckernel, _kernels
from .errors import ParameterError
from .ingest import replacing
from .model import Selection
from .objective import ObjectiveContext, ObjectiveParams, SubsetState, eval_u

_MAX_SEED = 2**64


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule and chain bookkeeping for one optimization."""

    t_init: float = 1.0
    t_final: float = 1e-4
    gamma: float = 0.999
    swaps_per_temperature: int = 1
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if not (0.0 < self.t_final < self.t_init < math.inf):
            raise ParameterError(
                f"need 0 < t_final < t_init < inf, got t_final={self.t_final}, t_init={self.t_init}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must be in (0, 1), got {self.gamma}")
        if not isinstance(self.swaps_per_temperature, int) or self.swaps_per_temperature < 1:
            raise ParameterError("swaps_per_temperature must be a positive integer")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ParameterError("restarts must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ParameterError("seed must be an unsigned 64-bit integer")

    @property
    def num_steps(self) -> int:
        """Number of temperature steps: ceil(ln(t_final/t_init)/ln(gamma))."""
        est = math.ceil(math.log(self.t_final / self.t_init) / math.log(self.gamma))
        k = max(est, 1)
        # settle floating-point boundary cases against the loop condition
        while self.temperature(k) >= self.t_final:
            k += 1
        while k > 1 and self.temperature(k - 1) < self.t_final:
            k -= 1
        return k

    def temperature(self, step: int) -> float:
        return self.t_init * self.gamma**step

    @cached_property
    def temperatures(self) -> np.ndarray:
        """``temperature(step)`` of every step as a read-only float64 column,
        built once per schedule and shared by its restarts."""
        column = np.array([self.temperature(step) for step in range(self.num_steps)])
        column.setflags(write=False)
        return column


@dataclass(frozen=True)
class AnnealTrace:
    """One chain: its per-temperature progress and the selection it reports.

    ``temperature``, ``current_u``, ``best_u`` and ``accepted_count`` are
    read-only arrays with one entry per temperature step; ``chain`` is the
    chain's index among the restarts of a run seeded with ``seed``.
    """

    temperature: np.ndarray
    current_u: np.ndarray
    best_u: np.ndarray
    accepted_count: np.ndarray
    selection: Selection
    seed: int
    chain: int

    def to_csv(self, path) -> None:
        """Write the columns as ``trace.csv``: a header, then row k as
        ``"%d,%.17g,%.17g,%.17g,%d\\n" % (k, temperature, current_u, best_u,
        accepted_count)``, so each float reads back to the same double."""
        with replacing(path, "wb") as fh:
            fh.write(b"step,temperature,current_u,best_u,accepted_count\n")
            for block in _csv_blocks(self.temperature, self.current_u, self.best_u, self.accepted_count):
                fh.write(block)


def _csv_blocks(*columns):
    """The rows of ``trace.csv``, ``_ckernel.TRACE_BLOCK`` to a block: written
    by the C library when it is loaded (``_ckernel.format_trace``), else by
    Python; both give the same bytes."""
    lib = _ckernel.load()
    if lib is not None:
        yield from _ckernel.format_trace(lib, *columns)
        return
    for start in range(0, len(columns[0]), _ckernel.TRACE_BLOCK):
        stop = start + _ckernel.TRACE_BLOCK
        rows = zip(range(start, stop), *(column[start:stop].tolist() for column in columns))
        yield "".join(["%d,%.17g,%.17g,%.17g,%d\n" % row for row in rows]).encode()


def chain_rng(seed: int, chain: int) -> np.random.Generator:
    """The generator used by one annealing chain of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain,)))


def _run_chain(
    context: ObjectiveContext,
    params: ObjectiveParams,
    schedule: AnnealSchedule,
    chain: int,
    return_final: bool,
) -> AnnealTrace:
    """Chain ``chain`` of ``schedule``, drawing from ``chain_rng(schedule.seed,
    chain)``: its trace, whose columns the kernel fills in place, and its
    reported selection."""
    if params.n > context.n_features:
        raise ParameterError(f"n = {params.n} exceeds {context.n_features} features")
    rng = chain_rng(schedule.seed, chain)
    start = np.sort(rng.choice(context.n_features, size=params.n, replace=False))
    state = SubsetState.build(context, start, params)
    cur_u = state.current_u()
    best_sel = state.sel.copy()
    temperatures = schedule.temperatures
    steps = len(temperatures)
    columns = (np.full(steps, cur_u), np.full(steps, cur_u), np.zeros(steps, np.int64))
    if state.comp.size > 0:  # a full subset has nothing to swap with
        args = (state, best_sel, rng, temperatures, schedule.swaps_per_temperature, cur_u, *columns)
        _ckernel.anneal_chain(*args) or _kernels.anneal_chain(*args)
    for column in columns:
        column.setflags(write=False)
    idx = np.sort(state.sel if return_final else best_sel)
    u, u1, u2 = eval_u(context, idx, params)
    selection = Selection(tuple(int(i) for i in idx), u, u1, u2)
    return AnnealTrace(temperatures, *columns, selection, schedule.seed, chain)


def run(
    context: ObjectiveContext,
    params: ObjectiveParams,
    schedule: AnnealSchedule,
    return_final: bool = False,
) -> tuple[Selection, AnnealTrace]:
    """Anneal ``schedule.restarts`` independent chains and keep the best:
    its selection and its trace, whose ``chain`` is that restart's index.

    The best chain has the largest objective, ties going to the lowest
    index. Fully deterministic given (context, params, schedule): chain c
    draws from ``chain_rng(schedule.seed, c)``.
    """
    chains = (_run_chain(context, params, schedule, chain, return_final) for chain in range(schedule.restarts))
    trace = max(chains, key=lambda trace: trace.selection.objective)
    return trace.selection, trace
