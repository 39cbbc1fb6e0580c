import math

import numpy as np
import pytest

from rnasel.model import (
    ExpressionMatrix,
    PairWeights,
    SampleMeta,
    SampleRecord,
)
from rnasel.objective import ObjectiveContext


def make_matrix(values, feature_ids=None, sample_ids=None) -> ExpressionMatrix:
    values = np.asarray(values, dtype=float)
    f, s = values.shape
    feature_ids = feature_ids or [f"f{i}" for i in range(f)]
    sample_ids = sample_ids or [f"s{j}" for j in range(s)]
    return ExpressionMatrix(tuple(feature_ids), tuple(sample_ids), values)


def make_meta(n_compounds: int, replicates: int = 2) -> SampleMeta:
    records = [SampleRecord(f"control_{r}", "control", "", r, "") for r in range(1, replicates + 1)]
    for c in range(n_compounds):
        name = f"cmp{chr(ord('A') + c)}"
        for r in range(1, replicates + 1):
            records.append(SampleRecord(f"{name}_{r}", "treated", name, r, f"control_{r}"))
    return SampleMeta(tuple(records))


def random_context(rng: np.random.Generator, n_features: int, n_treated: int) -> ObjectiveContext:
    ratios = rng.normal(size=(n_features, n_treated))
    norms = np.abs(rng.normal(size=n_features)) + 1e-3
    treated_ids = tuple(f"t{j}" for j in range(n_treated))
    return ObjectiveContext(ratios, norms, treated_ids)


def all_ones_weights(context: ObjectiveContext) -> PairWeights:
    return PairWeights.from_entries(context.treated_ids, default=1)


def trace_columns(trace) -> tuple[list, ...]:
    """An ``AnnealTrace``'s per-step columns as lists, for exact comparison."""
    return tuple(c.tolist() for c in (trace.temperature, trace.current_u, trace.best_u, trace.accepted_count))


def adversarial_reprs() -> np.ndarray:
    """Doubles whose ``repr`` is hard to write: every normal power of two and
    every power of ten, each with both neighbours, and one case for each
    layout and for each kind of number the C trace writer declines."""
    powers = np.array([2.0**k for k in range(-1022, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    singles = [0.0, -0.0, 1e-05, 0.0001, 1e15, 1e16, 292584158624471.75, 5e-324, math.inf, math.nan]
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf), singles])


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Build or load the C swap kernel once, before any test runs.

    This keeps the first compile out of the timed runs, such as criterion
    01's per-run budget, so timing assertions see steady state.
    """
    from rnasel.annealer import AnnealSchedule
    from rnasel.annealer import run as anneal_run
    from rnasel.objective import ObjectiveParams

    rng = np.random.default_rng(0)
    ctx = random_context(rng, 8, 4)
    params = ObjectiveParams(alpha=0.2, n=3, weights=all_ones_weights(ctx))
    schedule = AnnealSchedule(t_init=1.0, t_final=0.5, gamma=0.9, swaps_per_temperature=2, seed=1)
    anneal_run(ctx, params, schedule)
