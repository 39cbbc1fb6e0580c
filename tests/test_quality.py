"""Selection quality where the pair weights decide it: shared-control noise.

Nine compounds in two planted groups, two replicates each, 30,000 features
of which 1,000 are informative. Each of the two controls adds its own
deviation (``control_noise_sd=1.0``) to every treated sample that uses it,
so a treated sample's ratios move with its control. Clustering on all
features then splits the samples by control. Weighting only the
same-compound replicate pairs lets a selection recover the planted split;
with all-ones weights, u1 is highest on control-driven features, and a
stronger search keeps fewer informative ones.
"""

import numpy as np
import pytest

from rnasel.annealer import AnnealSchedule, run
from rnasel.clustering import average_linkage, cut, dissimilarity
from rnasel.ingest import compute_ratios
from rnasel.model import PairWeights
from rnasel.objective import ObjectiveContext, ObjectiveParams
from rnasel.synth import SynthSpec, generate

GROUPS = (("G1", ("c1", "c2", "c3", "c4")), ("G2", ("c5", "c6", "c7", "c8", "c9")))
STRONG = AnnealSchedule(t_init=1e-3, t_final=1e-7, gamma=0.999, swaps_per_temperature=50, seed=1)


@pytest.fixture(scope="module")
def design():
    spec = SynthSpec(groups=GROUPS, n_features=30_000, n_informative=1_000, control_noise_sd=1.0, seed=3)
    matrix, meta, truth = generate(spec)
    ratio_matrix = compute_ratios(matrix, meta)
    planted = sorted(sorted(f"{c}_{r}" for c in compounds for r in (1, 2)) for _, compounds in GROUPS)
    return ObjectiveContext.from_matrices(matrix, ratio_matrix), set(truth.informative_indices), planted


def split(context, rows) -> list[list[str]]:
    """The k = 2 cut of the ratio clustering on feature ``rows``."""
    dend = average_linkage(dissimilarity(context.treated_ids, context.ratios[rows].T))
    return sorted(sorted(group) for group in cut(dend, 2))


def select(context, weights, schedule):
    best, _ = run(context, ObjectiveParams(alpha=0.0, n=1000, weights=weights), schedule)
    return np.array(best.indices, dtype=np.int64)


def test_all_feature_ratio_clustering_splits_by_control(design):
    context, _, planted = design
    assert split(context, slice(None)) != planted


def test_replicate_pair_weights_recover_the_planted_split(design):
    context, _, planted = design
    pairs = [(f"{c}_1", f"{c}_2", 1) for _, compounds in GROUPS for c in compounds]
    weights = PairWeights.from_entries(context.treated_ids, pairs, default=0)
    assert split(context, select(context, weights, AnnealSchedule(seed=1))) == planted


def test_all_ones_weights_keep_fewer_informative_features_under_a_stronger_search(design):
    context, informative, _ = design
    weights = PairWeights.from_entries(context.treated_ids, default=1)
    kept = [len(informative.intersection(select(context, weights, s).tolist())) for s in (AnnealSchedule(seed=1), STRONG)]
    assert kept[1] < kept[0], f"informative features kept: default {kept[0]}, strong {kept[1]}"
