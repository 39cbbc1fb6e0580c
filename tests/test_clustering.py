import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from rnasel.clustering import (
    DissimilarityMatrix,
    ZeroVarianceProfileWarning,
    average_linkage,
    cut,
    dissimilarity,
    leaf_order,
    to_merge_dict,
    to_newick,
)
from rnasel.errors import ParameterError, ValidationError
from rnasel.oracle import naive_average_linkage


def random_dissimilarity(rng, s):
    m = rng.uniform(0, 1, size=(s, s))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return DissimilarityMatrix(tuple(f"s{i}" for i in range(s)), m)


def two_pass_dissimilarity(profiles):
    """(1 - r) / 2 pair by pair: mean first, then centred sums."""
    s = len(profiles)
    d = np.zeros((s, s))
    for i in range(s):
        for j in range(i + 1, s):
            x = profiles[i] - profiles[i].mean()
            y = profiles[j] - profiles[j].mean()
            r = float(np.dot(x, y)) / math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
            d[i, j] = d[j, i] = (1.0 - r) / 2.0
    return d


def hand_matrix():
    # d(A,B)=0.1, d(A,C)=0.4, d(B,C)=0.6
    d = np.array([[0.0, 0.1, 0.4], [0.1, 0.0, 0.6], [0.4, 0.6, 0.0]])
    return DissimilarityMatrix(("A", "B", "C"), d)


class TestDissimilarity:
    def test_identical_vectors_exactly_zero(self):
        d = dissimilarity(("a", "b"), [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert d.d[0, 1] == 0.0

    def test_anticorrelated_exactly_one(self):
        d = dissimilarity(("a", "b"), [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert d.d[0, 1] == 1.0

    def test_hand_computed_point_one(self):
        d = dissimilarity(("a", "b"), [[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]])
        assert d.d[0, 1] == pytest.approx(0.1, abs=1e-12)

    def test_zero_variance_profile_scores_half(self):
        with pytest.warns(ZeroVarianceProfileWarning):
            d = dissimilarity(("a", "b", "c"), [[5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        assert d.d[0, 1] == 0.5
        assert d.d[0, 2] == 0.5
        assert d.d[1, 2] != 0.5

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        d = dissimilarity(tuple(f"s{i}" for i in range(6)), rng.normal(size=(6, 10)))
        assert np.array_equal(d.d, d.d.T)
        assert np.all(d.d >= 0.0) and np.all(d.d <= 1.0)
        assert np.all(np.diag(d.d) == 0.0)

    def test_matches_per_pair_two_pass_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, length = int(rng.integers(2, 30)), int(rng.integers(2, 60))
            scale = 10.0 ** rng.uniform(-3, 3, size=(s, 1))
            profiles = rng.normal(size=(s, length)) * scale + rng.normal(size=(s, 1)) * scale
            got = dissimilarity(tuple(f"s{i}" for i in range(s)), profiles)
            np.testing.assert_allclose(got.d, two_pass_dissimilarity(profiles), rtol=0.0, atol=1e-14)

    def test_exact_values_among_many_profiles(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=50)
        profiles = np.vstack([base, base, 7.0 - base, np.full(50, 3.0), rng.normal(size=(4, 50))])
        with pytest.warns(ZeroVarianceProfileWarning):
            d = dissimilarity(tuple(f"s{i}" for i in range(8)), profiles)
        assert d.d[0, 1] == 0.0
        assert d.d[0, 2] == 1.0 and d.d[1, 2] == 1.0
        assert all(d.d[3, j] == 0.5 for j in range(8) if j != 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            dissimilarity(("a", "b"), [[1.0, 2.0], [1.0]])

    def test_validation_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            DissimilarityMatrix(("a", "b"), np.array([[0.0, 0.2], [0.3, 0.0]]))

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            DissimilarityMatrix(("a", "b"), np.array([[0.0, 1.2], [1.2, 0.0]]))


class TestAverageLinkage:
    def test_two_samples(self):
        d = DissimilarityMatrix(("a", "b"), np.array([[0.0, 0.3], [0.3, 0.0]]))
        dend = average_linkage(d)
        assert dend.merges == ((0, 1, 0.3),)

    def test_hand_traced_three_points(self):
        # merge {A,B} at 0.1, then with C at (0.4 + 0.6) / 2 = 0.5
        dend = average_linkage(hand_matrix())
        assert dend.merges[0][:2] == (0, 1)
        assert dend.merges[0][2] == pytest.approx(0.1, abs=1e-15)
        assert dend.merges[1][2] == pytest.approx(0.5, abs=1e-15)

    def test_leaves_conserved(self):
        rng = np.random.default_rng(2)
        d = random_dissimilarity(rng, 7)
        dend = average_linkage(d)
        assert dend.leaves == d.labels
        assert sorted(leaf_order(dend)) == list(range(7))

    def test_heights_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = random_dissimilarity(rng, 8)
            dend = average_linkage(d)
            heights = [h for _, _, h in dend.merges]
            assert all(h2 >= h1 for h1, h2 in zip(heights, heights[1:]))
            assert all(0.0 <= h <= 1.0 for h in heights)

    def test_permutation_isomorphism(self):
        rng = np.random.default_rng(4)
        d = random_dissimilarity(rng, 7)
        perm = rng.permutation(7)
        labels_p = tuple(d.labels[i] for i in perm)
        d_p = DissimilarityMatrix(labels_p, d.d[np.ix_(perm, perm)])
        dend, dend_p = average_linkage(d), average_linkage(d_p)
        h = sorted(h for _, _, h in dend.merges)
        h_p = sorted(h for _, _, h in dend_p.merges)
        np.testing.assert_allclose(h, h_p, atol=1e-12)
        for k in range(1, 8):
            assert cut(dend, k) == cut(dend_p, k)

    def test_planted_groups_recovered(self):
        rng = np.random.default_rng(5)
        centers = {0: rng.normal(size=30), 1: rng.normal(size=30)}
        labels, profiles, want = [], [], [[], []]
        for i in range(8):
            g = i % 2
            labels.append(f"s{i}")
            profiles.append(centers[g] + 0.05 * rng.normal(size=30))
            want[g].append(f"s{i}")
        dend = average_linkage(dissimilarity(labels, np.array(profiles)))
        got = cut(dend, 2)
        assert got == sorted([sorted(w) for w in want], key=lambda g: g[0])

    def test_deterministic_tie_break(self):
        # all distances equal: merges must follow the label tie rule
        d = DissimilarityMatrix(("b", "a", "c"), np.full((3, 3), 0.4) - 0.4 * np.eye(3))
        dend = average_linkage(d)
        # first merge joins the clusters holding labels 'a' and 'b'
        first = dend.merges[0]
        assert {dend.leaves[first[0]], dend.leaves[first[1]]} == {"a", "b"}
        assert first[0] == 1  # 'a' is the lexicographically smaller side


# Multiples of 1/8 add exactly, so equal cross-cluster means are equal floats
# in both implementations and the label tie rule decides every exact tie.
@st.composite
def quantised_dissimilarity(draw):
    s = draw(st.integers(2, 16))
    levels = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True))
    upper = draw(st.lists(st.sampled_from(levels), min_size=s * (s - 1) // 2, max_size=s * (s - 1) // 2))
    perm = draw(st.permutations(range(s)))
    m = np.zeros((s, s))
    m[np.triu_indices(s, 1)] = np.array(upper) / 8.0
    return DissimilarityMatrix(tuple(f"s{p:02d}" for p in perm), m + m.T)


class TestLinkageAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(quantised_dissimilarity())
    def test_matches_oracle_merge_for_merge(self, d):
        assert average_linkage(d).merges == naive_average_linkage(d).merges

    def test_exact_tie_between_cluster_means(self):
        # after three merges {s0,s1,s2} is 2/3 from both {s5} and {s3,s4};
        # the tie goes to the smaller label pair (s0, s3)
        q = [[0, 1, 3, 3, 2, 3], [1, 0, 1, 3, 3, 3], [3, 1, 0, 3, 2, 2],
             [3, 3, 3, 0, 2, 3], [2, 3, 2, 2, 0, 3], [3, 3, 2, 3, 3, 0]]
        d = DissimilarityMatrix(tuple(f"s{i}" for i in range(6)), np.array(q) / 4.0)
        want = ((0, 1, 0.25), (6, 2, 0.5), (3, 4, 0.5), (7, 8, 2.0 / 3.0), (9, 5, 0.7))
        assert average_linkage(d).merges == want == naive_average_linkage(d).merges

    def test_heights_match_scipy_at_200_samples(self):
        rng = np.random.default_rng(10)
        profiles = rng.normal(size=(200, 40)) + np.repeat(rng.normal(size=(4, 40)), 50, axis=0)
        d = dissimilarity(tuple(f"s{i:03d}" for i in range(200)), profiles)
        got = np.sort([h for _, _, h in average_linkage(d).merges])
        want = np.sort(linkage(squareform(d.d, checks=False), method="average")[:, 2])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestCut:
    def test_k_one(self):
        dend = average_linkage(hand_matrix())
        assert cut(dend, 1) == [["A", "B", "C"]]

    def test_k_equals_s(self):
        dend = average_linkage(hand_matrix())
        assert cut(dend, 3) == [["A"], ["B"], ["C"]]

    def test_hand_example_two_groups(self):
        dend = average_linkage(hand_matrix())
        assert cut(dend, 2) == [["A", "B"], ["C"]]

    def test_bad_k(self):
        dend = average_linkage(hand_matrix())
        with pytest.raises(ParameterError):
            cut(dend, 0)
        with pytest.raises(ParameterError):
            cut(dend, 4)


class TestExports:
    def test_newick_three_points(self):
        dend = average_linkage(hand_matrix())
        text = to_newick(dend)
        assert text.endswith(";")
        assert text.count("(") == 2 == text.count(")")
        assert "A:0.1" in text and "B:0.1" in text
        assert "C:0.5" in text and ":0.4" in text  # internal branch 0.5 - 0.1

    def test_merge_dict_round_trip(self):
        dend = average_linkage(hand_matrix())
        payload = json.loads(json.dumps(to_merge_dict(dend)))
        assert payload["leaves"] == ["A", "B", "C"]
        assert len(payload["merges"]) == 2
        assert payload["merges"][0][:2] == [0, 1]
