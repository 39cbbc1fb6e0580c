import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnasel.errors import ValidationError
from rnasel.model import (
    Dendrogram,
    ExpressionMatrix,
    PairWeights,
    RatioMatrix,
    SampleMeta,
    SampleRecord,
    Selection,
    feature_norms,
)

from conftest import make_matrix


class TestExpressionMatrix:
    def test_valid(self):
        m = make_matrix([[1.0, 2.0], [3.0, 0.0]])
        assert m.n_features == 2 and m.n_samples == 2
        assert m.sample_index("s1") == 1

    def test_values_are_readonly(self):
        m = make_matrix([[1.0, 2.0], [3.0, 0.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix([[1.0, -2.0], [3.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix([[1.0, np.inf], [3.0, 0.0]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix([[1.0, 2.0], [3.0, 4.0]], feature_ids=["a", "a"])
        with pytest.raises(ValidationError):
            make_matrix([[1.0, 2.0], [3.0, 4.0]], sample_ids=["x", "x"])

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("f0",), ("s0", "s1"), np.ones((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("f0", "f1"), ("s0", "s1"), np.ones((2, 3)))


class TestSampleMeta:
    def test_valid_pairing(self):
        meta = SampleMeta((
            SampleRecord("c1", "control", "", 1, ""),
            SampleRecord("c2", "control", "", 2, ""),
            SampleRecord("a1", "treated", "a", 1, "c1"),
            SampleRecord("a2", "treated", "a", 2, "c2"),
        ))
        assert meta.treated_ids() == ("a1", "a2")
        assert meta.control_ids() == ("c1", "c2")
        assert meta.control_for("a1") == "c1"

    def test_dangling_control(self):
        with pytest.raises(ValidationError):
            SampleMeta((
                SampleRecord("c1", "control", "", 1, ""),
                SampleRecord("a1", "treated", "a", 1, "missing"),
            ))

    def test_treated_without_control(self):
        with pytest.raises(ValidationError):
            SampleMeta((
                SampleRecord("c1", "control", "", 1, ""),
                SampleRecord("a1", "treated", "a", 1, ""),
            ))

    def test_duplicate_compound_replicate(self):
        with pytest.raises(ValidationError):
            SampleMeta((
                SampleRecord("c1", "control", "", 1, ""),
                SampleRecord("a1", "treated", "a", 1, "c1"),
                SampleRecord("a1b", "treated", "a", 1, "c1"),
            ))

    def test_unknown_role(self):
        with pytest.raises(ValidationError):
            SampleMeta((SampleRecord("x", "mystery", "", 1, ""),))

    def test_control_referencing_treated_rejected(self):
        with pytest.raises(ValidationError):
            SampleMeta((
                SampleRecord("c1", "control", "", 1, ""),
                SampleRecord("t1", "treated", "a", 1, "c1"),
                SampleRecord("t2", "treated", "b", 1, "t1"),
            ))


class TestRatioMatrix:
    def test_valid(self):
        rm = RatioMatrix(("f0", "f1"), ("t0",), np.array([[0.5], [-2.0]]))
        assert rm.n_features == 2 and rm.n_treated == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            RatioMatrix(("f0", "f1"), ("t0",), np.array([[np.nan], [0.0]]))


class TestPairWeights:
    def test_count_positive(self):
        w = PairWeights({("a", "b"): 1, ("a", "c"): -1, ("b", "c"): 0})
        assert w.count_positive == 1
        assert w.get("b", "a") == 1

    def test_from_entries_defaults(self):
        w = PairWeights.from_entries(("a", "b", "c"), [("a", "c", 0)], default=1)
        assert w.get("a", "b") == 1
        assert w.get("a", "c") == 0
        assert w.count_positive == 2

    def test_bad_value(self):
        with pytest.raises(ValidationError):
            PairWeights({("a", "b"): 2})

    def test_self_pair(self):
        with pytest.raises(ValidationError):
            PairWeights({("a", "a"): 1})

    def test_unknown_sample(self):
        with pytest.raises(ValidationError):
            PairWeights.from_entries(("a", "b"), [("a", "zz", 1)])

    def test_duplicate_listing(self):
        with pytest.raises(ValidationError):
            PairWeights.from_entries(("a", "b"), [("a", "b", 1), ("b", "a", 0)])

    @pytest.mark.parametrize("ids, entries, message", [
        (("a", "b", "c"), [("a", "a", 1)], "weight pair must name two distinct samples, got 'a' twice"),
        (("a", "b"), [("b", "a", 2)], r"weight for pair \('a', 'b'\) must be -1, 0 or 1, got 2"),
        (("b", "a", "c", "a", "b"), [], "weight pair must name two distinct samples, got 'b' twice"),
        (("a", "b"), [("a", "zz", 1)], r"weight entry \('a', 'zz'\) names an unknown treated sample"),
        (("a", "b"), [("a", "b", 1), ("b", "a", 0)], r"pair \('a', 'b'\) listed more than once in weights"),
    ], ids=["self-pair", "bad-value", "repeated-id", "unknown-sample", "listed-twice"])
    def test_from_entries_messages(self, ids, entries, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PairWeights.from_entries(ids, entries)

    @given(st.data())
    def test_from_entries_matches_a_pair_by_pair_reference(self, data):
        ids = data.draw(st.lists(st.text("abcAB_1", min_size=1, max_size=3), min_size=2, max_size=9, unique=True))
        default = data.draw(st.sampled_from([-1, 0, 1]))
        pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
        listed = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        entries = [
            (b, a, w) if data.draw(st.booleans()) else (a, b, w)
            for (a, b), w in zip(listed, data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(listed))))
        ]
        reference = {}
        for k, a in enumerate(ids):
            for b in ids[k + 1:]:
                reference[(a, b) if a < b else (b, a)] = default
        for a, b, w in entries:
            reference[(a, b) if a < b else (b, a)] = w
        weights = PairWeights.from_entries(ids, entries, default)
        assert weights.weights == reference
        assert weights == PairWeights(reference)
        assert all(weights.get(b, a) == w for (a, b), w in reference.items())
        assert weights.count_positive == sum(w == 1 for w in reference.values())


class TestSelection:
    def test_valid(self):
        s = Selection((0, 3, 7), 0.5, 0.4, 0.9)
        assert s.size == 3

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            Selection((3, 0), 0.5, 0.4, 0.9)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Selection((1, 1), 0.5, 0.4, 0.9)


class TestDendrogram:
    def test_valid_three_leaves(self):
        d = Dendrogram(("a", "b", "c"), ((0, 1, 0.1), (2, 3, 0.5)))
        assert d.n_leaves == 3

    def test_wrong_merge_count(self):
        with pytest.raises(ValidationError):
            Dendrogram(("a", "b", "c"), ((0, 1, 0.1),))

    def test_node_reuse_rejected(self):
        with pytest.raises(ValidationError):
            Dendrogram(("a", "b", "c"), ((0, 1, 0.1), (0, 2, 0.5)))

    def test_height_inversion_rejected(self):
        with pytest.raises(ValidationError):
            Dendrogram(("a", "b", "c"), ((0, 1, 0.5), (2, 3, 0.1)))

    def test_height_out_of_range(self):
        with pytest.raises(ValidationError):
            Dendrogram(("a", "b", "c"), ((0, 1, 0.1), (2, 3, 1.5)))


class TestFeatureNorm:
    # feature_norms: the Euclidean norm of every feature row
    def test_zero_row(self):
        m = make_matrix([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        assert feature_norms(m)[0] == 0.0

    def test_three_four_five(self):
        m = make_matrix([[3.0, 4.0], [1.0, 1.0]])
        assert feature_norms(m)[0] == pytest.approx(5.0, abs=1e-12)

    def test_hand_computed(self):
        # sqrt(1 + 4 + 4 + 16) = 5
        m = make_matrix([[1.0, 2.0, 2.0, 4.0], [1.0, 0.0, 0.0, 0.0]])
        assert feature_norms(m)[0] == pytest.approx(5.0, abs=1e-12)

    def test_matches_vectorized(self):
        rng = np.random.default_rng(5)
        m = make_matrix(rng.uniform(0, 9, size=(6, 5)))
        norms = feature_norms(m)
        expected = np.linalg.norm(m.values, axis=1)
        for i in range(6):
            assert norms[i] == pytest.approx(expected[i], rel=1e-15)

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=12), st.integers(0, 10_000))
    def test_permutation_invariant(self, row, seed):
        rng = np.random.default_rng(seed)
        permuted = list(rng.permutation(row))
        m1 = make_matrix([row, [1.0] * len(row)])
        m2 = make_matrix([permuted, [1.0] * len(row)])
        assert feature_norms(m1)[0] == pytest.approx(feature_norms(m2)[0], rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=12), st.floats(0.0, 1e3))
    def test_scaling_homogeneous(self, row, c):
        m1 = make_matrix([row, [1.0] * len(row)])
        m2 = make_matrix([[c * v for v in row], [1.0] * len(row)])
        assert feature_norms(m2)[0] == pytest.approx(c * feature_norms(m1)[0], rel=1e-9, abs=1e-9)
