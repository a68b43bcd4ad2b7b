"""Index sets, weights, weighted norms, and the diagonal isometry."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelift import kernels, matalg
from framelift.matalg import decay_constant
from framelift.weights import (
    EUCLIDEAN,
    TORUS,
    IndexSet,
    Weight,
    lp_norms,
    moderateness_constant,
)
from tests.reference import diag_lift, weighted_norm


def line(n: int) -> IndexSet:
    return IndexSet(np.arange(n, dtype=float))


class TestIndexSet:
    def test_promotes_one_dim_points(self):
        idx = line(5)
        assert idx.points.shape == (5, 1)
        assert idx.metric == EUCLIDEAN

    def test_distance_matrix_line(self):
        d = line(4).distance_matrix()
        np.testing.assert_allclose(d[0], [0, 1, 2, 3])

    def test_torus_requires_period_and_wraps(self):
        idx = IndexSet(np.array([[0.0], [7.0]]), metric=TORUS, period=8.0)
        assert idx.distance_matrix()[0, 1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            IndexSet(np.array([[0.0], [1.0]]), metric=TORUS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IndexSet(np.array([[0.0, 1.0], [bad, 2.0]]))

    @pytest.mark.parametrize("period", [np.nan, np.inf, 0.0, -1.0])
    def test_torus_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match="finite positive period"):
            IndexSet(np.array([[0.0], [1.0]]), metric=TORUS, period=period)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            IndexSet(np.array([[1.0], [1.0]]))

    def test_distance_to_origin(self):
        idx = IndexSet(np.array([[3.0, 4.0], [0.0, 1.0]]))
        np.testing.assert_allclose(idx.distance_to_origin(), [5.0, 1.0])

    def test_dict_round_trip(self):
        idx = IndexSet(np.array([[0.0, 1.0], [2.0, 3.0]]), metric=TORUS, period=5.0)
        back = IndexSet.from_dict(idx.to_dict())
        np.testing.assert_array_equal(back.points, idx.points)
        assert back.metric == TORUS and back.period == 5.0


class TestWeight:
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_positivity_required(self, bad):
        with pytest.raises(ValueError):
            Weight(np.array([1.0, bad, 2.0]), line(3))

    @pytest.mark.parametrize(
        "spec, want",
        [
            ({"type": "constant"}, [1.0] * 4),
            ({"type": "constant", "c": 3}, [3.0] * 4),
            ({"type": "polynomial", "t": 2}, [1.0, 4.0, 9.0, 16.0]),
            ({"type": "values", "values": [1, 2, 3, 4]}, [1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_from_spec_reads_each_type(self, spec, want):
        np.testing.assert_array_equal(Weight.from_spec(spec, line(4)).values, want)

    @pytest.mark.parametrize(
        "spec",
        [
            None,
            2.0,
            {},
            {"t": 1.0},
            {"type": "gaussian"},
            {"type": "polynomial"},
            {"type": "polynomial", "t": float("inf")},
            {"type": "constant", "c": None},
            {"type": "values", "values": [1.0, 2.0]},
        ],
    )
    def test_from_spec_rejects_with_value_error(self, spec):
        with pytest.raises(ValueError):
            Weight.from_spec(spec, line(4))

    def test_polynomial_weight_values(self):
        w = Weight.polynomial(line(4), 2.0)
        np.testing.assert_allclose(w.values, [1.0, 4.0, 9.0, 16.0])

    def test_overflowing_polynomial_weight_raises_without_a_warning(self):
        # 4^600 overflows to inf: the constructor rejects it, and numpy's
        # overflow warning is not raised on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                Weight.polynomial(line(4), 600.0)


class TestWeightedNorm:
    def test_p2_matches_direct_sum(self, rng):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        m = 1.0 + rng.random(8)
        want = np.sqrt(((m * np.abs(c)) ** 2).sum())
        assert weighted_norm(c, 2, m) == pytest.approx(want)

    def test_p_inf_is_weighted_sup(self):
        c = np.array([1.0, -3.0, 2.0])
        m = np.array([1.0, 1.0, 4.0])
        assert weighted_norm(c, np.inf, m) == 8.0
        assert weighted_norm(c, "inf", m) == 8.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            weighted_norm(np.ones(3), 0.5, np.ones(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_norm(np.ones(3), 2, np.ones(4))


class TestLpNorms:
    @pytest.mark.parametrize("p", [1.5, 3, 200, 1e300])
    def test_rows_are_scaled_before_the_power(self, p):
        # |x|^p of these rows overflows or underflows unscaled; the norm of a
        # row scaled by a power of two is that power times the norm.
        x = np.array([[3.0, -4.0, 1.0], [0.0, 0.0, 0.0], [1e-300j, 0.0, 2e-300]])
        got = lp_norms(np.array([x[0] * 2.0**900, x[1], x[2]]), p)
        want = lp_norms(x[:1], p)[0]
        assert got[0] == want * 2.0**900
        assert got[1] == 0.0
        assert 2e-300 <= got[2] <= 3e-300  # between the max and the sum of moduli
        assert 4.0 <= want <= 8.0

    def test_in_range_norms_match_the_plain_formulas(self, rng):
        # p = 1 and inf are the plain sum and max bit for bit.
        x = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert np.array_equal(lp_norms(x, 1), np.abs(x).sum(axis=-1))
        assert np.array_equal(lp_norms(x, np.inf), np.abs(x).max(axis=-1))
        for p in (1.5, 2, 3, 7):
            np.testing.assert_allclose(lp_norms(x, p), (np.abs(x) ** p).sum(axis=-1) ** (1 / p), rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1, 1.5, 2, 3, np.inf]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_diag_lift_isometry(n, p, seed):
    """||diag(mu) c||_{p, m/mu} recovers ||c||_{p, m} for every p and weight pair."""
    r = np.random.default_rng(seed)
    c = r.standard_normal(n) + 1j * r.standard_normal(n)
    m = np.exp(r.uniform(-1, 1, n))
    mu = np.exp(r.uniform(-1, 1, n))
    lifted = diag_lift(c, mu)
    assert weighted_norm(lifted, p, m / mu) == pytest.approx(weighted_norm(c, p, m), rel=1e-12)


class TestModerateness:
    def test_polynomial_weight_is_exactly_t_moderate(self):
        idx = line(12)
        w = Weight.polynomial(idx, 3.0)
        assert moderateness_constant(w, 3.0) == pytest.approx(1.0)

    def test_exponential_weight_constant_on_a_line(self):
        idx = line(11)
        w = Weight(np.exp(np.arange(11.0)), idx)
        # worst pair is the two endpoints: e^10 / (1 + 10)
        assert moderateness_constant(w, 1.0) == pytest.approx(np.exp(10.0) / 11.0)

    def test_subexponential_profile_tames_exponential_weight(self):
        idx = line(11)
        w = Weight(np.exp(np.arange(11.0)), idx)
        assert moderateness_constant(w, 1.0, profile="subexponential") == pytest.approx(1.0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            moderateness_constant(Weight.constant(line(3)), 1.0, profile="gaussian")


class TestPairScanTables:
    """A PairScan forms each (index set, exponent) table (1 + dist)^s once per
    row slab and shares it; the index set keeps no table of its own."""

    def test_one_growth_table_per_slab_serves_decay_and_moderateness(self, monkeypatch):
        monkeypatch.setattr(matalg, "SLAB_ROWS", 7)
        n = 29  # slabs of 7, 7, 7 and 8 rows: the one-row remainder joins the last
        idx = IndexSet(np.random.default_rng(3).uniform(0, 8, size=(n, 2)))
        dist = idx.distance_matrix()
        A = np.random.default_rng(4).standard_normal((n, n))
        w = Weight(np.exp(np.random.default_rng(5).uniform(-2, 2, n)), idx)
        ratio = w.values[:, None] / w.values[None, :]
        exponents, growth_table = [], kernels.growth_table

        def spy(d, s, out=None):
            exponents.append((s, len(d)))
            return growth_table(d, s, out)

        monkeypatch.setattr(kernels, "growth_table", spy)
        scan = matalg.PairScan(n)
        a, at = scan.matrix("A", lambda i0, i1, out: A[i0:i1]), scan.matrix("A^T", lambda i0, i1, out: A.T[i0:i1])
        scan.decay(a, 4.0, idx)
        scan.moderateness(w.values, 4.0, idx)
        scan.decay(at, 4.0, idx)
        scan.moderateness(w.values, 2.0, idx)
        # bit for bit the values of (1 + dist)^s formed over the whole matrix
        assert scan.run() == [
            float((np.abs(A) * (1.0 + dist) ** 4.0).max()),
            float((ratio / (1.0 + dist) ** 4.0).max()),
            float((np.abs(A.T) * (1.0 + dist) ** 4.0).max()),
            float((ratio / (1.0 + dist) ** 2.0).max()),
        ]
        assert exponents == [(4.0, 7), (2.0, 7)] * 3 + [(4.0, 8), (2.0, 8)]

    def test_index_set_holds_no_table(self, monkeypatch):
        monkeypatch.setattr(matalg, "SLAB_ROWS", 4)
        idx = IndexSet(np.arange(10.0))
        assert idx.distance_matrix() is not idx.distance_matrix()
        rows, pairwise_dist = [], kernels.pairwise_dist

        def spy(pts, period, r, out):
            rows.append(r)
            return pairwise_dist(pts, period, r, out)

        monkeypatch.setattr(kernels, "pairwise_dist", spy)
        assert decay_constant(np.ones((10, 10)), 3.0, idx) == 1000.0
        assert moderateness_constant(Weight.constant(idx), 2.0) == 1.0
        assert rows == [(0, 4), (4, 8), (8, 10), (0, 10)]
        assert set(vars(idx)) == {"points", "metric", "period"}
