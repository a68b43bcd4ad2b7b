"""Kernel-level checks against direct numpy formulas."""

import numpy as np
import pytest

from framelift import kernels


def test_pairwise_dist_euclidean_against_direct(rng):
    pts = rng.uniform(-5, 5, size=(40, 2))
    got = kernels.pairwise_dist(pts)
    want = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert got.shape == (40, 40)
    np.testing.assert_allclose(np.diag(got), 0.0)


def test_pairwise_dist_torus_wraps():
    # On Z_16 the points 0 and 15 are neighbors, not 15 apart.
    pts = np.array([[0.0], [15.0], [8.0]])
    d = kernels.pairwise_dist(pts, period=16.0)
    assert d[0, 1] == pytest.approx(1.0)
    assert d[0, 2] == pytest.approx(8.0)
    assert d[1, 2] == pytest.approx(7.0)


def _broadcast_dist(pts, period):
    """The (n, n, D) broadcast formula, each difference reduced modulo the period."""
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if period > 0.0:
        diff = diff % period
        diff = np.minimum(diff, period - diff)
    return np.sqrt((diff * diff).sum(axis=-1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("period", [0.0, 7.5])
def test_pairwise_dist_equals_the_broadcast_formula(rng, dim, period):
    # The per-coordinate sum adds the same squares in the same order as a
    # sum over the last axis of an (n, n, D) broadcast. On the line, and on
    # the torus for points in [0, period) (every Gabor index set), the two
    # agree bit for bit: the reduction leaves such points as they are.
    pts = rng.uniform(-10, 10, size=(30, dim)) if period == 0.0 else rng.uniform(0, period, size=(30, dim))
    assert np.array_equal(kernels.pairwise_dist(pts, period), _broadcast_dist(pts, period))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("period", [0.3, 7.5, 16.0])
def test_pairwise_dist_reduces_points_outside_the_period(rng, dim, period):
    # Reducing the points first rounds at the scale of the coordinates and
    # the period, as reducing their differences does: the two formulas stay
    # within 2 ulps of that scale (1.5 is the worst seen over 3600 draws).
    pts = rng.uniform(-10, 10, size=(30, dim))
    got, want = kernels.pairwise_dist(pts, period), _broadcast_dist(pts, period)
    assert np.abs(got - want).max() <= 2 * np.spacing(max(np.abs(pts).max(), period))


@pytest.mark.parametrize("period", [0.0, 7.5])
def test_dist_to_origin_matches_pairwise_row(rng, period):
    pts = np.vstack([np.zeros(3), rng.uniform(0, 10, size=(25, 3))])
    full = kernels.pairwise_dist(pts, period)
    np.testing.assert_allclose(kernels.dist_to_origin(pts[1:], period), full[0, 1:], atol=1e-14)


def test_decay_max_is_the_weighted_sup(rng):
    pts = rng.uniform(0, 6, size=(15, 2))
    dist = kernels.pairwise_dist(pts)
    absa = np.abs(rng.standard_normal((15, 15)))
    want = float((absa * (1.0 + dist) ** 3.5).max())
    assert kernels.decay_max(absa, kernels.growth_table(dist, 3.5)) == want


def test_moderateness_profiles(rng):
    pts = np.arange(9, dtype=float)[:, None]
    dist = kernels.pairwise_dist(pts)
    vals = np.exp(pts[:, 0] / 3.0)
    ratio = vals[:, None] / vals[None, :]
    poly = kernels.moderateness_max(ratio, kernels.growth_table(dist, 2.0))
    want = float((vals[:, None] / (vals[None, :] * (1.0 + dist) ** 2)).max())
    assert poly == pytest.approx(want, rel=1e-14)
    sub = kernels.moderateness_max(ratio, kernels.exp_growth_table(dist, 1.0, 1.0))
    want_sub = float((vals[:, None] / (vals[None, :] * np.exp(dist))).max())
    assert sub == pytest.approx(want_sub, rel=1e-14)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.7, 0.5), (0.3, 2.0), (2.0, 0.25)])
def test_exp_growth_table_is_the_subexponential_formula_bit_for_bit(rng, alpha, beta):
    dist = kernels.pairwise_dist(rng.uniform(0, 9, size=(40, 2)))
    vals = np.exp(rng.uniform(-3, 3, 40))
    growth = kernels.exp_growth_table(dist, alpha, beta)
    assert np.array_equal(growth, np.exp(alpha * dist**beta))
    out = np.empty((7, 40))  # rows 5:12, written into a caller's buffer
    assert kernels.exp_growth_table(dist[5:12], alpha, beta, out=out) is out
    assert np.array_equal(out, growth[5:12])
    ratio = vals[:, None] / vals[None, :]
    assert kernels.moderateness_max(ratio, growth) == float((ratio / np.exp(alpha * dist**beta)).max())


def test_decay_max_skips_the_nan_of_a_zero_entry_times_inf():
    absa = np.array([[1.0, 0.0], [0.0, 2.0]])
    with np.errstate(invalid="ignore"):
        assert kernels.decay_max(absa, np.array([[1.0, np.inf], [np.inf, 1.5]])) == 3.0
