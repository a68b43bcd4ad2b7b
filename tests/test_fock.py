"""Fock-space coherent frames: exact Grams, truncation, density, lifting."""

import tracemalloc

import numpy as np
import pytest

from framelift import fock, kernels, matalg
from framelift.coorbit import sweep
from framelift.fock import (
    FockFamily,
    FockLattice,
    beurling_density_lower,
    beurling_density_table,
    bulk_dimension,
    bulk_frame,
    core_dimension,
    default_degree,
    embed_truncated,
    fock_gram_exact,
)
from framelift.matalg import decay_constant
from framelift.weights import SYMBOL_SPEC, UNIT_SPEC
from tests.reference import fock_multiplier, fock_multiplier_report, truncation_residual


class TestExactGram:
    def test_two_point_modulus_is_gaussian_in_distance(self):
        for sep in (1.0, 0.5, 2.0):
            G = fock_gram_exact(np.array([0.0, sep], dtype=complex))
            assert abs(G[0, 1]) == pytest.approx(np.exp(-np.pi * sep**2 / 2), rel=1e-14)

    def test_unit_distance_value(self):
        G = fock_gram_exact(np.array([0.0 + 0j, 1.0 + 0j]))
        assert abs(G[0, 1]) == pytest.approx(np.exp(-np.pi / 2), rel=1e-14)
        assert abs(G[0, 1]) == pytest.approx(0.20787957635076193, rel=1e-12)

    def test_hermitian_with_unit_diagonal(self):
        lam = np.array([0.2 + 0.1j, -0.4 + 0.9j, 1.1 - 0.3j])
        G = fock_gram_exact(lam)
        np.testing.assert_allclose(G, G.conj().T, atol=1e-15)
        np.testing.assert_allclose(np.diag(G).real, 1.0, atol=1e-15)

    def test_modulus_invariant_under_rotation(self):
        lam = np.array([0.3 + 0.4j, -0.2 + 0.7j, 0.9 - 0.5j])
        rot = np.exp(1j * 0.7) * lam
        np.testing.assert_allclose(
            np.abs(fock_gram_exact(rot)), np.abs(fock_gram_exact(lam)), atol=1e-13
        )


class TestTruncation:
    def test_origin_maps_to_first_basis_vector(self):
        lat = FockLattice(delta=2.0, R=0.5)  # only the origin survives the cut
        fr = embed_truncated(lat, Dmax=5)
        col = fr.synthesis_matrix[:, 0]
        want = np.zeros(6)
        want[0] = 1.0
        np.testing.assert_allclose(col, want, atol=1e-15)

    def test_default_degrees(self):
        assert default_degree(1.5) == 29
        assert default_degree(2.0) == 51
        assert default_degree(2.5) == 79

    def test_embedded_gram_matches_exact(self):
        lat = FockLattice(delta=0.8, R=2.0)
        fr = embed_truncated(lat)
        err = np.abs(fr.gram_matrix - fock_gram_exact(lat.points)).max()
        assert err < 1e-13

    def test_small_degree_warns(self):
        lat = FockLattice(delta=0.8, R=2.0)
        with pytest.warns(UserWarning):
            embed_truncated(lat, Dmax=6)

    def test_truncation_residual_decreases_with_degree(self):
        lat = FockLattice(delta=0.8, R=1.5)
        r_small = truncation_residual(lat, Dmax=10)
        r_big = truncation_residual(lat, Dmax=40)
        assert r_big < r_small
        assert r_big < 1e-10

    def test_bulk_and_core_dimensions(self):
        table = {1.5: (8, 4), 2.0: (13, 8), 2.5: (20, 13)}
        for R, (k0, k1) in table.items():
            assert bulk_dimension(R) == k0
            assert core_dimension(R) == k1

    @pytest.mark.parametrize("R", [0.3, 1.5, 2.5, 8.0])
    @pytest.mark.parametrize("margin", [0.0, 0.5, 1.5, 4.0, 100.0])
    def test_core_never_exceeds_bulk(self, R, margin):
        assert 1 <= core_dimension(R, margin) <= bulk_dimension(R)

    def test_margin_beyond_the_radius_gives_a_one_dimensional_core(self):
        assert core_dimension(1.5, 4.0) == 1
        assert core_dimension(1.5, 1.5) == 1

    @pytest.mark.parametrize("margin", [-0.5, -1e-12, float("nan")])
    def test_negative_margin_is_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            core_dimension(2.0, margin)

    @pytest.mark.parametrize("delta", [0.8, 1.0, 1.2])
    @pytest.mark.parametrize("R, margin", [(1.5, 0.5), (2.5, 0.5), (2.5, 2.0), (4.0, 1.0)])
    def test_core_is_a_frame_whenever_the_bulk_is(self, delta, R, margin):
        # The core's frame operator is the leading principal block of the
        # bulk's, so its eigenvalues interlace: bounds only move inward.
        lat = FockLattice(delta, R)
        bulk, core = bulk_frame(lat, bulk_dimension(R)), bulk_frame(lat, core_dimension(R, margin))
        S = bulk.frame_operator
        block = S[: core.d, : core.d]
        np.testing.assert_allclose(core.frame_operator, block, rtol=0, atol=1e-14 * np.abs(S).max())
        (a_bulk, b_bulk), (a_core, b_core) = bulk.bounds, core.bounds
        assert a_core >= a_bulk - 1e-12 * b_bulk
        assert b_core <= b_bulk * (1 + 1e-12)
        assert core.is_frame or not bulk.is_frame

    @pytest.mark.parametrize("R, margin", [(2.5, 0.5), (4.0, 1.0), (1.0, 3.0)])
    def test_the_core_is_the_verdict_frame_cut_to_its_rows(self, R, margin):
        # FockFamily.case builds one coefficient table, at the verdict's K0,
        # and cuts the core from it: bit for bit the table at the core's K1.
        _, core = FockFamily(0.8, [R], margin=margin).case(R)
        want = bulk_frame(FockLattice(0.8, R), core_dimension(R, margin))
        assert core.d == core_dimension(R, margin)
        assert np.array_equal(core.vectors, want.vectors)
        assert np.array_equal(core.index_set.points, want.index_set.points)

    def test_bulk_frame_has_requested_dimension(self):
        lat = FockLattice(delta=0.8, R=1.5)
        fr = bulk_frame(lat, 8)
        assert fr.d == 8
        assert fr.n == lat.n


class TestDensity:
    def test_proxy_tracks_lattice_density(self):
        got = {
            d: beurling_density_lower(FockLattice(delta=d, R=2.5)) for d in (0.8, 1.0, 1.2)
        }
        assert got[0.8] == pytest.approx(1.4260, abs=2e-4)
        assert got[1.0] == pytest.approx(0.8149, abs=2e-4)
        assert got[1.2] == pytest.approx(0.4074, abs=2e-4)
        assert got[0.8] > got[1.0] > got[1.2]

    def test_table_rows_are_radius_sorted(self):
        rows = beurling_density_table(FockLattice(delta=0.8, R=3.0), np.geomspace(3.0 / 8, 3.0 / 2, 5))
        assert len(rows) == 5
        radii = [r["r"] for r in rows]
        assert radii == sorted(radii)
        for row in rows:
            assert row["min_density"] >= 0

    def test_sparse_lattice_has_tiny_proxy(self):
        lat = FockLattice(delta=4.5, R=4.0)
        assert beurling_density_lower(lat) < 0.1

    def test_counts_over_center_blocks_equal_the_whole_table(self, monkeypatch):
        # From 539 centers at r = 3 / 8 down to the one center at r = R: with
        # SLAB_ROWS = 5 the 539 are counted in 108 blocks, the last one short.
        lat = FockLattice(delta=0.8, R=3.0)
        radii = np.geomspace(3.0 / 8, 3.0, 6)
        monkeypatch.setattr(matalg, "SLAB_ROWS", 5)
        got = beurling_density_table(lat, radii)
        lam, step, want = lat.points, lat.delta / 4, []
        for r in radii:
            g = np.arange(-(3.0 - r), 3.0 - r + step / 2, step)
            zz = (g[:, None] + 1j * g[None, :]).ravel()
            zz = zz[np.abs(zz) <= 3.0 - r]
            zz = zz if len(zz) else np.array([0j])
            cnt = (np.abs(lam[None, :] - zz[:, None]) <= r).sum(axis=1)
            want.append({"r": float(r), "min_density": float((cnt / (np.pi * r**2)).min())})
        assert got == want

    def test_points_and_density_build_no_table_across_the_lattice(self):
        # delta = 0.8, R = 10: n = 489 points and 1947 centers at r = R / 2.
        # A pairwise distinctness table (n x n) or a centers x n count table
        # alone breaks these bounds; SLAB_ROWS centers at a time fit.
        lat = FockLattice(delta=0.8, R=10.0)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            n = len(lat.points)
            points_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            beurling_density_lower(lat)
            density_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points_peak < n * n * 4
        assert density_peak < 3 * matalg.SLAB_ROWS * n * np.dtype(complex).itemsize


class TestMultiplier:
    def test_unit_symbol_gives_frame_operator(self):
        lat = FockLattice(delta=0.8, R=1.5)
        M = fock_multiplier(lat, np.ones(lat.n))
        fr = embed_truncated(lat)
        np.testing.assert_allclose(M, fr.frame_operator, atol=1e-12)

    def test_single_origin_point_is_scaled_projection(self):
        lat = FockLattice(delta=2.0, R=0.5)
        M = fock_multiplier(lat, np.array([2.5]), Dmax=4)
        want = np.zeros((5, 5))
        want[0, 0] = 2.5
        np.testing.assert_allclose(M, want, atol=1e-14)

    def test_report_reconciles_both_conventions(self):
        lat = FockLattice(delta=0.8, R=1.5)
        mu = 1.0 + np.abs(lat.points)
        rep = fock_multiplier_report(lat, mu)
        assert rep["residual_section_vs_abstract"] < 1e-10
        assert rep["residual_intro_rescaled_vs_abstract"] < 1e-10
        assert rep["intro_max_entry"] > 0

    def test_weighted_frame_operator_positive_on_span(self):
        lat = FockLattice(delta=0.8, R=2.0)
        mu = 1.0 + np.abs(lat.points)
        M = fock_multiplier(lat, mu)
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.linalg.matrix_rank(M) == lat.n
        assert sv[lat.n - 1] > 1e-10


class TestReproducing:
    def test_coefficients_sample_the_function(self):
        # the analysis coefficient of a coherent-state column at w equals
        # the normalized evaluation F(w) e^{-pi |w|^2 / 2} of that state
        lat = FockLattice(delta=1.0, R=1.0)
        fr = embed_truncated(lat, Dmax=60)
        G = fock_gram_exact(lat.points)
        coeffs = fr.analysis_matrix @ fr.synthesis_matrix[:, 2]
        np.testing.assert_allclose(coeffs, G[:, 2], atol=1e-6)


class TestLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            FockLattice(delta=0.0, R=1.0)
        with pytest.raises(ValueError):
            FockLattice(delta=-0.5, R=1.0)

    def test_points_stay_in_disk(self):
        lat = FockLattice(delta=0.7, R=2.2)
        assert (np.abs(lat.points) <= 2.2 + 1e-9).all()

    def test_jitter_is_seeded(self):
        a = FockLattice(delta=0.8, R=2.0, jitter=0.1, seed=5).points
        b = FockLattice(delta=0.8, R=2.0, jitter=0.1, seed=5).points
        c = FockLattice(delta=0.8, R=2.0, jitter=0.1, seed=6).points
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0

    def test_repeated_points_are_rejected(self, monkeypatch):
        # Jitter 2 moves the origin by delta to the point (delta, 0), the
        # only coincidence among the five points of the unit disk.
        class Shift:
            def uniform(self, lo, hi, size):
                u = np.zeros(size)
                u[size[0] // 2, 0] = 0.5
                return u

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Shift())
        with pytest.raises(ValueError, match="pairwise distinct"):
            FockLattice(delta=1.0, R=1.0, jitter=2.0).points
        assert FockLattice(delta=1.0, R=1.0, jitter=1.0).points[2] == 0.5

    def test_points_are_cached_and_read_only(self):
        lat = FockLattice(delta=0.8, R=2.0)
        assert lat.points is lat.points
        with pytest.raises(ValueError):
            lat.points[0] = 1.0
        with pytest.raises(AttributeError):
            lat.points = np.zeros(3, dtype=complex)


class TestExperiment:
    def test_frozen_conditions_and_growths(self):
        out = sweep(
            FockFamily(0.8, [1.5, 2.0, 2.5]), {"type": "polynomial", "t": 2.0}, UNIT_SPEC, ps=(2,), seed=1
        )
        conds = [e["condition"] for e in out["entries"]]
        np.testing.assert_allclose(
            conds,
            [1.3794840235682613, 1.4421994661441986, 1.5415354568547592],
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            out["condition_ratios"], [conds[1] / conds[0], conds[2] / conds[1]], rtol=1e-12
        )
        for e in out["entries"]:
            assert e["status"] == "ok"
            assert e["report"]["lower"] > 0

    def test_subcritical_density_reports_failures(self):
        out = sweep(FockFamily(1.2, [1.5, 2.0]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=1)
        for e in out["entries"]:
            assert e["status"] == "not_a_frame"
            assert "density" in e["note"]
        assert out["condition_ratios"] == []

    def test_jittered_lattice_frozen_condition(self):
        out = sweep(FockFamily(0.8, [2.0], jitter=0.1, seed=1), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=1)
        e = out["entries"][0]
        assert e["status"] == "ok"
        assert e["condition"] == pytest.approx(1.5197574984075497, rel=1e-9)
        assert e["density_proxy"] == pytest.approx(1.2732395447351628, rel=1e-9)

    def test_decay_table_builds_one_gram_per_radius(self, monkeypatch):
        # The exact Gram's rows and the index set's distances behind
        # gram_decay_scaling serve every exponent, and the pipeline's
        # moderateness scan shares the same pass: at n < SLAB_ROWS, one slab,
        # so one block of each.
        counts = {"gram": 0, "dist": 0}
        gram_exact, pairwise_dist = fock.fock_gram_exact, kernels.pairwise_dist

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fock, "fock_gram_exact", counted("gram", gram_exact))
        monkeypatch.setattr(kernels, "pairwise_dist", counted("dist", pairwise_dist))
        out = sweep(FockFamily(0.8, [2.5]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=1)
        assert counts["gram"] == 1
        assert counts["dist"] == 1
        lat = FockLattice(0.8, 2.5)
        want = {
            str(se): decay_constant(gram_exact(lat), se, lat.index_set()) for se in (2.0, 4.0, 6.0)
        }
        assert out["gram_decay_scaling"]["2.5"] == want

    def test_lattice_points_are_built_once_per_radius(self, monkeypatch):
        built = []
        points = FockLattice.__dict__["points"]
        build = points.func

        def counted(lat):
            built.append(lat.R)
            return build(lat)

        monkeypatch.setattr(points, "func", counted)
        sweep(FockFamily(0.8, [2.5, 8.0]), {"type": "polynomial", "t": 6.0}, UNIT_SPEC, ps=(2,), seed=1)
        assert built == [2.5, 8.0]

    def test_gram_decay_constants_stable_across_radius(self):
        out = sweep(FockFamily(0.8, [1.5, 2.0, 2.5]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=1)
        sc = out["gram_decay_scaling"]
        for s_key, want in (("2.0", 1.185617), ("4.0", 3.841400)):
            vals = [sc[R_key][s_key] for R_key in sc if s_key in sc[R_key]]
            if not vals:
                continue
            assert max(vals) / min(vals) < 1.0 + 1e-6
            assert vals[0] == pytest.approx(want, abs=2e-6)
