"""Time-frequency shifts, STFT, and Gabor frames on Z_N."""

import numpy as np
import pytest

from framelift import matalg
from framelift.coorbit import sweep
from framelift.frames import NotAFrameError
from framelift.gabor import (
    WINDOW_FLOOR,
    GaborFamily,
    TFLattice,
    gabor_system,
    gaussian_window,
    moderate_interplay_check,
    stft,
    stft_decay_constant,
    tf_shift,
)
from framelift.weights import SYMBOL_SPEC, UNIT_SPEC
from tests.conftest import random_vector
from tests.reference import lattice_decay


def _delta(N, j=0):
    f = np.zeros(N, dtype=complex)
    f[j] = 1.0
    return f


class TestShifts:
    def test_zero_shift_is_identity(self, rng):
        f = random_vector(rng, 12)
        np.testing.assert_array_equal(tf_shift(f, 0, 0), f)

    def test_pure_translation_moves_delta(self):
        out = tf_shift(_delta(8), 3, 0)
        np.testing.assert_allclose(out, _delta(8, 3))

    def test_pure_modulation_is_diagonal_phase(self, rng):
        f = random_vector(rng, 10)
        out = tf_shift(f, 0, 4)
        phase = np.exp(2j * np.pi * 4 * np.arange(10) / 10)
        np.testing.assert_allclose(out, phase * f, atol=1e-14)

    def test_unitarity(self, rng):
        f = random_vector(rng, 16)
        out = tf_shift(f, 5, 11)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f))

    def test_composition_picks_up_commutation_phase(self, rng):
        N = 12
        f = random_vector(rng, N)
        x, w, xp, wp = 3, 7, 5, 2
        lhs = tf_shift(tf_shift(f, xp, wp), x, w)
        rhs = np.exp(-2j * np.pi * wp * x / N) * tf_shift(f, x + xp, w + wp)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_indices_wrap_mod_n(self, rng):
        f = random_vector(rng, 9)
        np.testing.assert_allclose(tf_shift(f, 9 + 2, 9 + 5), tf_shift(f, 2, 5), atol=1e-14)


class TestWindow:
    def test_unit_norm(self):
        for N in (4, 16, 33, 128):
            assert np.linalg.norm(gaussian_window(N)) == pytest.approx(1.0)

    def test_even_symmetry_about_zero(self):
        g = gaussian_window(32)
        for t in range(1, 32):
            assert g[t] == pytest.approx(g[32 - t])

    def test_strictly_positive(self):
        # Up to N = 256 no entry falls below the floor (the smallest is 2.8e-88).
        for N in (24, 256):
            assert (gaussian_window(N) > 0).all()

    @pytest.mark.parametrize("N", [512, 1024])
    def test_no_entry_below_the_floor(self, N):
        # Entries below 2^-500 of the largest are zero, so no product of two
        # entries is subnormal; the window keeps its norm and its symmetry.
        g = gaussian_window(N)
        kept = g[g > 0]
        assert not np.any(kept < WINDOW_FLOOR * g.max())
        assert kept.min() ** 2 >= np.finfo(float).tiny
        assert np.count_nonzero(g == 0) > 0
        assert np.linalg.norm(g) == pytest.approx(1.0)
        assert np.array_equal(g[1:], g[:0:-1])

    def test_tiny_lengths_rejected(self):
        with pytest.raises(ValueError):
            gaussian_window(3)


class TestSTFT:
    def test_delta_window_delta_signal(self):
        V = stft(_delta(8), _delta(8))
        want = np.zeros((8, 8))
        want[0, :] = 1.0
        np.testing.assert_allclose(V, want.T if V[:, 0].sum() == 8 else want, atol=1e-14)

    def test_energy_identity(self, rng):
        N = 16
        f = random_vector(rng, N)
        g = random_vector(rng, N)
        total = np.sum(np.abs(stft(f, g)) ** 2)
        want = N * np.linalg.norm(f) ** 2 * np.linalg.norm(g) ** 2
        assert total == pytest.approx(want, rel=1e-12)

    def test_matches_inner_products_with_shifts(self, rng):
        N = 12
        f = random_vector(rng, N)
        g = gaussian_window(N)
        V = stft(f, g)
        for x in (0, 3, 7):
            for w in (0, 2, 11):
                want = np.sum(f * np.conj(tf_shift(g, x, w)))
                assert V[x, w] == pytest.approx(want, abs=1e-12)

    def test_frame_analysis_samples_the_stft(self, rng):
        fr = gabor_system(16, 2, 4)
        f = random_vector(rng, 16)
        V = stft(f, gaussian_window(16))
        coeffs = fr.analysis_matrix @ f
        pts = TFLattice(16, 2, 4).points
        for k in range(fr.n):
            x, w = int(pts[k, 0]), int(pts[k, 1])
            assert coeffs[k] == pytest.approx(V[x, w], abs=1e-12)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            stft(random_vector(rng, 8), random_vector(rng, 9))

    @pytest.mark.parametrize("N", [12, 64, 256])
    def test_batched_fft_equals_one_fft_per_shift(self, rng, N):
        f, g = random_vector(rng, N), random_vector(rng, N)
        want = np.array([np.fft.fft(f * np.conj(np.roll(g, x))) for x in range(N)])
        np.testing.assert_array_equal(stft(f, g), want)


class TestLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            TFLattice(16, 0, 4)
        with pytest.raises(ValueError):
            TFLattice(16, 3, 4)  # 3 does not divide 16

    def test_balanced_factorizations(self):
        got = {N: (TFLattice.balanced(N).a, TFLattice.balanced(N).b) for N in (16, 32, 64, 128)}
        assert got == {16: (2, 2), 32: (2, 4), 64: (4, 4), 128: (4, 8)}

    def test_point_count_and_redundancy(self):
        lat = TFLattice(32, 2, 4)
        assert lat.n == 128
        assert lat.redundancy == pytest.approx(4.0)
        pts = lat.points
        assert pts.shape == (128, 2)
        # x-major ordering: the first block holds every frequency at x = 0
        assert (pts[:8, 0] == 0).all()
        np.testing.assert_array_equal(pts[:8, 1], 4 * np.arange(8))

    def test_shape_names_the_index_order(self):
        lat = TFLattice(32, 2, 8)
        P, Q = lat.shape
        assert (P, Q) == (16, 4)
        ix, iw = np.divmod(np.arange(lat.n), Q)
        np.testing.assert_array_equal(lat.points, np.column_stack([ix * lat.a, iw * lat.b]))

    def test_normalized_index_set_rescales_period(self):
        lat = TFLattice(64, 4, 4)
        raw = lat.index_set()
        norm = lat.index_set(normalized=True)
        assert raw.period == pytest.approx(64.0)
        assert norm.period == pytest.approx(8.0)
        np.testing.assert_allclose(norm.points, raw.points / 8.0)


class TestGaborFrame:
    def test_z16_square_lattice_bounds(self):
        A, B = gabor_system(16, 2, 2).bounds
        assert A == pytest.approx(3.970176713771091, rel=1e-9)
        assert B == pytest.approx(4.029934881184299, rel=1e-9)

    def test_gram_modulus_depends_on_lattice_difference_only(self):
        G = np.abs(gabor_system(16, 4, 4).gram_matrix)
        g = gaussian_window(16)
        V = np.abs(stft(g, g))
        pts = TFLattice(16, 4, 4).points.astype(int)
        for k in range(len(pts)):
            for l in range(len(pts)):
                dx = (pts[l, 0] - pts[k, 0]) % 16
                dw = (pts[l, 1] - pts[k, 1]) % 16
                assert G[k, l] == pytest.approx(V[dx, dw], abs=1e-12)

    @pytest.mark.parametrize("N, a, b", [(16, 2, 2), (64, 4, 4), (128, 4, 8), (256, 8, 8)])
    def test_columns_equal_one_shift_per_point(self, N, a, b):
        # The per-point construction the one broadcast tf_shift replaced.
        g, t = gaussian_window(N), np.arange(N)
        pts = TFLattice(N, a, b).points.astype(int)
        want = np.stack([np.exp(2j * np.pi * (w % N) * t / N) * np.roll(g, x % N) for x, w in pts], axis=1)
        np.testing.assert_array_equal(gabor_system(N, a, b).vectors, want)

    def test_critical_sampling_with_gaussian_still_spans(self):
        # a*b = N leaves no redundancy; the periodized Gaussian stays a
        # (badly conditioned) basis here, so bounds exist but spread out
        A, B = gabor_system(16, 4, 4).bounds
        assert 0 < A < B

    def test_window_decay_constant_frozen_values(self):
        assert stft_decay_constant(gaussian_window(16), [4.0]) == pytest.approx([3.876335964998297], rel=1e-10)
        assert stft_decay_constant(gaussian_window(64), [4.0]) == pytest.approx([3.878250581674542], rel=1e-10)

    @pytest.mark.parametrize("N", [16, 64])
    def test_window_decay_constant_equals_the_pointwise_scan(self, N):
        # Reference: one (x, omega) point at a time, with the normalized
        # torus distance to the origin; the grid computes the same products
        # exactly.
        g = gaussian_window(N)
        V = np.abs(stft(g, g))
        scale = np.sqrt(N)
        want = []
        for s in (2.0, 8.0):
            best = 0.0
            for x in range(N):
                for w in range(N):
                    dx, dw = (min(c, N - c) / scale for c in (x, w))
                    best = max(best, V[x, w] * (1.0 + np.sqrt(dx**2 + dw**2)) ** s)
            want.append(best)
        assert stft_decay_constant(g, (2.0, 8.0)) == want

    def test_moderate_interplay_inequality(self):
        res = moderate_interplay_check(gabor_system(32, 2, 4), t=2.0, s=4.0)
        assert res["ok"]
        assert res["lhs"] <= res["moderateness"] * res["rhs"] + 1e-12


class TestExperiment:
    def test_frozen_conditions_and_ratios(self):
        out = sweep(GaborFamily([16, 32, 64]), {"type": "polynomial", "t": 2.0}, UNIT_SPEC, ps=(2,), seed=0)
        conds = [e["condition"] for e in out["entries"]]
        np.testing.assert_allclose(
            conds,
            [1.733800749850008, 2.332935391513329, 2.8055489502169504],
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            out["condition_ratios"], [conds[1] / conds[0], conds[2] / conds[1]], rtol=1e-12
        )
        for e in out["entries"]:
            assert e["status"] == "ok"
            assert e["report"]["lower"] > 0

    def test_decay_constants_stable_across_sizes(self):
        out = sweep(GaborFamily([32, 64]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=0)
        sc = out["decay_scaling"]["gram_normalized"]
        vals = [sc[k] for k in sorted(sc)]
        assert max(vals) / min(vals) < 1.05

    def test_raw_gram_decay_is_the_pipeline_profile(self, monkeypatch):
        # gram_raw[N] is step (ii)'s profile of G: the same Gram on the same
        # raw index set at the same s, so the driver does not scan it again.
        requests, passes = [], []
        decay, run = matalg.PairScan.decay, matalg.PairScan.run
        monkeypatch.setattr(matalg.PairScan, "decay", lambda self, *a: requests.append(a[1]) or decay(self, *a))
        monkeypatch.setattr(matalg.PairScan, "run", lambda self: passes.append(self) or run(self))
        out = sweep(GaborFamily([16, 32]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=0)
        # Per size, one pass: the family's four (the normalized G and dual
        # Gram, two for the interplay check), then step (ii)'s five profiles.
        assert len(requests) == 9 * 2
        assert len(passes) == 2
        # The family declares its lattice, so the pass reads G's row 0: the
        # profile is the lattice table's value, and the all-pairs maximum
        # within 1e-12.
        for e in out["entries"]:
            fr = gabor_system(e["N"], e["a"], e["b"])
            want = lattice_decay(fr, fr, 4.0, fr.index_set, *TFLattice(e["N"], e["a"], e["b"]).shape)
            assert e["report"]["decay_profiles"]["G"] == want
            assert out["decay_scaling"]["gram_raw"][str(e["N"])] == want
            dense = float((np.abs(fr.gram_matrix) * (1.0 + fr.index_set.distance_matrix()) ** 4.0).max())
            assert want == pytest.approx(dense, rel=1e-12, abs=0)

    def test_critical_lattice_reports_failure_entry(self):
        out = sweep(GaborFamily([16], a_ratio=4, b_ratio=4), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=0)
        entry = out["entries"][0]
        # redundancy 1 with the rank check passing means tiny lower bound or
        # an explicit not_a_frame flag; either way no exception escapes
        assert entry["status"] in ("ok", "not_a_frame")
        assert out["condition_ratios"] == []

    def test_rectangular_ratios_change_the_lattice(self):
        out = sweep(GaborFamily([32], a_ratio=16, b_ratio=4), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=0)
        e = out["entries"][0]
        assert (e["a"], e["b"]) == (2, 8)
        assert e["n_vectors"] == 32 * 32 // (2 * 8)
