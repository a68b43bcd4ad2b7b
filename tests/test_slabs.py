"""Every n x n quantity streams in row slabs: neither lift nor verify holds
an n x n matrix.

With SLAB_ROWS = 5 (or 7), every scan runs over several slabs, a short last
one among them, and each constant must still equal the dense formula on the
whole matrix bit for bit, on torus and Euclidean index sets alike: the pair
scans, the Gram-identity residuals and the p = 1, inf sums of |L F^+| and
|B_w|. So no report may depend on the slab size. A Gabor lift's scan reads
its declared lattice instead (tests/test_lattice_scan.py): its decay
constants are pinned to the row-0 lattice tables, and to the dense formula
within 1e-12.
"""

import filecmp
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from framelift import cli, coorbit, matalg
from framelift.coorbit import FrameFamily, lifting_theorem_pipeline, sweep
from framelift.fock import FockFamily, FockLattice, bulk_frame, fock_gram_exact
from framelift.frames import Frame, gram_identities_check, random_frame
from framelift.gabor import GaborFamily, TFLattice, gabor_system
from framelift.multipliers import _SplitCore, galerkin, multiplier, spectral_invariance_suite
from framelift.weights import SYMBOL_SPEC, UNIT_SPEC, IndexSet, Weight
from tests.reference import (
    assembled,
    dense_decay,
    dense_gram_identities,
    dense_moderateness,
    dense_subexponential,
    gram,
    lattice_decay,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def slabs_of_five(monkeypatch):
    monkeypatch.setattr(matalg, "SLAB_ROWS", 5)


def test_slabs_cover_the_rows_with_no_one_row_slab(slabs_of_five):
    assert matalg._slabs(23) == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    assert matalg._slabs(21) == [(0, 5), (5, 10), (10, 15), (15, 21)]
    assert matalg._slabs(4) == [(0, 4)]
    assert matalg._slabs(1) == [(0, 1)]


def _gabor_torus():  # n = 36 on the torus Z_12 x Z_12
    return gabor_system(12, 2, 2)


def _random_line():  # n = 23 on the line
    return random_frame(np.random.default_rng(11), 23, 6)


def _fock_plane():  # n = 21 in the plane
    return bulk_frame(FockLattice(0.8, 2.0), 9)


@pytest.mark.parametrize("make", [_gabor_torus, _random_line, _fock_plane], ids=["torus", "line", "plane"])
def test_pipeline_tables_equal_the_dense_formulas(slabs_of_five, make):
    psi = make()
    idx, s = psi.index_set, 3.5
    assert psi.n % 5 != 0
    rng = np.random.default_rng(psi.n)
    muv, mv = np.exp(rng.uniform(-3.0, 3.0, psi.n)), np.exp(rng.uniform(-1.0, 1.0, psi.n))
    rep = lifting_theorem_pipeline(psi, muv, m=mv, ps=(2,), s=s)
    dual = psi.canonical_dual()
    G, Gd, cross = gram(psi), gram(dual), gram(psi, dual)
    assert rep["decay_profiles"] == {
        "G": dense_decay(G, s, idx),
        "G^mu": dense_decay(G, s, idx, muv),
        "G^(1/mu)": dense_decay(G, s, idx, 1.0 / muv),
        "Gdual^mu": dense_decay(Gd, s, idx, muv),
        "cross^mu": dense_decay(cross, s, idx, muv),
    }
    sq = np.sqrt(muv)
    five = {"m": mv, "mu": muv, "sqrt(mu)": sq, "m*sqrt(mu)": mv * sq, "m/sqrt(mu)": mv / sq}
    assert {name: v["constant"] for name, v in rep["moderateness"].items()} == {
        name: dense_moderateness(vals, s, idx) for name, vals in five.items()
    }


def test_gabor_extras_equal_the_dense_formulas(slabs_of_five):
    # The family declares its 6 x 6 lattice, so the pass reads each Gram's
    # row 0 and one ratio table per weight: every decay constant is the
    # lattice table's value, and the all-pairs maximum within 1e-12; the
    # moderateness constant is the dense one bit for bit.
    s, t = 4.0, 2.0
    out = sweep(GaborFamily([12], a_ratio=6, b_ratio=6, t_check=t), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), s=s)
    [entry] = out["entries"]
    lat = TFLattice(12, 2, 2)
    P, Q = lat.shape
    psi = gabor_system(12, 2, 2)
    dual = psi.canonical_dual()
    idx, idx_norm = psi.index_set, lat.index_set(normalized=True)
    G, Gd = gram(psi), gram(dual)
    decay = out["decay_scaling"]
    for name, table, dense in (
        ("gram_normalized", lattice_decay(psi, psi, s, idx_norm, P, Q), dense_decay(G, s, idx_norm)),
        ("dual_gram_normalized", lattice_decay(dual, dual, s, idx_norm, P, Q), dense_decay(Gd, s, idx_norm)),
        ("gram_raw", lattice_decay(psi, psi, s, idx, P, Q), dense_decay(G, s, idx)),
    ):
        assert decay[name]["12"] == table
        assert table == pytest.approx(dense, rel=1e-12, abs=0)
    mu = Weight.polynomial(idx, t).values
    cmod = dense_moderateness(mu, t, idx)
    lhs, decay_st = lattice_decay(psi, psi, s, idx, P, Q, mu), lattice_decay(psi, psi, s + t, idx, P, Q)
    interplay = entry["report"]["metadata"]["interplay"]
    assert interplay == {"lhs": lhs, "rhs": cmod * decay_st, "moderateness": cmod, "ok": True}
    assert lhs == pytest.approx(dense_decay(G, s, idx, mu), rel=1e-12, abs=0)
    assert decay_st == pytest.approx(dense_decay(G, s + t, idx), rel=1e-12, abs=0)


def test_fock_extras_equal_the_dense_formulas(slabs_of_five):
    s = 3.0
    mu_spec = {"type": "polynomial", "t": 3.0}
    out = sweep(FockFamily(0.8, [2.0, 2.5]), mu_spec, UNIT_SPEC, ps=(2,), s=s, seed=1)
    for entry in out["entries"]:
        idx = FockLattice(0.8, entry["R"]).index_set()
        assert len(idx) % 5 != 0
        G = fock_gram_exact(idx.points[:, 0] + 1j * idx.points[:, 1])
        assert out["gram_decay_scaling"][str(entry["R"])] == {str(se): dense_decay(G, se, idx) for se in (2.0, s, 6.0)}
        mu = Weight.from_spec(mu_spec, idx).values
        assert entry["report"]["metadata"]["mu_subexponential_constant"] == dense_subexponential(mu, 1.0, 1.0, idx)


def test_fock_gram_rows_are_rows_of_the_whole_matrix():
    lam = FockLattice(0.8, 2.5, jitter=0.2).points
    rows = [fock_gram_exact(lam, (i0, min(i0 + 4, len(lam)))) for i0 in range(0, len(lam), 4)]
    assert np.array_equal(np.vstack(rows), fock_gram_exact(lam))


@pytest.mark.parametrize("make", [_gabor_torus, _random_line], ids=["torus", "line"])
def test_galerkin_decay_equals_the_dense_formula(slabs_of_five, make):
    psi = make()
    rng = np.random.default_rng(2)
    O = rng.standard_normal((psi.d, psi.d)) + 1j * rng.standard_normal((psi.d, psi.d))
    rep = spectral_invariance_suite(O, psi, [None], [2], 4.0)
    assert rep["galerkin_decay_constant"] == dense_decay(galerkin(O, psi, psi.canonical_dual()), 4.0, psi.index_set)


@pytest.fixture
def no_dense_tables(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an n x n Gram or distance matrix was read")

    monkeypatch.setattr(Frame, "gram_matrix", property(forbidden))
    monkeypatch.setattr(IndexSet, "distance_matrix", forbidden)


@pytest.mark.parametrize(
    "family",
    [
        GaborFamily([16, 32]),
        FockFamily(0.8, [2.5, 4.0]),
        FrameFamily(random_frame(np.random.default_rng(3), 30, 8)),
    ],
    ids=["gabor", "fock", "frame"],
)
def test_sweep_reads_no_gram_or_distance_matrix(no_dense_tables, family):
    out = sweep(family, family.mu_default, UNIT_SPEC, ps=(1, 2), seed=0)
    assert [e["status"] for e in out["entries"]] == ["ok"] * len(family.sizes)


def test_pipeline_peak_stays_below_5_3_nk():
    # Gabor N = 128: n = 512, d = 128, and the splitting core has k = 2d =
    # 256. Holding G, the dual Gram, the cross-Gram and their conjugated
    # copies whole peaked at 17 n k complex entries; streaming them in row
    # slabs left the peak in the core's constructor at 9.26 n k, and holding
    # the core at its factors took it to 7.40 n k. Certifying B through its
    # d x d Woodbury core, with no n x k array, left the lifting maps' thin
    # SVDs on top at 7.03 n k, then 6.03 n k. Reading the maps one at a time,
    # each left inverse gone before the other map is factored and the draws
    # made last, took the map phase to 4.28 n k: the peak, 5.20 n k, is now
    # the pair scan's row slabs on this index set, which a Gabor sweep reads
    # as a lattice instead. (LAPACK's SVD workspace is allocated outside
    # tracemalloc's view.)
    lat = TFLattice.balanced(128, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    n, d = psi.n, psi.d
    k = 2 * d
    assert (n, d) == (512, 128)
    mu = Weight.polynomial(psi.index_set, 2.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        lifting_theorem_pipeline(psi, mu, ps=(1, 2, np.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.3 * n * k * np.dtype(complex).itemsize


def test_no_left_inverse_is_alive_while_the_other_map_is_factored(monkeypatch):
    # Gabor N = 64 (n = 256, d = 64), ps 1, 2, inf: B's SVD, its left inverse
    # and the sums of |A B^+| come first, then A's. So when either thin SVD
    # with vectors runs, neither map holds a left inverse or a U, and the
    # draws are made only after both.
    lat = TFLattice.balanced(64, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    assert (psi.n, psi.d) == (256, 64)
    mu = Weight.polynomial(psi.index_set, 2.0)
    maps, held, draws_at = [], [], []
    factored, svd, draws = coorbit._Factored, np.linalg.svd, matalg._draws

    def spy_factored(M, readers=None):
        maps.append(factored(M, readers))
        return maps[-1]

    def spy_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            held.append([F._pinv is not None or ("_svd" in vars(F) and F._svd[0] is not None) for F in maps])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(coorbit, "_Factored", spy_factored)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(matalg, "_draws", lambda *args: draws_at.append(len(held)) or draws(*args))
    rep = lifting_theorem_pipeline(psi, mu, ps=(1, 2, np.inf))
    assert rep["verdicts"]["all_steps"]
    assert len(maps) == 2 and held == [[False, False], [False, False]]
    assert draws_at == [2]
    assert all(F._pinv is None and F._svd[0] is None for F in maps)


def test_splitting_core_peak_stays_below_6_nd():
    # gabor-ladder's middle size, Gabor N = 128 (n = 512, d = 128), mu t = 2:
    # step (i)'s core with its sigma and inverse norm, read as the lift reads
    # them. Past its constructor the core holds X_w, Y_w and W; -(W Y_w) is
    # formed only for a read, here the Lanczos run of the inverse norm, which
    # with its bases peaks at 4.26 n d (4.52 n d while the core kept it). An
    # n x 2d QR beside the buffer it reads and the Q it returns peaked at
    # 7.45 n d. (The lift's own traced peak, 10.41 n d, is in the pair scan,
    # not in the core.)
    lat = TFLattice.balanced(128, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    n, d = psi.n, psi.d
    assert (n, d) == (512, 128)
    mu = Weight.polynomial(psi.index_set, 2.0).values
    O = multiplier(1.0 / mu, psi) @ multiplier(mu, psi)
    psi.canonical_dual()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        core = _SplitCore(O, psi, w=np.sqrt(mu))
        core.sigma, core.inverse_norm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * n * d * np.dtype(complex).itemsize


@pytest.fixture(params=[5, 7], ids=["slabs5", "slabs7"])
def slab_rows(request, monkeypatch):
    monkeypatch.setattr(matalg, "SLAB_ROWS", request.param)
    return request.param


def _identity_frames():
    # n = 36 = 1 mod 5 and n = 29 = 1 mod 7 end in a slab that absorbs a
    # one-row remainder; the Gabor frame has n = 64, the basis n = d.
    return {
        "random36": random_frame(np.random.default_rng(36), 36, 8),
        "random29": random_frame(np.random.default_rng(29), 29, 7),
        "gabor16": gabor_system(16, 2, 2),
        "onb12": random_frame(np.random.default_rng(12), 12, 12, kind="onb"),
    }


@pytest.mark.parametrize("name", list(_identity_frames()))
def test_gram_identities_equal_the_dense_reference(slab_rows, name):
    frame = _identity_frames()[name]
    assert gram_identities_check(frame) == dense_gram_identities(frame)


def _dense_sums(T) -> tuple:
    a = np.abs(T)
    return float(a.sum(axis=0).max()), float(a.sum(axis=1).max())


@pytest.mark.parametrize("n, d", [(36, 8), (29, 7)])
def test_product_sums_equal_the_dense_sums(slab_rows, n, d):
    rng = np.random.default_rng(n)
    A, L = (matalg._Factored(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) for _ in range(2))
    assert A.product_sums(L) == _dense_sums(L.matrix @ A.left_inverse)
    assert L.product_sums(A) == _dense_sums(A.matrix @ L.left_inverse)


@pytest.mark.parametrize("frame", ["random36", "random29", "gabor16"])
@pytest.mark.parametrize("d_core", [False, True], ids=["core2d", "coreN"])
def test_abs_sums_equal_the_dense_sums(slab_rows, frame, d_core):
    psi = _identity_frames()[frame]
    if d_core:  # 2d >= n: B_w = I + X_w Y_w is read from its factors all the same
        psi = Frame(psi.vectors[:, : 2 * psi.d - 1], IndexSet(np.arange(2 * psi.d - 1)))
    rng = np.random.default_rng(psi.n)
    O = rng.standard_normal((psi.d, psi.d)) + 1j * rng.standard_normal((psi.d, psi.d)) + 4 * np.eye(psi.d)
    core = _SplitCore(O, psi, w=np.exp(rng.uniform(-2.0, 2.0, psi.n)))
    for U, V in ((core.X, core.Y), (core.X, core.inverse_factor)):  # B_w and its Woodbury inverse
        norms = matalg.operator_norm(U, V, [1, np.inf], None)
        assert (norms[1], norms[np.inf]) == _dense_sums(assembled(U, V))


@pytest.mark.parametrize("phase", ["gram_identities_check", "spectral_invariance_suite"])
def test_verify_phase_peak_stays_below_half_an_n_by_n_array(phase):
    # n / d = 64: any n x n complex array alone would break the bound,
    # while the slab buffers (SLAB_ROWS x n) and the n x d factors fit.
    psi = random_frame(np.random.default_rng(4), 2048, 32)
    n = psi.n
    mu = Weight.polynomial(psi.index_set, 2.0)
    M = multiplier(mu, psi)
    psi.canonical_dual()  # built before either phase, as verify builds it first
    weights = [None, Weight.polynomial(psi.index_set, 1.0)]
    run = {
        "gram_identities_check": lambda: gram_identities_check(psi),
        "spectral_invariance_suite": lambda: spectral_invariance_suite(M, psi, weights, [1, 2, np.inf], 4.0),
    }[phase]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(complex).itemsize / 2


def test_gram_identities_peak_stays_below_11_5_nd():
    # verify-1024's frame, Gabor N = 128, a = 2, b = 8: n = 1024, d = 128.
    # The slab block (5 SLAB_ROWS n floats, 5 n d here), U and the four d x n
    # right factors make 10 n d. Whole conjugated copies of C and Cd held
    # beside them peaked at 12.69 n d; reading each slab's rows of C and Cd
    # from D and Dd, with C released once the right factors exist, leaves
    # 11.07 n d.
    psi = gabor_system(128, 2, 8)
    n, d = psi.n, psi.d
    assert (n, d) == (1024, 128)
    psi.canonical_dual()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert gram_identities_check(psi)["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.5 * n * d * np.dtype(complex).itemsize


def _run_commands(out: Path, tmp_path: Path) -> None:
    lift = tmp_path / "lift_gabor_two_sizes.json"
    lift.write_text(json.dumps({"kind": "gabor", "Ns": [16, 32], "mu": SYMBOL_SPEC, "ps": [1, 2, "inf"], "seed": 0}))
    assert cli.main(["verify", "--config", str(CONFIGS / "verify_gabor32.json"), "--out", str(out / "verify")]) == 0
    assert cli.main(["lift", "--config", str(lift), "--out", str(out / "lift")]) == 0


def test_reports_do_not_depend_on_the_slab_size(tmp_path, monkeypatch):
    _run_commands(tmp_path / "default", tmp_path)
    monkeypatch.setattr(matalg, "SLAB_ROWS", 5)
    _run_commands(tmp_path / "slabs5", tmp_path)
    for command in ("verify", "lift"):
        names = sorted(p.name for p in (tmp_path / "default" / command).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "slabs5" / command).iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "default" / command, tmp_path / "slabs5" / command, names, shallow=False
        )
        assert (mismatch, errors) == ([], [])
