"""The pair scan's lattice route against its slab route.

A Gabor lift declares its lattice on the scan (``GaborFamily.extras``), so
every decay and moderateness constant is read from row 0 of each table and
one ratio table per weight, in place of all n^2 pairs. The two routes must
agree: moderateness constants bit for bit, decay constants within 1e-12
relative, and every other report field exactly. A declared lattice is
checked, not trusted.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from framelift import matalg
from framelift.coorbit import sweep
from framelift.gabor import GaborFamily, TFLattice, gabor_system
from framelift.weights import SYMBOL_SPEC, TORUS, IndexSet, Weight
from tests.reference import (
    dense_decay,
    dense_moderateness,
    dense_subexponential,
    gabor_decay_oracle,
    lattice_differences,
    ratio_table,
)

DECAY_RTOL = 1e-12
M_SPEC = {"type": "polynomial", "t": 1.0}  # m != 1, so all five weights differ


def _split(report: dict) -> tuple:
    """(decay constants, the rest) of a pipeline report: the interplay's lhs
    and rhs and the decay profiles are the fields the lattice route moves."""
    rest = {k: v for k, v in report.items() if k != "decay_profiles"}
    interplay = dict(rest["metadata"]["interplay"])
    rest["metadata"] = {**rest["metadata"], "interplay": interplay}
    moved = {**report["decay_profiles"], "lhs": interplay.pop("lhs"), "rhs": interplay.pop("rhs")}
    return moved, rest


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaborFamily([16]),
        lambda: GaborFamily([32]),
        lambda: GaborFamily([64]),
        lambda: GaborFamily([32], a_ratio=16, b_ratio=4),  # a = 2, b = 8: a 16 x 4 lattice
    ],
    ids=["N16", "N32", "N64", "rect16x4"],
)
def test_lattice_route_matches_the_slab_route(monkeypatch, make):
    lattice = sweep(make(), SYMBOL_SPEC, M_SPEC, ps=(2,), s=4.0)
    monkeypatch.setattr(matalg.PairScan, "on_lattice", lambda self, P, Q: None)  # the slab route
    slab = sweep(make(), SYMBOL_SPEC, M_SPEC, ps=(2,), s=4.0)
    for e_lat, e_slab in zip(lattice["entries"], slab["entries"]):
        assert e_lat["status"] == e_slab["status"] == "ok"
        moved_lat, rest_lat = _split(e_lat.pop("report"))
        moved_slab, rest_slab = _split(e_slab.pop("report"))
        assert e_lat == e_slab
        # moderateness (the pipeline's five and the interplay's), verdicts,
        # residuals, constants and the interplay's ok: exactly equal
        assert rest_lat == rest_slab
        assert moved_lat.keys() == moved_slab.keys()
        for name, value in moved_lat.items():
            assert value == pytest.approx(moved_slab[name], rel=DECAY_RTOL, abs=0), name
    for name in ("gram_normalized", "dual_gram_normalized", "gram_raw"):
        for key, value in lattice["decay_scaling"][name].items():
            assert value == pytest.approx(slab["decay_scaling"][name][key], rel=DECAY_RTOL, abs=0)
    assert lattice["window_decay"] == slab["window_decay"]
    assert lattice["condition_ratios"] == slab["condition_ratios"]


def _covariant(P: int, Q: int, rng) -> np.ndarray:
    """An n x n complex matrix with a_kl = c(l - k) on the P x Q lattice."""
    n = P * Q
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return c[lattice_differences(P, Q)]


# (N, a, b, SLAB_ROWS) of the table formula cases; each lattice is P x Q.
TABLE_CASES = [(12, 2, 2, 5), (36, 9, 4, 5), (36, 4, 9, 7), (15, 3, 5, 256)]


def test_table_cases_cover_rows_cut_and_rows_whole():
    # _ratio_table cuts each row of Q differences into pieces of at most
    # SLAB_ROWS: the cases below hold rows of several pieces (Q > SLAB_ROWS,
    # one of them a last piece shorter than the others) and rows of one.
    shapes = [(TFLattice(N, a, b).shape[1], rows) for N, a, b, rows in TABLE_CASES]
    assert any(Q > rows and Q % rows for Q, rows in shapes)
    assert any(Q <= rows for Q, rows in shapes)


@pytest.mark.parametrize("N, a, b, slab_rows", TABLE_CASES, ids=["6x6", "4x9", "9x4", "5x3-whole-rows"])
def test_lattice_constants_equal_the_table_formulas(monkeypatch, N, a, b, slab_rows):
    # Q > SLAB_ROWS cuts each row of differences into pieces; Q <= SLAB_ROWS
    # makes each row one piece.
    monkeypatch.setattr(matalg, "SLAB_ROWS", slab_rows)
    lat = TFLattice(N, a, b)
    (P, Q), idx = lat.shape, lat.index_set()
    rng = np.random.default_rng(N + a)
    A = _covariant(P, Q, rng)
    w, m = np.exp(rng.uniform(-3.0, 3.0, lat.n)), Weight.polynomial(idx, 2.0).values
    scan = matalg.PairScan(lat.n)
    scan.on_lattice(P, Q)
    key = scan.matrix("A", lambda i0, i1, out: A[i0:i1])
    js = {
        "decay": scan.decay(key, 3.5, idx),
        "decay_w": scan.decay(key, 3.5, idx, w),
        "moderate_w": scan.moderateness(w, 1.5, idx),
        "moderate_m": scan.moderateness(m, 2.0, idx),
        "moderate_1": scan.moderateness(np.full(lat.n, 3.0), 2.0, idx),
        "subexp_w": scan.subexponential(w, 0.7, 0.5, idx),
    }
    out = scan.run()
    values = {name: out[j] for name, j in js.items()}
    growth = (1.0 + idx.distances(0, 1)[0]) ** 3.5
    assert values["decay"] == float((np.abs(A[0]) * growth).max())
    assert values["decay_w"] == float((np.abs(A[0]) * ratio_table(w, P, Q) * growth).max())
    assert values["decay_w"] == pytest.approx(dense_decay(A, 3.5, idx, w), rel=DECAY_RTOL, abs=0)
    # Division by a positive float commutes with the max: the dense values
    # bit for bit.
    assert values["moderate_w"] == dense_moderateness(w, 1.5, idx)
    assert values["moderate_m"] == dense_moderateness(m, 2.0, idx)
    assert values["moderate_1"] == dense_moderateness(np.full(lat.n, 3.0), 2.0, idx) == 1.0
    assert values["subexp_w"] == dense_subexponential(w, 0.7, 0.5, idx)


def _gabor_scan(P, Q, psi, key_rows=None):
    scan = matalg.PairScan(psi.n)
    scan.on_lattice(P, Q)
    key = scan.gram(psi) if key_rows is None else scan.matrix("A", key_rows)
    scan.decay(key, 4.0, psi.index_set)
    return scan


def test_a_matrix_that_is_not_covariant_raises():
    psi = gabor_system(12, 2, 2)
    P, Q = 6, 6
    _gabor_scan(P, Q, psi).run()  # G itself passes
    G = psi.gram_matrix.copy()
    G[-1, 3] *= 1.0 + 1e-6  # one entry of the row the scan checks
    with pytest.raises(ValueError, match="registered matrix is not covariant"):
        _gabor_scan(P, Q, psi, lambda i0, i1, out: G[i0:i1]).run()
    A = np.random.default_rng(0).standard_normal((psi.n, psi.n)) + 0j
    with pytest.raises(ValueError, match="registered matrix is not covariant"):
        _gabor_scan(P, Q, psi, lambda i0, i1, out: A[i0:i1]).run()


def test_a_wrong_lattice_shape_raises():
    # The 16 x 4 lattice of a = 2, b = 8 at N = 32, declared as 4 x 16.
    psi = gabor_system(32, 2, 8)
    _gabor_scan(16, 4, psi).run()
    with pytest.raises(ValueError, match="not covariant"):
        _gabor_scan(4, 16, psi).run()
    with pytest.raises(ValueError, match="does not have the scan's 64 points"):
        matalg.PairScan(psi.n).on_lattice(8, 4)


def test_an_index_set_that_is_not_covariant_raises():
    lat = TFLattice(12, 2, 2)
    A = _covariant(6, 6, np.random.default_rng(1))
    line = IndexSet(lat.points)  # Euclidean: no wrap-around
    scan = matalg.PairScan(lat.n)
    scan.on_lattice(6, 6)
    scan.decay(scan.matrix("A", lambda i0, i1, out: A[i0:i1]), 2.0, line)
    with pytest.raises(ValueError, match="distance table is not covariant"):
        scan.run()
    scan = matalg.PairScan(lat.n)
    scan.on_lattice(6, 6)
    scan.moderateness(np.ones(lat.n), 2.0, IndexSet(lat.points, TORUS, 12.0))
    assert scan.run() == [1.0]


def test_lattice_scan_holds_no_more_than_the_slab_block():
    # Gabor N = 128: n = 512, two slabs of 256 rows. The slab route's one
    # block holds (growth tables + 2) real and two complex SLAB_ROWS x n
    # buffers; the lattice route holds one SLAB_ROWS x n block of quotients
    # and vectors of length n (it measured 1.21 blocks of quotients here).
    lat = TFLattice.balanced(128, 4)
    psi = gabor_system(lat.N, lat.a, lat.b)
    dual = psi.canonical_dual()
    n, idx, (P, Q) = psi.n, psi.index_set, lat.shape
    mu = Weight.polynomial(idx, 2.0).values

    def peak(lattice: bool) -> int:
        scan = matalg.PairScan(n)
        if lattice:
            scan.on_lattice(P, Q)
        for v in (mu, np.sqrt(mu), 1.0 / np.sqrt(mu)):
            scan.moderateness(v, 4.0, idx)
        G = scan.gram(psi)
        for mat, w in ((G, None), (G, mu), (G, 1.0 / mu), (scan.gram(dual), mu), (scan.gram(psi, dual), mu)):
            scan.decay(mat, 4.0, idx, w)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            scan.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    unit = matalg.SLAB_ROWS * n * np.dtype(float).itemsize
    slab_block = (1 + 2 + 2 * 2) * unit  # one growth table (idx, 4.0)
    lattice_peak, slab_peak = peak(True), peak(False)
    assert slab_peak >= slab_block
    assert lattice_peak < 1.5 * unit < slab_block


def test_lattice_route_is_closer_to_the_mpmath_decay_constants():
    # N = 16 (n = 64): the Gabor system, S^{-1} and every Gram in 30-digit
    # mpmath against the two float routes. The lattice route reads row 0,
    # whose vectors carry the least rounding; the all-pairs maximum also
    # reads the rounding of every other row.
    oracle = gabor_decay_oracle(16)
    assert sorted(oracle) == sorted(f"{m}/{x}" for m in ("G", "Gdual", "cross") for x in ("raw", "normalized"))
    for name, entry in oracle.items():
        assert entry["lattice"] < 1e-14, name
        assert entry["all_pairs"] < 1e-13, name
        assert entry["closer"] == "lattice", name


@pytest.mark.parametrize("lattice", [False, True], ids=["slab", "lattice"])
def test_an_overflowing_weight_ratio_is_inf_and_a_zero_entry_stays_zero(lattice):
    # w spans 1e-200 to 1e200, so some quotients w_k / w_l overflow. Such a
    # ratio is inf, with no warning; a zero entry times it contributes 0,
    # not NaN, so the identity's weighted decay constants read 1.
    idx = IndexSet([(0, 0), (0, 1), (1, 0), (1, 1)], TORUS, 2.0)  # the 2 x 2 torus lattice
    w, eye = np.array([1e-200, 1.0, 1.0, 1e200]), np.eye(4, dtype=complex)
    scan = matalg.PairScan(4)
    if lattice:
        scan.on_lattice(2, 2)
    key = scan.matrix("I", lambda i0, i1, out: eye[i0:i1])
    js = [scan.decay(key, 4.0, idx, w), scan.decay(key, 4.0, idx, 1.0 / w), scan.moderateness(w, 2.0, idx)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = scan.run()
    assert [values[j] for j in js] == [1.0, 1.0, np.inf]
