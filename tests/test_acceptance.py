"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so a log scan shows the whole
suite's verdict at a glance. Tolerances and runtime budgets are asserted,
not just reported.
"""

import csv
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from framelift.cli import main as cli_main
from framelift.coorbit import coercivity_check, lifting_theorem_pipeline, sweep
from framelift.fock import (
    FockFamily,
    FockLattice,
    beurling_density_lower,
    embed_truncated,
    fock_gram_exact,
)
from framelift.frames import gram_identities_check, random_frame
from framelift.gabor import GaborFamily
from framelift.multipliers import galerkin, invertibility_verdicts, multiplier
from framelift.weights import SYMBOL_SPEC, UNIT_SPEC
from tests.reference import diag_lift, op_from_matrix, weighted_norm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL criterion {number}: {label} (took {elapsed:.1f}s, budget {budget}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s")
    print(f"PASS criterion {number}: {label}")


def _rel(err, scale):
    return err / max(scale, 1e-300)


def test_criterion_1_identity_suite():
    rng = np.random.default_rng(11)
    with criterion(1, "identity suite on 50 random frames", budget=10.0):
        for _ in range(50):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(d, 33))
            fr = random_frame(rng, n, d)
            dual = fr.canonical_dual()

            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            scale = np.linalg.norm(f)
            rec1 = fr.synthesis_matrix @ (dual.analysis_matrix @ f)
            rec2 = dual.synthesis_matrix @ (fr.analysis_matrix @ f)
            assert _rel(np.linalg.norm(rec1 - f), scale) < 1e-10
            assert _rel(np.linalg.norm(rec2 - f), scale) < 1e-10

            chk = gram_identities_check(fr, rtol=1e-10)
            assert chk["ok"], chk
            assert chk["projection_rank"] == d

            O = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            back = op_from_matrix(galerkin(O, dual, dual), fr, fr)
            assert _rel(np.abs(back - O).max(), np.abs(O).max()) < 1e-10

            mu = rng.uniform(0.5, 2.0, n)
            G = fr.gram_matrix
            comp = multiplier(1.0 / mu, fr) @ multiplier(mu, fr)
            lhs = galerkin(comp, fr, fr)
            rhs = G @ np.diag(1.0 / mu) @ G @ np.diag(mu) @ G
            assert _rel(np.abs(lhs - rhs).max(), np.abs(rhs).max()) < 1e-10

            # the proof-step identity must hold even when the split matrix
            # is numerically singular (ill-conditioned bases land there)
            report = lifting_theorem_pipeline(fr, mu, ps=(2,))
            assert report["residuals"]["step_iii_identity"] < 1e-10
            assert report["verdicts"]["verdicts_agree"]


def test_criterion_2_diagonal_lifting_isometry():
    rng = np.random.default_rng(22)
    with criterion(2, "diagonal lifting isometry, 1000 draws", budget=1.0):
        ps = [1.0, 1.5, 2.0, 3.0, np.inf]
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = rng.uniform(0.2, 5.0, n)
            mu = rng.uniform(0.2, 5.0, n)
            p = ps[rng.integers(0, len(ps))]
            lifted = diag_lift(c, mu)
            lhs = weighted_norm(lifted, p, m)
            rhs = weighted_norm(c, p, m * mu)
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_criterion_3_invertibility_transfer():
    rng = np.random.default_rng(33)
    with criterion(3, "invertibility verdict transfer, 200 operators", budget=30.0):
        matches = 0
        for i in range(200):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(d + 1, 20))
            fr = random_frame(rng, n, d)
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            s = rng.uniform(0.5, 2.0, d)
            invertible = i % 2 == 0
            if not invertible:
                k = int(rng.integers(1, d))
                s[k:] = 0.0
            O = (u * s) @ v.conj().T
            v_out = invertibility_verdicts(O, fr)
            want = bool(invertible)
            if v_out["operator"] == want and all(
                val == want for key, val in v_out.items() if key != "operator"
            ):
                matches += 1
        assert matches == 200


def test_criterion_4_coercivity():
    rng = np.random.default_rng(44)
    with criterion(4, "coercivity identity and constants"):
        fr = random_frame(rng, 14, 7)
        mu = rng.uniform(0.4, 3.0, 14)
        res = coercivity_check(fr, mu, seed=7, tol=1e-12)
        assert res["identity_ok"]
        assert res["identity_residual"] <= 1e-12

        V = fr.synthesis_matrix
        M_direct = np.einsum("ik,k,jk->ij", V, mu, V.conj())
        w = np.linalg.eigvalsh(M_direct)
        assert abs(res["ambient_constants"][0] - w[0]) <= 1e-8
        assert abs(res["ambient_constants"][1] - w[-1]) <= 1e-8

        C = fr.analysis_matrix
        Cd = fr.canonical_dual().analysis_matrix
        lhs = C.conj().T @ np.diag(mu) @ C
        rhs = Cd.conj().T @ np.diag(mu) @ Cd
        pw = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        assert abs(res["relative_constants"][0] - np.sqrt(max(pw[0], 0.0))) <= 1e-8
        assert abs(res["relative_constants"][1] - np.sqrt(pw[-1])) <= 1e-8


def test_criterion_5_gabor_uniformity():
    with criterion(5, "Gabor lifting uniformity across N", budget=300.0):
        out = sweep(
            GaborFamily([16, 32, 64, 128]), {"type": "polynomial", "t": 2.0}, UNIT_SPEC, ps=(2,), seed=0
        )
        assert len(out["entries"]) == 4
        for e in out["entries"]:
            assert e["status"] == "ok", e
            assert e["report"]["lower"] > 0
        for ratio in out["condition_ratios"]:
            assert ratio < 1.5


def test_criterion_6_fock():
    with criterion(6, "Fock frames: Gram, density, lifting", budget=300.0):
        lat = FockLattice(delta=0.8, R=2.0)
        pts = lat.points
        G = fock_gram_exact(pts)
        dist2 = np.abs(pts[:, None] - pts[None, :]) ** 2
        want = np.exp(-np.pi * dist2 / 2)
        assert np.abs(np.abs(G) - want).max() < 1e-13
        fr = embed_truncated(lat)
        assert np.abs(np.abs(fr.gram_matrix) - want).max() < 1e-8
        adjacent = np.exp(-np.pi * 1.0**2 / 2)
        assert adjacent == pytest.approx(0.207880, abs=5e-7)
        one_apart = fock_gram_exact(np.array([0.0 + 0j, 1.0 + 0j]))
        assert abs(one_apart[0, 1]) == pytest.approx(0.207880, abs=5e-7)

        proxy = beurling_density_lower(FockLattice(delta=0.8, R=2.5))
        assert abs(proxy / 1.5625 - 1.0) < 0.15

        sub = sweep(FockFamily(1.2, [2.0]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=1)
        assert sub["entries"][0]["status"] == "not_a_frame"

        out = sweep(
            FockFamily(0.8, [1.5, 2.0, 2.5]), {"type": "polynomial", "t": 2.0}, UNIT_SPEC, ps=(2,), seed=1
        )
        for e in out["entries"]:
            assert e["status"] == "ok", e
            assert e["report"]["lower"] > 0
        for growth in out["condition_ratios"]:
            assert growth < 1.5


def test_criterion_7_decay_bookkeeping():
    with criterion(7, "Gram decay constants stay bounded in N", budget=120.0):
        out = sweep(GaborFamily([32, 64, 128]), SYMBOL_SPEC, UNIT_SPEC, ps=(2,), seed=0)
        gram_c = out["decay_scaling"]["gram_normalized"]
        vals = [gram_c[k] for k in sorted(gram_c)]
        assert max(vals) / min(vals) < 1.25
        dual_c = out["decay_scaling"]["dual_gram_normalized"]
        dvals = [dual_c[k] for k in sorted(dual_c)]
        assert all(np.isfinite(v) for v in dvals)
        assert max(dvals) < 10 * max(vals)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI reports are byte-identical across runs"):
        outs = []
        for run in ("one", "two"):
            out = tmp_path / run
            rc = cli_main(
                ["lift", "--config", str(CONFIGS / "lift_gabor.json"), "--out", str(out)]
            )
            assert rc == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".json"}
            )
        assert outs[0].keys() == outs[1].keys()
        assert outs[0] == outs[1]

        rows = []
        for run in ("one", "two"):
            with open(tmp_path / run / "lifting_table.csv", newline="") as fh:
                rows.append(list(csv.reader(fh)))
        assert rows[0] == rows[1]
