"""Command-line interface: exit codes, report files, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framelift import cli
from framelift.cli import _entry_rows, main
from framelift.coorbit import FrameFamily, sweep
from framelift.fock import FockFamily, FockLattice, embed_truncated
from framelift.frames import random_frame
from framelift.gabor import GaborFamily, gabor_system
from framelift.matalg import _Factored, upper_constant
from framelift.multipliers import _coefficient_maps, multiplier
from framelift.weights import UNIT_SPEC, Weight
from tests.reference import load_matrix_csv, load_matrix_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestVerify:
    def test_onb_config_passes_with_zero_residuals(self, tmp_path):
        rc = main(["verify", "--config", str(CONFIGS / "verify_onb.json"), "--out", str(tmp_path)])
        assert rc == 0
        rep = _read_json(tmp_path / "identities.json")
        assert rep["ok"] is True
        assert max(rep["residuals"].values()) <= 1e-10

    def test_gabor_config_passes(self, tmp_path):
        rc = main(
            ["verify", "--config", str(CONFIGS / "verify_gabor32.json"), "--out", str(tmp_path)]
        )
        assert rc == 0
        rep = _read_json(tmp_path / "identities.json")
        assert rep["ok"] is True

    def test_seed_moves_the_spectral_suite_scans(self, tmp_path):
        # --seed reaches the spectral suite's inner ends, as it reaches the
        # coercivity draws: each equals upper_constant at the run's seed.
        config = CONFIGS / "verify_gabor32.json"
        cfg = _read_json(config)
        frame = cli.build_frame(cfg["frame"], 0)
        mu, m = (Weight.from_spec(spec, frame.index_set) for spec in (cfg["mu"], cfg["weights"][0]))
        A, B = (_Factored(x) for x in _coefficient_maps(frame, multiplier(mu, frame), m, m))
        inner = {}
        for seed in (0, 1):
            out = tmp_path / str(seed)
            assert main(["verify", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0
            inner[seed] = _read_json(out / "identities.json")["spectral_suite"]["constants"]["w0_p1"]["norm"][0]
            assert inner[seed] == upper_constant(A, B, 1, seed)[0]
        assert inner[0] != inner[1]

    def test_impossible_tolerance_fails_gracefully(self, tmp_path):
        rc = main(
            [
                "verify",
                "--config",
                str(CONFIGS / "verify_gabor32.json"),
                "--out",
                str(tmp_path),
                "--tol",
                "1e-30",
            ]
        )
        assert rc == 1
        assert (tmp_path / "identities.json").exists()

    def test_makes_no_nxn_factorization(self, tmp_path, nxn_factorizations):
        cfg = CONFIGS / "verify_gabor32.json"  # Gabor N = 32, a = 2, b = 4: n = 128, d = 32
        square = nxn_factorizations(128)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert _read_json(tmp_path / "identities.json")["frame"]["n"] == 128
        assert square == []

    def test_one_svd_of_the_weighted_analysis_matrix(self, tmp_path, monkeypatch):
        # coercivity_check factors X = diag(sqrt(mu)) C once, with the one
        # thin SVD every coefficient map gets, and the extremes cross-check
        # in residuals reads those singular values.
        psi = gabor_system(32, 2, 4)  # verify_gabor32.json's frame, mu t = 2
        X = np.sqrt(Weight.polynomial(psi.index_set, 2.0).values)[:, None] * psi.analysis_matrix
        svd, hits = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            if np.shape(a) == X.shape and np.array_equal(a, X):
                hits.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert main(["verify", "--config", str(CONFIGS / "verify_gabor32.json"), "--out", str(tmp_path)]) == 0
        assert hits == [True]
        rep = _read_json(tmp_path / "identities.json")
        assert rep["residuals"]["coercivity_extremes_agreement"] <= 1e-13
        assert "extremes_agreement" not in rep["coercivity"]

    def test_family_that_is_not_a_frame_is_a_config_error(self, tmp_path, capsys):
        # The kernels of a Fock lattice embedded at the default degree span
        # less than C^{Dmax+1}: the family has no canonical dual.
        spec = {"type": "fock", "delta": 0.8, "R": 1.5}
        cfg = _write(tmp_path, "fock.json", {"kind": "verify", "frame": spec})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        lower, upper = cli.build_frame(spec, seed=0).bounds
        assert err.startswith("config error: bad frame spec: family is not a frame")
        assert f"{lower:.3e}" in err and f"{upper:.3e}" in err
        assert list((tmp_path / "out").iterdir()) == []


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["verify", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_missing_kind(self, tmp_path):
        cfg = _write(tmp_path, "nokind.json", {"frame": {"type": "onb", "d": 4}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_lattice_parameter(self, tmp_path):
        rc = main(
            ["verify", "--config", str(CONFIGS / "invalid_a0.json"), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_kind_command_mismatch(self, tmp_path):
        rc = main(
            ["lift", "--config", str(CONFIGS / "invalid_a0.json"), "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "command, config, kind",
        [
            ("verify", "export_gabor_frame.json", "export"),
            ("verify", "lift_gabor.json", "gabor"),
            ("export", "verify_onb.json", "verify"),
            ("export", "lift_scalar_onb.json", "custom-frame"),
        ],
    )
    def test_kind_names_its_subcommand(self, tmp_path, capsys, command, config, kind):
        # verify runs only kind "verify" and export only kind "export"; the
        # run stops before --out is made.
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"'{kind}'" in err and f"'{command}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, key, sizes", [("lift_gabor.json", "Ns", [16, 16]), ("lift_fock.json", "R_list", [2, 2.0])]
    )
    def test_duplicate_size_is_a_config_error(self, tmp_path, capsys, config, key, sizes):
        # Found after the family has normalized the sizes: R = 2 and 2.0 are one R.
        cfg = _write(tmp_path, "dup.json", dict(_read_json(CONFIGS / config), **{key: sizes}))
        out = tmp_path / "out"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "twice" in err
        assert list(out.iterdir()) == []

    def test_invalid_p_value(self, tmp_path):
        cfg = _write(
            tmp_path,
            "badp.json",
            {
                "kind": "verify",
                "frame": {"type": "onb", "d": 4},
                "weights": [{"type": "constant", "value": 1.0}],
                "ps": [0.5],
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_infinity_token_in_ps_reads_as_inf(self, tmp_path):
        # json accepts the bare token Infinity; it means p = inf, like "Infinity".
        p = tmp_path / "infp.json"
        p.write_text(
            '{"kind": "custom-frame", "frame": {"type": "onb", "d": 4}, "ps": [2, Infinity]}'
        )
        assert main(["lift", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "lifting_table.csv", newline="") as fh:
            assert [r["p"] for r in csv.DictReader(fh)] == ["2", "inf"]

    def test_bool_p_value_is_rejected(self, tmp_path):
        cfg = _write(
            tmp_path,
            "boolp.json",
            {"kind": "custom-frame", "frame": {"type": "onb", "d": 4}, "ps": [True]},
        )
        assert main(["lift", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("ps", [[1, 1, 2], [2, 2.0], ["inf", "Infinity"], [3.5, "inf", 3.5]])
    def test_duplicate_p_is_a_config_error(self, tmp_path, capsys, ps):
        # Duplicates are found after normalization: 2 and 2.0 are one p, as are
        # "inf" and "Infinity".
        cfg = _write(tmp_path, "dup.json", dict(_read_json(CONFIGS / "lift_scalar_onb.json"), ps=ps))
        assert main(["lift", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "lifting_table.csv").exists()

    @pytest.mark.parametrize(
        "config, key, sizes",
        [
            ("lift_gabor.json", "Ns", "[16.5]"),
            ("lift_gabor.json", "Ns", "[16.0]"),
            ("lift_gabor.json", "Ns", "[true]"),
            ("lift_gabor.json", "Ns", '["16"]'),
            ("lift_fock.json", "R_list", "[Infinity]"),
            ("lift_fock.json", "R_list", "[NaN]"),
            ("lift_fock.json", "R_list", "[0]"),
            ("lift_fock.json", "R_list", "[2.0, -1]"),
            ("lift_fock.json", "R_list", '["2.0"]'),
            ("lift_fock.json", "R_list", "[true]"),
            ("lift_gabor.json", "redundancy", "4.7"),
            ("lift_gabor.json", "redundancy", "0"),
            ("lift_gabor.json", "redundancy", "true"),
            ("lift_gabor.json", "a_ratio", "-4"),
            ("lift_gabor.json", "a_ratio", "true"),
            ("lift_gabor.json", "a_ratio", "0"),
            ("lift_gabor.json", "b_ratio", "4.5"),
            ("lift_gabor.json", "a_ratio", "32"),
            ("lift_gabor.json", "b_ratio", "17"),
            ("lift_gabor.json", "t_check", "true"),
            ("lift_gabor.json", "t_check", '"2"'),
            ("lift_gabor.json", "t_check", "-1"),
            ("lift_fock.json", "delta", "true"),
            ("lift_fock.json", "jitter", "true"),
            ("lift_fock.json", "jitter", "-0.1"),
            ("lift_fock.json", "margin", "true"),
            ("lift_fock.json", "margin", '"0.5"'),
            ("export_gabor_frame.json", "frame", '{"type": "fock", "delta": 0.8, "R": 1.5, "seed": 1.5}'),
            ("export_gabor_frame.json", "frame", '{"type": "fock", "delta": 0.8, "R": 1.5, "jitter": true}'),
            ("export_gabor_frame.json", "frame", '{"type": "fock", "delta": true, "R": 1.5}'),
            ("export_gabor_frame.json", "frame", '{"type": "fock", "delta": 0.8, "R": "1.5"}'),
            ("verify_onb.json", "frame", '{"type": "onb", "d": true}'),
            ("verify_onb.json", "frame", '{"type": "gabor", "N": 16.5, "a": 2, "b": 2}'),
            ("verify_onb.json", "frame", '{"type": "gabor", "N": 16, "a": 2.9, "b": 2}'),
            ("verify_onb.json", "frame", '{"type": "random", "n": 12.5, "d": 4}'),
            ("verify_onb.json", "frame", '{"type": "random", "n": 12, "d": 4, "seed": 1.5}'),
        ],
    )
    def test_invalid_size_is_a_config_error(self, tmp_path, capsys, config, key, sizes):
        # N, lattice ratios, redundancy and frame sizes are positive
        # integers, a lattice ratio is at most N, seeds are nonnegative
        # integers, and R, delta, jitter, margin and t_check finite nonnegative
        # numbers: a bool, a string, a fraction or a value out of range is
        # rejected before anything runs, not truncated, clamped or divided by.
        text = json.dumps(dict(_read_json(CONFIGS / config), **{key: "@"})).replace('"@"', sizes)
        path = tmp_path / "sizes.json"
        path.write_text(text)
        command = config.split("_")[0] if config.startswith(("verify", "export")) else "lift"
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("margin", [-0.5, -1e-9])
    def test_negative_margin_is_a_config_error(self, tmp_path, capsys, margin):
        cfg = _write(tmp_path, "margin.json", dict(_read_json(CONFIGS / "lift_fock.json"), margin=margin))
        assert main(["lift", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "margin" in capsys.readouterr().err

    def test_non_object_weight_spec_is_rejected(self, tmp_path):
        cfg = _write(tmp_path, "badmu.json", {"kind": "gabor", "Ns": [16], "mu": 2})
        assert main(["lift", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, config",
        [
            ("verify", "verify_onb.json"),
            ("lift", "lift_scalar_onb.json"),
            ("export", "export_gabor_frame.json"),
        ],
    )
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, config):
        argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path)]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "config error:" in capsys.readouterr().err
        cfg = dict(_read_json(CONFIGS / config), seed=-1)
        argv[2] = _write(tmp_path, "negseed.json", cfg)
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "command, config, override, flags",
        [
            ("verify", "verify_onb.json", {"tol": "abc"}, []),
            ("verify", "verify_onb.json", {"tol": True}, []),
            ("verify", "verify_onb.json", {"tol": -1}, []),
            ("verify", "verify_onb.json", {}, ["--tol", "-1"]),
            ("verify", "verify_onb.json", {}, ["--tol", "nan"]),
            ("verify", "verify_onb.json", {}, ["--tol", "inf"]),
            ("verify", "verify_onb.json", {"s": "x"}, []),
            ("lift", "lift_scalar_onb.json", {"s": True}, []),
            ("lift", "lift_scalar_onb.json", {"s": -4.0}, []),
        ],
    )
    def test_bad_tol_or_s_is_a_config_error(self, tmp_path, capsys, command, config, override, flags):
        cfg = _write(tmp_path, "bad.json", dict(_read_json(CONFIGS / config), **override))
        assert main([command, "--config", cfg, "--out", str(tmp_path)] + flags) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag", [("lift", "--tol"), ("export", "--tol"), ("lift", "--threads")]
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(
                [command, "--config", str(CONFIGS / "lift_gabor.json"), "--out", str(tmp_path)]
                + [flag, "1"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("config, first_n", [("lift_gabor.json", 64), ("lift_fock.json", 9)])
    @pytest.mark.parametrize("key", ["mu", "m"])
    @pytest.mark.parametrize("spec", ["constant", "values", "no-type", "empty"])
    def test_family_lift_reads_weight_specs(self, tmp_path, capsys, config, first_n, key, spec):
        # Every size reads the spec on its own index set: a constant runs, a
        # values spec as long as the first size's index set runs on that
        # size alone and fails on the second, and a spec without a type fails.
        spec = {
            "constant": {"type": "constant", "c": 1.0},
            "values": {"type": "values", "values": [1.0] * first_n},
            "no-type": {"t": 2.0},
            "empty": {},
        }[spec]
        base = dict(_read_json(CONFIGS / config), **{key: spec})
        if spec.get("type") == "values":
            sizes = "Ns" if "Ns" in base else "R_list"
            one = _write(tmp_path, "one.json", dict(base, **{sizes: base[sizes][:1]}))
            assert main(["lift", "--config", one, "--out", str(tmp_path / "one")]) == 0
        rc = main(["lift", "--config", _write(tmp_path, "spec.json", base), "--out", str(tmp_path)])
        if spec.get("type") == "constant":
            assert rc == 0
            return
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "lift_report.json").exists()

    @pytest.mark.parametrize(
        "config, override",
        [
            ("verify_onb.json", {"mu": None}),
            ("verify_onb.json", {"weights": [None]}),
            ("export_gabor_frame.json", {"what": "multiplier", "mu": None}),
            ("lift_scalar_onb.json", {"mu": None}),
            ("lift_scalar_onb.json", {"m": None}),
            ("lift_gabor.json", {"mu": None}),
            ("lift_gabor.json", {"m": None}),
            ("lift_fock.json", {"mu": None}),
            ("lift_fock.json", {"m": None}),
            ("lift_fock_subcritical.json", {"mu": None}),
        ],
        ids=[
            "verify-mu", "verify-weights", "export-mu", "custom-mu", "custom-m",
            "gabor-mu", "gabor-m", "fock-mu", "fock-m", "fock-no-frame-mu",
        ],
    )
    def test_null_weight_spec_is_a_config_error(self, tmp_path, capsys, config, override):
        cfg = dict(_read_json(CONFIGS / config), **override)
        command = {"verify": "verify", "export": "export"}.get(cfg["kind"], "lift")
        path = _write(tmp_path, "null.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key, spec",
        [
            ("verify_onb.json", "mu", '{"type": "polynomial", "t": 1e400}'),
            ("lift_scalar_onb.json", "mu", '{"type": "constant", "c": 1e400}'),
            ("lift_scalar_onb.json", "m", '{"type": "values", "values": [1e400%s]}' % (", 1" * 11)),
            ("lift_gabor.json", "mu", '{"type": "polynomial", "t": 1e400}'),
            ("lift_gabor.json", "m", '{"type": "constant", "c": 1e400}'),
            ("lift_fock.json", "mu", '{"type": "constant", "c": 1e400}'),
            ("lift_fock.json", "m", '{"type": "polynomial", "t": 1e400}'),
        ],
        ids=["t", "c", "values", "gabor-mu", "gabor-m", "fock-mu", "fock-m"],
    )
    def test_non_finite_weight_is_a_config_error(self, tmp_path, capsys, config, key, spec):
        # json reads 1e400 as inf.
        text = json.dumps(dict(_read_json(CONFIGS / config), **{key: "@"})).replace('"@"', spec)
        path = tmp_path / "inf.json"
        path.write_text(text)
        command = "verify" if config.startswith("verify") else "lift"
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: '{key}':" in err
        assert "finite" in err

    @pytest.mark.parametrize("command", ["verify", "lift", "export"])
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("vectors_real", np.nan),
            ("vectors_imag", np.inf),
            ("points", np.nan),
            ("points", -np.inf),
            ("period", np.nan),
            ("period", np.inf),
        ],
    )
    def test_non_finite_json_frame_is_a_bad_frame_spec(self, tmp_path, capsys, command, field, bad):
        # json writes and reads NaN and Infinity.
        frame = gabor_system(8, 2, 2).to_dict()
        if field == "points":
            frame["index_set"]["points"][1][0] = bad
        elif field == "period":
            frame["index_set"]["period"] = bad
        else:
            frame[field][3] = bad
        spec = {"type": "json", "path": _write(tmp_path, "frame.json", frame)}
        cfg = {
            "verify": {"kind": "verify", "frame": spec},
            "lift": {"kind": "custom-frame", "frame": spec, "ps": [1, 2]},
            "export": {"kind": "export", "what": "gram", "name": "G", "frame": spec},
        }[command]
        out = tmp_path / "out"
        assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad frame spec:")
        assert "finite" in err
        assert list(out.iterdir()) == []

    def test_unknown_frame_type(self, tmp_path):
        cfg = _write(
            tmp_path,
            "badframe.json",
            {
                "kind": "verify",
                "frame": {"type": "wavelet", "d": 4},
                "weights": [{"type": "constant", "value": 1.0}],
                "ps": [2],
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestWriteAtomic:
    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "identities.json").mkdir(parents=True)
        assert main(["verify", "--config", str(CONFIGS / "verify_onb.json"), "--out", str(out)]) == 2
        assert "i/o error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["identities.json"]
        assert (out / "identities.json").is_dir()

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            cli.write_atomic(tmp_path / "report.json", "\ud800")
        assert list(tmp_path.iterdir()) == []


class TestLift:
    def test_gabor_experiment_writes_reports_and_table(self, tmp_path):
        rc = main(["lift", "--config", str(CONFIGS / "lift_gabor.json"), "--out", str(tmp_path)])
        assert rc == 0
        merged = _read_json(tmp_path / "lift_report.json")
        assert len(merged["entries"]) == 3
        with open(tmp_path / "lifting_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [r["size"] for r in rows] == ["16", "32", "64"]
        for r in rows:
            assert r["verdict"] == "ok"
            assert float(r["lower"]) > 0
        for N in (16, 32, 64):
            assert (tmp_path / f"lift_N{N}.json").exists()
        dat = (tmp_path / "lifting_table.dat").read_text()
        assert dat.startswith("# ")

    def test_subcritical_fock_fails_all_sizes(self, tmp_path):
        rc = main(
            ["lift", "--config", str(CONFIGS / "lift_fock_subcritical.json"), "--out", str(tmp_path)]
        )
        assert rc == 1
        with open(tmp_path / "lifting_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(r["verdict"] == "fail" for r in rows)
        assert all(r["condition"] == "inf" for r in rows)

    def test_scalar_symbol_on_onb_gives_unit_constants(self, tmp_path):
        rc = main(
            ["lift", "--config", str(CONFIGS / "lift_scalar_onb.json"), "--out", str(tmp_path)]
        )
        assert rc == 0
        with open(tmp_path / "lifting_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["p"] for r in rows} == {"1", "2", "inf"}
        for r in rows:
            assert float(r["lower"]) == pytest.approx(1.0, abs=1e-10)
            assert float(r["upper"]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "config, experiment",
        [
            (
                "lift_gabor.json",
                lambda cfg: sweep(
                    GaborFamily(cfg["Ns"], redundancy=4), cfg["mu"], cfg["m"], ps=[2], s=4.0, seed=0
                ),
            ),
            (
                "lift_fock.json",
                lambda cfg: sweep(
                    FockFamily(0.8, cfg["R_list"], margin=0.5, seed=1),
                    cfg["mu"],
                    UNIT_SPEC,
                    ps=[2],
                    s=4.0,
                    seed=1,
                ),
            ),
        ],
    )
    def test_report_is_one_library_call(self, tmp_path, config, experiment):
        cfg = _read_json(CONFIGS / config)
        out = tmp_path / "cli"
        assert main(["lift", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        want = dict(experiment(cfg), schema_version=cli.SCHEMA_VERSION, seed=cfg["seed"], config=cfg)
        cli._dump_json(tmp_path / "want.json", want)
        assert (out / "lift_report.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_gabor_lift_with_constant_mu_matches_custom_frame(self, tmp_path):
        mu = {"type": "constant", "c": 3}
        gabor = _write(tmp_path, "gabor.json", {"kind": "gabor", "Ns": [16], "mu": mu})
        frame = {"type": "gabor", "N": 16, "a": 2, "b": 2}
        custom = _write(tmp_path, "custom.json", {"kind": "custom-frame", "frame": frame, "mu": mu})
        assert main(["lift", "--config", gabor, "--out", str(tmp_path / "gabor")]) == 0
        assert main(["lift", "--config", custom, "--out", str(tmp_path / "custom")]) == 0
        want = _read_json(tmp_path / "custom" / "lift_size64.json")["entry"]
        got = _read_json(tmp_path / "gabor" / "lift_N16.json")["entry"]
        assert (got["a"], got["b"]) == (2, 2)
        assert got["report"]["per_p_results"] == want["report"]["per_p_results"]

    def test_fock_lift_with_constant_mu_gives_unit_weight_constants(self, tmp_path):
        # M_c = c S, and the weights m sqrt(c), m / sqrt(c) scale both sides
        # of the lifting inequality alike: every constant mu = c gives the
        # constants of mu = 1.
        reports = {}
        for c in (1.0, 5.0):
            cfg = dict(_read_json(CONFIGS / "lift_fock.json"), mu={"type": "constant", "c": c})
            out = tmp_path / str(c)
            path = _write(tmp_path, "fock.json", cfg)
            assert main(["lift", "--config", path, "--out", str(out)]) == 0
            reports[c] = _read_json(out / "lift_report.json")["entries"]
        for unit, scaled in zip(reports[1.0], reports[5.0]):
            assert scaled["status"] == "ok"
            for key in ("lower", "upper"):
                assert scaled["report"][key] == pytest.approx(unit["report"][key], rel=1e-12)

    @pytest.mark.parametrize("key", ["a_ratio", "b_ratio"])
    def test_lone_lattice_ratio_stands_for_both(self, tmp_path, key):
        cfg = _write(tmp_path, "ratio.json", {"kind": "gabor", "Ns": [16], key: 4})
        main(["lift", "--config", cfg, "--out", str(tmp_path)])
        entry = _read_json(tmp_path / "lift_report.json")["entries"][0]
        assert (entry["a"], entry["b"]) == (4, 4)

    def test_tables_and_files_are_keyed_by_the_entry_size(self, tmp_path):
        # An integer R is the float R = 4.0 in its entry, its file name and
        # every per-size table.
        cfg = _write(tmp_path, "fock.json", dict(_read_json(CONFIGS / "lift_fock.json"), R_list=[2, 2.5]))
        assert main(["lift", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "lift_report.json")
        assert [e["R"] for e in report["entries"]] == [2.0, 2.5]
        assert set(report["gram_decay_scaling"]) == {"2.0", "2.5"}
        assert (tmp_path / "lift_R2.0.json").exists()
        with open(tmp_path / "lifting_table.csv", newline="") as fh:
            assert [r["size"] for r in csv.DictReader(fh)] == ["2.0", "2.5"]

    def test_margin_beyond_the_radius_leaves_a_one_dimensional_core(self, tmp_path):
        # R - margin is clamped at 0: the core is C^1, inside the bulk C^8.
        cfg = dict(_read_json(CONFIGS / "lift_fock.json"), R_list=[1.5], margin=4.0)
        assert main(["lift", "--config", _write(tmp_path, "fock.json", cfg), "--out", str(tmp_path)]) == 0
        entry = _read_json(tmp_path / "lift_R1.5.json")["entry"]
        assert (entry["K_core"], entry["K_verdict"], entry["status"]) == (1, 8, "ok")

    def test_custom_frame_that_is_not_a_frame_fails(self, tmp_path):
        # 4 Gabor vectors cannot span C^16.
        cfg = _write(
            tmp_path,
            "nonframe.json",
            {
                "kind": "custom-frame",
                "frame": {"type": "gabor", "N": 16, "a": 8, "b": 8},
                "ps": [1, 2],
            },
        )
        out = tmp_path / "out"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 1
        with open(out / "lifting_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["p"] for r in rows] == ["1", "2"]
        for r in rows:
            assert (r["size"], r["verdict"], r["condition"]) == ("4", "fail", "inf")
        entry = _read_json(out / "lift_size4.json")["entry"]
        assert entry["status"] == "not_a_frame"
        assert entry["condition"] == float("inf")
        assert entry["lower"] <= 1e-8 * entry["upper"]


class TestRows:
    def test_entry_report_is_the_pipeline_dict_and_rows(self, rng):
        fr = random_frame(rng, 8, 4)
        mu = {"type": "values", "values": rng.uniform(0.5, 2.0, 8).tolist()}
        out = sweep(FrameFamily(fr), mu, UNIT_SPEC, ps=(2, np.inf))
        assert set(out) == {"entries", "condition_ratios"}
        [entry] = out["entries"]
        report = entry["report"]
        assert set(report) == {
            "lower", "upper", "condition", "per_p_results", "verdicts",
            "residuals", "decay_profiles", "moderateness", "metadata",
        }
        assert entry["condition"] == report["condition"] == report["per_p_results"]["2"]["condition"]
        rows = _entry_rows(entry, [2, np.inf], "size")
        assert {r["p"] for r in rows} == {"2", "inf"}
        for r in rows:
            assert set(r) == {"size", "p", "weight", "lower", "upper", "condition", "verdict"}
            assert r["size"] == 8
            assert r["verdict"] == "ok"


class TestExport:
    def test_exported_frame_reads_back_as_a_json_frame_spec(self, tmp_path):
        # export_gabor_frame.json exports the Gabor frame N = 16, a = b = 2.
        exported = CONFIGS / "export_gabor_frame.json"
        assert main(["export", "--config", str(exported), "--out", str(tmp_path)]) == 0
        spec = {"type": "json", "path": str(tmp_path / "gabor16_frame.json")}
        back, want = cli.build_frame(spec, seed=0), gabor_system(16, 2, 2)
        np.testing.assert_array_equal(back.vectors, want.vectors)
        idx, want_idx = back.index_set, want.index_set
        np.testing.assert_array_equal(idx.points, want_idx.points)
        assert (idx.metric, idx.period) == (want_idx.metric, want_idx.period)
        # Exporting the read-back frame writes the same bytes again.
        cfg = {"kind": "export", "what": "frame", "name": "again", "frame": spec}
        again = _write(tmp_path, "again.json", cfg)
        assert main(["export", "--config", again, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "gabor16_frame.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exported_gram_reads_back_exactly(self, tmp_path, fmt):
        frame = {"type": "gabor", "N": 16, "a": 2, "b": 4}
        cfg = {"kind": "export", "what": "gram", "format": fmt, "name": "G", "frame": frame}
        assert main(["export", "--config", _write(tmp_path, "gram.json", cfg), "--out", str(tmp_path)]) == 0
        if fmt == "json":
            got = load_matrix_json(tmp_path / "G.json")
        else:
            got = load_matrix_csv(tmp_path / "G_real.csv", tmp_path / "G_imag.csv")
        np.testing.assert_array_equal(got, gabor_system(16, 2, 4).gram_matrix)

    @pytest.mark.parametrize("what", ["gram", "multiplier"])
    def test_csv_bytes_are_those_of_csv_writer(self, tmp_path, what):
        # The excel dialect of csv.writer: repr of each float, rows ended by \r\n.
        frame = {"type": "gabor", "N": 16, "a": 2, "b": 4}
        mu = {"type": "polynomial", "t": 2.0}
        cfg = {"kind": "export", "what": what, "format": "csv", "name": "A", "frame": frame, "mu": mu}
        assert main(["export", "--config", _write(tmp_path, "a.json", cfg), "--out", str(tmp_path)]) == 0
        psi = gabor_system(16, 2, 4)
        A = psi.gram_matrix if what == "gram" else multiplier(Weight.polynomial(psi.index_set, 2.0), psi)
        for suffix, part in (("real", A.real), ("imag", A.imag)):
            want = io.StringIO()
            csv.writer(want).writerows([repr(float(x)) for x in row] for row in part)
            got = (tmp_path / f"A_{suffix}.csv").read_bytes()
            assert got == want.getvalue().encode()
            assert got.count(b"\r\n") == len(part)

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(
            [
                "export",
                "--config",
                str(CONFIGS / "export_gabor_frame.json"),
                "--out",
                str(blocker / "sub"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "name", ["../escaped", "ABSOLUTE", "sub/G", "sub\\G", "", ".", "..", "G\0", ["G"], 3, None]
    )
    def test_name_that_is_not_a_bare_file_name_is_a_config_error(self, tmp_path, capsys, name):
        if name == "ABSOLUTE":
            name = str(tmp_path / "absolute")
        (tmp_path / "run" / "out" / "sub").mkdir(parents=True)  # so "sub/G" would be writable
        cfg = {"kind": "export", "what": "gram", "name": name, "frame": {"type": "onb", "d": 2}}
        path = _write(tmp_path, "gram.json", cfg)
        assert main(["export", "--config", path, "--out", str(tmp_path / "run" / "out")]) == 2
        assert "'name' must be a bare file name" in capsys.readouterr().err
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == [Path(path)]

    def test_fock_spec_reads_every_field(self):
        spec = {"type": "fock", "delta": 0.8, "R": 2.0, "jitter": 0.05, "seed": 3}
        want = embed_truncated(FockLattice(delta=0.8, R=2.0, jitter=0.05, seed=3))
        back = cli.build_frame(spec, seed=0)
        np.testing.assert_array_equal(back.vectors, want.vectors)
        np.testing.assert_array_equal(back.index_set.points, want.index_set.points)


class TestDeterminism:
    def _run_lift(self, out):
        rc = main(["lift", "--config", str(CONFIGS / "lift_gabor.json"), "--out", str(out)])
        assert rc == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a = self._run_lift(tmp_path / "a")
        b = self._run_lift(tmp_path / "b")
        assert a == b


def _run_module(*args) -> subprocess.CompletedProcess:
    """``python -m framelift.cli`` with ``args`` in a child process that
    imports the same framelift sources as this one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "framelift.cli", *args], capture_output=True, text=True, env=env)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = _run_module("verify", "--config", str(CONFIGS / "verify_onb.json"), "--out", str(tmp_path))
        assert proc.returncode == 0
        assert (tmp_path / "identities.json").exists()

    def test_symbol_whose_b_norm_squares_past_overflow_lifts_to_a_report(self, tmp_path):
        # Gabor N = 32 with mu polynomial t = 100: sigma_max(B_w) is 3.5e175,
        # whose square overflows. Golub-Kahan runs on B_w scaled by a power
        # of two, so the size ends as an uncertified report, not an error.
        spec = {"kind": "gabor", "Ns": [32], "redundancy": 4, "mu": {"type": "polynomial", "t": 100}, "ps": [2]}
        out = tmp_path / "out"
        proc = _run_module("lift", "--config", _write(tmp_path, "t100.json", spec), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        report = _read_json(out / "lift_N32.json")["entry"]["report"]
        residuals = report["residuals"]
        assert residuals["B_certificate_margin"] == np.inf and not report["verdicts"]["all_steps"]
        assert residuals["step_iv"]["2"]["B_norm"] == pytest.approx(3.45e175, rel=1e-3)
        with open(out / "lifting_table.csv", newline="") as fh:
            assert [r["verdict"] for r in csv.DictReader(fh)] == ["fail"]

    def test_a_numerical_failure_on_one_size_keeps_the_other_sizes(self, tmp_path):
        # Gabor with mu polynomial t = 170: at N = 32 the Golub-Kahan start
        # product overflows to inf, which sigma_max reports as a LinAlgError
        # with no warning. That size is a numerical_error entry with fail
        # rows whose note names the overflow; the finished N = 16 report is
        # still written, and the run is no config error.
        spec = {"kind": "gabor", "Ns": [16, 32], "redundancy": 4, "mu": {"type": "polynomial", "t": 170}, "ps": [1, 2, "inf"]}
        out = tmp_path / "out"
        proc = _run_module("lift", "--config", _write(tmp_path, "t170.json", spec), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert _read_json(out / "lift_N16.json")["entry"]["status"] == "ok"
        entry = _read_json(out / "lift_N32.json")["entry"]
        assert entry["status"] == "numerical_error" and entry["condition"] == np.inf
        assert entry["note"] == "the Golub-Kahan start product A v_1 overflowed"
        assert "report" not in entry
        assert [e["status"] for e in _read_json(out / "lift_report.json")["entries"]] == ["ok", "numerical_error"]
        with open(out / "lifting_table.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["size"] == "32"]
        assert [(r["p"], r["lower"], r["upper"], r["verdict"]) for r in rows] == [
            (p, "", "", "fail") for p in ("1", "2", "inf")
        ]

    def test_overflowing_step_iii_probe_reads_inf_not_nan(self, tmp_path):
        # Gabor N = 32 with mu polynomial t = 150: mu spans about 1e278, so
        # the probe products of step (iii) overflow and inf - inf would be
        # NaN. The residual reads inf and fails its check, with no warning.
        spec = {"kind": "gabor", "Ns": [32], "redundancy": 4, "mu": {"type": "polynomial", "t": 150}, "ps": [2]}
        out = tmp_path / "out"
        proc = _run_module("lift", "--config", _write(tmp_path, "t150.json", spec), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        for path in out.iterdir():
            assert "NaN" not in path.read_text(), path.name
        report = _read_json(out / "lift_N32.json")["entry"]["report"]
        assert report["residuals"]["step_iii_identity"] == np.inf
        assert not report["verdicts"]["step_iii_ok"] and not report["verdicts"]["all_steps"]

    def test_overflowing_weight_ratio_leaves_no_nan(self, tmp_path):
        # mu from 1e-200 to 1e200 on an orthonormal basis: some ratios
        # mu_k / mu_l overflow. G = I, so each weighted decay profile is 1;
        # mu's moderateness is inf and flagged.
        spec = {
            "kind": "custom-frame",
            "frame": {"type": "onb", "d": 4},
            "mu": {"type": "values", "values": [1e-200, 1, 1, 1e200]},
            "ps": [1, 2, 3, "inf"],
        }
        out = tmp_path / "out"
        proc = _run_module("lift", "--config", _write(tmp_path, "onb.json", spec), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        for path in out.iterdir():
            assert "NaN" not in path.read_text(), path.name
        report = _read_json(out / "lift_report.json")["entries"][0]["report"]
        assert report["decay_profiles"] == {"G": 1.0, "G^mu": 1.0, "G^(1/mu)": 1.0, "Gdual^mu": 1.0, "cross^mu": 1.0}
        assert report["moderateness"]["mu"]["constant"] == np.inf and report["moderateness"]["mu"]["flagged"]

    def test_overflowing_weight_prints_the_config_error_alone(self, tmp_path):
        # (1 + |x|)^400 overflows on the Gabor index sets: the run ends as a
        # config error, and numpy's overflow warning does not reach stderr.
        cfg = _write(tmp_path, "t400.json", dict(_read_json(CONFIGS / "lift_gabor.json"), mu={"type": "polynomial", "t": 400}))
        proc = _run_module("lift", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("config error: 'mu':")
