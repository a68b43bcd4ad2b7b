"""Every shipped config's outputs, byte for byte, against its recorded golden.

The goldens under ``tests/goldens`` are written by ``tests/goldens.py
record`` alone; a change that moves an output byte re-records them and
quotes ``tests/goldens.py diff`` in its change notes.
"""

import json
import shutil

import pytest

from tests import goldens

CONFIGS = goldens.shipped_configs()


def test_every_shipped_config_has_one_golden():
    recorded = {p.name for p in goldens.GOLDENS.iterdir() if p.is_dir()}
    assert recorded == {c.stem for c in CONFIGS}


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_golden_bytes(config, tmp_path):
    goldens.record([config], tmp_path)
    want = goldens.golden_files(goldens.GOLDENS / config.stem)
    got = goldens.golden_files(tmp_path / config.stem)
    moves = goldens.moved_fields(want, got)
    assert got == want, "\n".join(f"{path}: {a!r} -> {b!r}" for path, a, b, _ in moves[:20])


def _copy(tmp_path, stem):
    copy = tmp_path / stem
    shutil.copytree(goldens.GOLDENS / stem, copy)
    return copy


def test_a_one_byte_change_is_one_moved_field(tmp_path):
    copy = _copy(tmp_path, "lift_gabor")
    report = copy / "out" / "lift_report.json"
    text = report.read_text()
    key = '"B_certificate_margin": '
    at = text.index(key) + len(key)
    digit = text[at]
    report.write_text(text[:at] + ("2" if digit == "1" else "1") + text[at + 1 :])
    old, new = goldens.golden_files(goldens.GOLDENS / "lift_gabor"), goldens.golden_files(copy)
    assert old != new
    [(path, a, b, move)] = goldens.moved_fields(old, new)
    assert path == "out/lift_report.json.entries[0].report.residuals.B_certificate_margin"
    assert a != b and move > 0


def test_a_moved_exit_code_and_table_cell_are_reported(tmp_path):
    copy = _copy(tmp_path, "lift_scalar_onb")
    run = json.loads((copy / goldens.RUN_FILE).read_text())
    (copy / goldens.RUN_FILE).write_text(json.dumps(dict(run, exit_code=1), sort_keys=True, indent=2) + "\n")
    table = copy / "out" / "lifting_table.csv"
    lines = table.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * 2)
    table.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    moves = goldens.moved_fields(goldens.golden_files(goldens.GOLDENS / "lift_scalar_onb"), goldens.golden_files(copy))
    assert {(path, move) for path, _, _, move in moves} == {
        ("out/lifting_table.csv[1].lower", 1.0),
        ("run.json.exit_code", float("inf")),
    }
