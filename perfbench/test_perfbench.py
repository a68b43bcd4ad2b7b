"""Unit tests for the benchmark's pure helpers, on hand-made inputs.

Run with: python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402


def test_side_width_upper_and_lower():
    assert checks.side_width(100.0, 10.0, "upper") == pytest.approx(1.0)
    assert checks.side_width(0.5, 50.0, "lower") == pytest.approx(2.0)


def test_side_width_inverted_bracket_is_negative():
    assert checks.side_width(10.0, 100.0, "upper") == pytest.approx(-1.0)
    assert checks.side_width(50.0, 0.5, "lower") == pytest.approx(-2.0)


def test_side_width_degenerate_ends_are_capped():
    assert checks.side_width(0.0, 3.0, "lower") == checks.WIDTH_CAP
    assert checks.side_width(math.inf, 3.0, "upper") == checks.WIDTH_CAP


def test_bracket_width_is_the_median_side():
    assert checks.bracket_width_log10([3.0, 0.5, 1.0, 9.0]) == pytest.approx(2.0)


def test_digit_cap():
    assert checks.digits(0.0) == checks.DIGIT_CAP
    assert checks.digits(1e-14) == checks.DIGIT_CAP
    assert checks.digits(3.4e-2) == 1
    assert checks.digits(2e-12) == checks.DIGIT_CAP
    assert checks.digits(5e-7) == 6
    assert checks.digits(1.0) == 0
    assert checks.digits(7.0) == 0


def test_capped_rel_err_floor_and_missing_values():
    assert checks.capped_rel_err(1.0 + 1e-15, 1.0) == checks.REL_ERR_FLOOR
    assert checks.capped_rel_err(1.51445, 1.46402) == pytest.approx(0.034446, rel=1e-4)
    assert checks.capped_rel_err(0.0, 5.1) == 1.0
    assert checks.capped_rel_err(None, 5.1) == 1.0
    assert checks.capped_rel_err(math.nan, 5.1) == 1.0


def _row(verdict, lower="1.5", upper="20.0", condition="13.3"):
    return {"verdict": verdict, "lower": lower, "upper": upper, "condition": condition}


def test_contradiction_detection():
    assert checks.row_defects(_row("fail"), None) == ["fail verdict with positive, finite constants"]
    assert checks.row_defects(_row("ok"), None) == []
    # A zero lower constant with a fail verdict is consistent, not a contradiction.
    assert checks.row_defects(_row("fail", lower="0.0", condition="inf"), None) == []


def test_row_hard_failures():
    assert checks.row_defects(_row("ok", lower=""), None) == ["missing value"]
    assert checks.row_defects(_row("ok", upper="nan"), None) == ["nan"]
    assert checks.is_hard(["nan"]) and not checks.is_hard(["fail verdict with positive, finite constants"])


def test_bracket_inversion_detection():
    good = {"lower": [0.5, 0.9], "upper": [3.0, 4.0]}
    assert checks.row_defects(_row("ok"), good) == []
    bad = {"lower": [0.95, 0.9], "upper": [4.5, 4.0]}
    assert checks.row_defects(_row("ok"), bad) == [
        "certified lower inside sampled lower",
        "certified upper inside sampled upper",
    ]


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children():
    s = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 4.0, 8.0), _span(3, 2, 5.0, 6.0)]
    got = spans.self_times(s)
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_self_time_merges_overlaps_and_clips_children():
    s = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 5.0, 7.0), _span(3, 0, 9.0, 12.0)]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_from_nested_spans():
    s = [
        _span(0, None, 0.0, 10.0, "cli.main"),
        dict(_span(1, 0, 1.0, 9.0, "coorbit.pipeline"), n=4),
        dict(_span(2, 1, 2.0, 4.0, "linalg.svd"), kind="svd", flops=2e9, nxn=True),
        dict(_span(3, 1, 4.0, 5.0, "linalg.eigh"), kind="eigh", flops=1e9, nxn=False),
        _span(4, 1, 5.0, 7.0, "coorbit.map_constants.p1"),
        dict(_span(5, 1, 7.0, 7.5, "frames.dual"), build=True),
        dict(_span(6, 1, 7.5, 8.0, "frames.dual"), build=False),
    ]
    m = spans.layer_metrics(s)
    assert m["coorbit.pipeline_self_s"] == pytest.approx(2.0)
    assert m["coorbit.map_constants_s.p1"] == pytest.approx(2.0)
    assert m["coorbit.map_constants_calls"] == 1
    assert m["linalg.svd_calls"] == 1 and m["linalg.factorizations"] == 2
    assert m["linalg.nxn_factorizations_per_pipeline"] == 1.0
    assert m["linalg.gflop_computed"] == pytest.approx(3.0)
    assert (m["frames.dual_calls"], m["frames.dual_builds"]) == (2, 1)
    assert m["trace.unattributed_share"] == pytest.approx(0.2)


def test_tracer_counts_only_the_outermost_linalg_call():
    np = pytest.importorskip("numpy")
    a = np.eye(6) + 0.1 * np.arange(36).reshape(6, 6)
    original = np.linalg.svd
    with spans.Tracer() as tr:
        outer = tr._linalg_wrapper("linalg.pinv", "pinv", lambda x: np.linalg.svd(x, compute_uv=False))
        outer(a)
        np.linalg.svd(a, compute_uv=False)
    assert [s["name"] for s in tr.spans] == ["linalg.pinv", "linalg.svd"]
    assert np.linalg.svd is original
