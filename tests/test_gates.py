"""The CLI's gate table: every check a report emits has one row, every row is emitted,
each relation holds at its edge, and README's gate table equals it row for row."""

import json
import math
import operator
import re
from pathlib import Path

import pytest

from halfspace_bubbles import cli

from conftest import fixture_spec

ROOT = Path(__file__).resolve().parents[1]

SYMBOLS = {"≤": operator.le, "≥": operator.ge, "<": operator.lt, ">": operator.gt}

# every subcommand with checks, on small grids
CALLS = {
    "verify": ["verify", "--grid", "4", "--n-random", "50"],
    "moving-spheres": ["moving-spheres", "--grid", "4", "--n-lambda", "5"],
    "ball": ["ball"],
    "radial": ["radial"],
    "halfline": ["halfline"],
}


def stem(name: str) -> str:
    """The gate row a check reads: ``fd_slope_gap_1`` reads ``fd_slope_gap``."""
    return re.sub(r"_\d+$", "", name)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Call id -> report of every subcommand on f1-f4, f3's half-line from u0 = 1e8
    and f2's sweep that ends below the critical radius, the one report of
    ``critical_radius_found``."""
    tmp = tmp_path_factory.mktemp("gates")
    calls = {}
    for name in ("f1", "f2", "f3", "f4"):
        spec = fixture_spec(name)
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"N": spec.N, "m": spec.m, "A": spec.A.tolist(),
                                    "B": spec.B.tolist(), "c": spec.c.tolist()}))
        calls.update({f"{name}.{command}": [*argv, "--spec", str(path)]
                      for command, argv in CALLS.items()})
    calls["f3.halfline-1e8"] = [*CALLS["halfline"], "--u0", "1e8", "--spec", str(tmp / "f3.json")]
    calls["f2.moving-spheres-no-crossing"] = [*CALLS["moving-spheres"], "--lambda-hi", "1.5",
                                              "--spec", str(tmp / "f2.json")]
    out = {}
    for call_id, argv in calls.items():
        report = tmp / f"{call_id}.json"
        cli.main([*argv, "--out", str(report)])
        out[call_id] = json.loads(report.read_text())
    return out


@pytest.fixture(scope="module")
def emitted(reports):
    """Gate row -> the subcommands whose reports emit a check of it."""
    rows = {}
    for report in reports.values():
        for check in report["checks"]:
            rows.setdefault(stem(check["name"]), set()).add(report["command"])
    return rows


def test_every_emitted_check_has_a_row_and_every_row_is_emitted(emitted):
    assert set(emitted) == set(cli.GATES)


def test_reports_carry_each_rows_threshold_and_verdict(reports):
    for report in reports.values():
        for check in report["checks"]:
            relation, threshold = cli.GATES[stem(check["name"])]
            if check["name"] != "value_at_crossing":
                assert check["threshold"] == threshold
            assert check["passed"] == relation(check["value"], check["threshold"])


def test_value_at_crossing_threshold_scales_with_the_largest_start(reports):
    check = {c["name"]: c for c in reports["f3.halfline-1e8"]["checks"]}["value_at_crossing"]
    assert check["threshold"] == 1e-10 * 1e8
    assert check["passed"]


def test_sweep_without_a_crossing_fails_critical_radius_found(reports):
    report = reports["f2.moving-spheres-no-crossing"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["critical_radius_found"]["passed"] is False
    assert report["passed"] is False


@pytest.mark.parametrize("name", sorted(cli.GATES))
def test_nan_fails_every_row(name):
    assert cli._check(name, math.nan)["passed"] is False


@pytest.mark.parametrize("name", sorted(cli.GATES))
def test_each_row_is_strict_or_not_at_its_threshold(name):
    relation, threshold = cli.GATES[name]
    assert cli._check(name, threshold)["passed"] is (relation in (operator.le, operator.ge))


def test_relation_edges():
    tiny = math.ulp(0.0)
    assert cli._check("containment_strict", 1.0)["passed"] is False
    assert cli._check("containment_strict", math.nextafter(1.0, 0.0))["passed"] is True
    assert cli._check("certificate_found", 0.0)["passed"] is False
    assert cli._check("certificate_found", tiny)["passed"] is True
    for name in ("min_w_below_critical", "min_w_above_critical"):
        assert cli._check(name, 0.0)["passed"] is True
        assert cli._check(name, -tiny)["passed"] is False


def test_per_component_check_reads_its_stem_and_scale_multiplies():
    check = cli._check("ball_boundary_slope_gap_12", 0.1)
    assert check == {"name": "ball_boundary_slope_gap_12", "value": 0.1, "threshold": 0.1,
                     "passed": True}
    assert cli._check("value_at_crossing", 3e-4, scale=4e6)["threshold"] == 1e-10 * 4e6


def readme_gate_rows() -> list[tuple[str, str, str, str]]:
    """(check, subcommand, relation, threshold) cells of README's gate table."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| check | subcommand | relation | threshold |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    return rows


def test_readme_gate_table_equals_the_gates(emitted):
    rows = readme_gate_rows()
    assert [check.removesuffix("_<i>") for check, *_ in rows] == list(cli.GATES)
    for check, command, symbol, threshold in rows:
        name = check.removesuffix("_<i>")
        assert (SYMBOLS[symbol], float(threshold.split(" × ")[0])) == cli.GATES[name]
        assert {command} == emitted[name]
