"""The mutation tool's anchors still match the package, and README lists every mutant."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_anchor_occurs_once(name):
    # an anchor that a refactor moved or duplicated would stop the tool
    # only when someone runs it; here it fails the suite
    file, old, new = MUTANTS[name]
    text = (ROOT / "src" / "halfspace_bubbles" / file).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert old != new


def test_readme_mutant_table_lists_every_mutant():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| mutant | site | mutation | result |"):]
    rows = re.findall(r"^\| `([\w-]+)` \|", table.split("\n\n")[0], flags=re.M)
    assert sorted(rows) == sorted(MUTANTS) and len(rows) == len(set(rows))
