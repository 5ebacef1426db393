"""Every module of the package, and every helper module of the tests (the
oracles and the floor-diagram model they cross-check against), parses at
the Python version pyproject.toml declares as its floor."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(x) for x in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())


MODULES = sorted((ROOT / "src" / "refsev").glob("*.py")) + sorted(
    p for p in (ROOT / "tests").glob("*.py") if not p.name.startswith("test_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
