"""Every module of the package parses at the Python version pyproject.toml
declares as its floor."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(x) for x in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "refsev").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
