"""Check `refsev solve-B --format json` outputs against the embedded tables.

Reads a JSON list of {"stdout", "order", "y"} on stdin and prints a JSON
list of booleans: true when the printed B1 and B2 equal modular.b_series
(y "sym") or modular.b_bar_series (y "-1") to the requested order. Needs
src/ on PYTHONPATH.
"""
from __future__ import annotations

import json
import sys

from refsev import modular
from refsev.qseries import QSeries


def matches(stdout: str, order: int, y: str) -> bool:
    table = modular.b_series if y == "sym" else modular.b_bar_series
    try:
        rows = json.loads(stdout)["rows"]
        got = [QSeries.from_dict(r["value"]) for r in rows]
    except (ValueError, KeyError, TypeError):
        return False
    return got == [table(1, order), table(2, order)]


def main() -> int:
    spec = json.load(sys.stdin)
    print(json.dumps([matches(s["stdout"], s["order"], s["y"]) for s in spec]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
