"""README drift: the documented command lines and verify ids must be the
ones the command line accepts. Nothing is executed; lines are only parsed
and their options resolved: verify flags through cli.VERIFY_FLAGS, compute
and relative surfaces into their bundles."""
import pathlib
import re
import shlex

import pytest

from refsev import cli
from refsev.caporaso import SurfaceBundle
from refsev.conjectures import CHECK_IDS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _command_lines():
    block = _section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("refsev ")]


def _verify_ids():
    text = _section("Command line").split("Known verify ids:", 1)[1]
    return re.findall(r"`([^`]+)`", text)


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_parses(line):
    args = cli.make_parser().parse_args(shlex.split(line)[1:])
    if args.command == "verify":
        cli.verify_params(args)
    elif args.command == "compute":
        cli.compute_bundles(args)
    elif args.command == "relative":
        SurfaceBundle(args.surface, args.m, args.c, args.d)


def test_readme_lists_commands_and_ids():
    assert len(_command_lines()) >= 10
    ids = _verify_ids()
    assert "cross-engine" in ids and "fhat_general_tables" in ids


@pytest.mark.parametrize("ident", _verify_ids())
def test_readme_verify_id_known(ident):
    assert cli.verify_id(ident) in CHECK_IDS
