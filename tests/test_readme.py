"""README drift: the documented command lines, verify ids and verify flags
must be the ones the command line accepts. Nothing is executed; lines are
only parsed and their options resolved: verify flags against the check's
keyword parameters, compute and relative surfaces into their bundles."""
import pathlib
import re
import shlex

import pytest

from refsev import cli, conjectures
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


def _verify_flag_table() -> dict:
    """check id -> {flag: default} from the README's verify flag table."""
    text = _section("Command line").split("| verify id | flags (default) |\n|---|---|\n", 1)[1]
    table = {}
    for row in text.split("\n\n", 1)[0].splitlines():
        ids, flags = row.strip("|").split("|")
        for ident in ids.strip().split(", "):
            cid = cli.verify_id(ident)
            assert cid not in table, f"{cid} has two rows"
            table[cid] = {flag: int(default)
                          for flag, default in re.findall(r"(--[\w-]+) \((-?\d+)\)", flags)}
            assert table[cid] or flags.strip() == "none", row
    return table


def test_readme_verify_flag_table_lists_every_id():
    assert sorted(_verify_flag_table()) == sorted(CHECK_IDS)


@pytest.mark.parametrize("conj_id", CHECK_IDS)
def test_readme_verify_flags(conj_id):
    # verify passes the flags given straight to the check, each to the
    # keyword parameter of its name, so the README row is the check's
    # parameters that are verify flags, with the check's own defaults
    flags = {conjectures.option(name): default
             for name, default in conjectures.check_parameters(conj_id).items()
             if name in cli.VERIFY_RANGE_FLAGS}
    assert _verify_flag_table().get(conj_id) == flags
