"""Golden CLI output: the exact stdout and exit code of ``qnet`` commands on
zoo nets of all five theories, run in-process through ``cli.run``.

Each case's expected stdout is checked in under ``tests/golden/<case>.out``,
and so is the stdout of each demo script under ``scripts/``, run in-process,
and the parser's help and usage-error output at 80 columns.
A change that alters any of them changes what the CLI prints. To rewrite the
files after an intended output change, run
``PYTHONPATH=src:tests python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
from unittest import mock

import pytest

from qnets import QNet, Theory, jsonio, signed_word
from qnets.cli import run

from netzoo import (
    ELEMENTARY_NETS,
    INTEGER_NETS,
    PRE_NETS,
    TOKEN_GAME_NETS,
    elementary,
    petri,
    prenet,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
DEMOS = ["demo_token_game", "demo_individual_tokens"]


def _grp(s: str):
    """A GRP word from letters, an upper-case letter being an inverse."""
    return signed_word((c.lower(), -1 if c.isupper() else 1) for c in s)


NETS = {
    "cmon_chain": TOKEN_GAME_NETS[2],
    "cmon_cycle": TOKEN_GAME_NETS[5],
    "cmon_multi": petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1}),
                                "u": ({"c": 1}, {"a": 1})}),
    "cmon_loop": petri("a", {"t": ({"a": 1}, {"a": 1})}),
    "mon_chain": PRE_NETS[3],
    "mon_swap": PRE_NETS[5],
    "mon_small": prenet("ab", {"t": ("ab", "b")}),
    "mon_flip": prenet("ab", {"t": ("a", "b"), "u": ("b", "a")}),
    "abgrp_chain": INTEGER_NETS[3],
    "abgrp_signed": INTEGER_NETS[4],
    "abgrp_mixed": INTEGER_NETS[9],
    "grp": QNet(Theory.GRP, ("a", "b"), {"t": (_grp("a"), _grp("b")),
                                         "u": (_grp("aB"), _grp(""))}),
    "semilat_cycle": ELEMENTARY_NETS[2],
    "semilat_split": ELEMENTARY_NETS[4],
    "semilat_small": elementary("ab", {"t": ("a", "b")}),
}


def _net(name: str) -> tuple[str, str]:
    """An argv placeholder for the file holding ``NETS[name]``."""
    return ("net", name)


BAD_NET = {"theory": "CMON", "places": ["a"],
           "transitions": {"t": {"src": {"a": 1}, "tgt": {"zz": 1}}}}

# (case name, argv with _net placeholders for net files, exit code)
CASES = [
    *[(f"validate_{name}", ["validate", _net(name)], 0) for name in NETS],
    ("validate_bad", ["validate", _net("bad")], 1),
    ("translate_a", ["translate", "--via", "a", _net("cmon_multi")], 0),
    ("translate_b", ["translate", "--via", "b", _net("cmon_multi")], 0),
    ("translate_c", ["translate", "--via", "c", _net("mon_swap")], 0),
    ("translate_d", ["translate", "--via", "d", _net("mon_swap")], 0),
    ("translate_e", ["translate", "--via", "e", _net("grp")], 0),
    ("reach_cmon", ["reach", _net("cmon_cycle"), "--marking", '{"a":1,"c":1}',
                    "--steps", "3"], 0),
    ("reach_cmon_multi", ["reach", _net("cmon_multi"), "--marking", '{"a":3,"b":2}',
                          "--steps", "3"], 0),
    ("reach_mon", ["reach", _net("mon_swap"), "--marking", '["a","b","c"]',
                   "--steps", "3"], 0),
    ("reach_semilat", ["reach", _net("semilat_split"), "--marking", '["a"]',
                       "--steps", "3"], 0),
    ("reach_cmon_dot", ["reach", _net("cmon_cycle"), "--marking", '{"a":1,"c":1}',
                        "--steps", "3", "--dot"], 0),
    ("reach_mon_dot", ["reach", _net("mon_swap"), "--marking", '["a","b","c"]',
                       "--steps", "3", "--dot"], 0),
    ("reach_semilat_dot", ["reach", _net("semilat_split"), "--marking", '["a"]',
                           "--steps", "3", "--dot"], 0),
    ("homset_cmon", ["homset", _net("cmon_chain"), "--from", '{"a":2}', "--to", '{"c":2}',
                     "--layers", "4", "--width", "2"], 0),
    ("homset_cmon_loop", ["homset", _net("cmon_loop"), "--from", '{"a":2}', "--to", '{"a":2}',
                          "--layers", "2", "--width", "2"], 0),
    ("homset_mon", ["homset", _net("mon_chain"), "--from", '["a","a"]', "--to", '["c","c"]',
                    "--layers", "4", "--width", "2"], 0),
    ("homset_mon_flip", ["homset", _net("mon_flip"), "--from", '["a","b"]',
                         "--to", '["b","a"]', "--layers", "3", "--width", "2"], 0),
    ("homset_semilat", ["homset", _net("semilat_cycle"), "--from", '["a","b"]',
                        "--to", '["a"]', "--layers", "3", "--width", "2"], 0),
    ("homgroup_true", ["homgroup", _net("abgrp_chain"), "--from", '{"a":2}',
                       "--to", '{"c":1}'], 0),
    ("homgroup_false", ["homgroup", _net("abgrp_mixed"), "--from", '{"a":1}',
                        "--to", '{"c":1}'], 0),
    ("lin_cmon", ["lin", _net("cmon_multi")], 0),
    ("lin_abgrp", ["lin", _net("abgrp_signed")], 0),
    ("linsum_cmon", ["linsum", _net("cmon_multi")], 0),
    ("product_cmon", ["product", _net("cmon_chain"), _net("cmon_multi")], 0),
    ("product_mon", ["product", _net("mon_small"), _net("mon_chain")], 0),
    ("product_semilat", ["product", _net("semilat_small"), _net("semilat_cycle")], 0),
    ("coproduct_cmon", ["coproduct", _net("cmon_chain"), _net("cmon_multi")], 0),
    ("coproduct_mon", ["coproduct", _net("mon_small"), _net("mon_chain")], 0),
    ("coproduct_abgrp", ["coproduct", _net("abgrp_chain"), _net("abgrp_signed")], 0),
    ("coproduct_grp", ["coproduct", _net("grp"), _net("grp")], 0),
    ("coproduct_semilat", ["coproduct", _net("semilat_small"), _net("semilat_cycle")], 0),
    ("check_all_seed7", ["check", "--suite", "all", "--seed", "7"], 0),
]


# (golden file, argv, exit code): the parser's own output. Help goes to
# ``sys.stdout``; a usage error is one JSON line on the CLI's stderr.
USAGE_CASES = [
    ("help.out", ["--help"], 0),
    ("check_help.out", ["check", "--help"], 0),
    ("check_bogus_suite.err", ["check", "--suite", "bogus"], 2),
]


def _write_nets(directory: str) -> dict[str, str]:
    paths = {}
    for name, net in NETS.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.net_to_json(net)))
    paths["bad"] = os.path.join(directory, "bad.json")
    with open(paths["bad"], "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(BAD_NET))
    return paths


def _run(argv: list, paths: dict[str, str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run([paths[arg[1]] if isinstance(arg, tuple) else arg for arg in argv],
               stdout=out, stderr=err)
    return code, out.getvalue()


def _run_usage(argv: list) -> tuple[int, str]:
    """Exit code and the text a usage case prints, wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out):
        code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def net_paths(tmp_path_factory):
    return _write_nets(str(tmp_path_factory.mktemp("golden_nets")))


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden(name, argv, code, net_paths):
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8") as fh:
        expected = fh.read()
    assert _run(argv, net_paths) == (code, expected)


@pytest.mark.parametrize("name,argv,code", USAGE_CASES, ids=[c[0] for c in USAGE_CASES])
def test_usage_output_matches_golden(name, argv, code):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert _run_usage(argv) == (code, fh.read())


def _run_demo(name: str) -> str:
    """The stdout of ``scripts/<name>.py`` run as a script, in this process."""
    out = io.StringIO()
    saved = sys.path[:]  # each demo puts the source tree on the path
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(os.path.join(SCRIPTS, f"{name}.py"), run_name="__main__")
    finally:
        sys.path[:] = saved
    return out.getvalue()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8") as fh:
        assert _run_demo(name) == fh.read()


def test_golden_cases_cover_every_theory_and_subcommand():
    assert {net.theory for net in NETS.values()} == set(Theory)
    commands = {argv[0] for _, argv, _ in CASES}
    assert commands == {"validate", "translate", "reach", "homset", "homgroup", "lin",
                        "linsum", "product", "coproduct", "check"}
    assert {argv[2] for _, argv, _ in CASES if argv[0] == "translate"} == set("abcde")


def _regenerate() -> None:
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_nets(directory)
        for name, argv, code in CASES:
            got, out = _run(argv, paths)
            if got != code:
                sys.exit(f"{name}: exit {got}, expected {code}")
            with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8") as fh:
                fh.write(out)
    for name, argv, code in USAGE_CASES:
        got, out = _run_usage(argv)
        if got != code:
            sys.exit(f"{name}: exit {got}, expected {code}")
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(out)
    for name in DEMOS:
        with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8") as fh:
            fh.write(_run_demo(name))


if __name__ == "__main__":
    _regenerate()
