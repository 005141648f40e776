"""Bounded fuzzing of the in-process CLI with malformed nets, markings and
flags, including files that are not UTF-8 and integers too long for int().
Every run must end in exit 0, 1 or 2 without a traceback; a failing run
prints exactly one ``{"error": ...}`` line on stderr, except ``validate``,
which reports an invalid net as diagnostics on stdout."""

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qnets.cli import run

NAMES = st.sampled_from(["a", "b", "id.a", "t", ""]) | st.text(max_size=2)
# Counts, arcs, place lists and transition maps stay small, even where
# arbitrary JSON happens to form a valid net: `lin` builds every ordering of
# every arc, so a net of three places with counts of 3 would not finish.
SCALARS = (st.none() | st.booleans() | st.integers(-1, 2)
           | st.floats(allow_nan=False, width=16) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(NAMES, inner, max_size=2),
    max_leaves=8)
# Plausible payloads of every theory, mixed with arbitrary JSON.
ELEMENTS = (st.dictionaries(NAMES, st.integers(-1, 2) | SCALARS, max_size=2)
            | st.lists(NAMES, max_size=3)
            | st.lists(st.lists(NAMES | st.sampled_from(["+", "-"]), max_size=3), max_size=2)
            | JSON_VALUES)
THEORIES = st.sampled_from(["CMON", "MON", "ABGRP", "GRP", "SEMILAT"]) | JSON_VALUES
NETS = st.fixed_dictionaries(
    {"theory": THEORIES,
     "places": st.lists(NAMES, max_size=2) | JSON_VALUES,
     "transitions": st.dictionaries(
         NAMES, st.fixed_dictionaries({"src": ELEMENTS, "tgt": ELEMENTS}) | JSON_VALUES,
         max_size=2) | JSON_VALUES})
# Text that is not JSON, or JSON nested deeper than the decoder's stack.
RAW = st.sampled_from(["", "{", "[1,", "nul", "[" * 100_000, "[" * 5_000 + "]" * 5_000,
                       '{"theory":' + "[" * 3_000 + "]" * 3_000 + "}"])
# Integer literals past int()'s default limit of 4,300 digits.
DIGITS = "9" * 5_000
HUGE = st.sampled_from(['{"a":%s}' % DIGITS, "[-%s]" % DIGITS,
                        '{"theory":"CMON","places":["a"],"transitions":'
                        '{"t":{"src":{"a":%s},"tgt":{}}}}' % DIGITS])
# Bytes that do not decode as UTF-8.
NOT_UTF8 = st.sampled_from([b"\xff", b"\xfe\xff\x00{\x00}",
                            b'{"theory":"CMON","places":["\xe9"],"transitions":{}}'])
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "x", ""])


def _write(path: str, draw, texts) -> None:
    with open(path, "wb") as fh:
        fh.write(draw(NOT_UTF8 | (RAW | HUGE | texts).map(str.encode)))


@st.composite
def invocations(draw, directory):
    paths = []
    for k in range(2):
        path = os.path.join(directory, f"in{k}.json")
        _write(path, draw, NETS.map(json.dumps) | JSON_VALUES.map(json.dumps))
        paths.append(path)
    marking_path = os.path.join(directory, "marking.json")
    _write(marking_path, draw, ELEMENTS.map(json.dumps))
    marking = draw(st.sampled_from(["@" + marking_path, "@" + directory + "/missing"])
                   | RAW | HUGE | ELEMENTS.map(json.dumps))
    net = draw(st.sampled_from(paths + [directory + "/missing.json"]))
    command = draw(st.sampled_from(["validate", "translate", "reach", "homset", "homgroup",
                                    "lin", "linsum", "product", "coproduct", "bogus"]))
    argv = [command, net]
    if command == "translate":
        argv += ["--via", draw(st.sampled_from(list("abcdez")))]
    elif command == "reach":
        argv += ["--marking", marking, "--steps", draw(SMALL_INTS)]
        if draw(st.booleans()):
            argv.append("--dot")
    elif command in ("homset", "homgroup"):
        argv += ["--from", marking, "--to", draw(ELEMENTS.map(json.dumps))]
        if command == "homset":
            argv += ["--layers", draw(SMALL_INTS), "--width", draw(SMALL_INTS)]
    elif command in ("product", "coproduct"):
        argv.append(draw(st.sampled_from(paths)))
    if draw(st.integers(0, 9)) == 0:
        argv = draw(st.permutations(argv))[:draw(st.integers(0, len(argv)))]
    return argv


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_cli_ends_in_exit_code_and_one_json_error_line(directory, data):
    argv = data.draw(invocations(directory))
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
    elif err or argv[0] != "validate":
        assert out == "" and err.count("\n") == 1, argv
        assert set(json.loads(err)) == {"error"}
    else:
        assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000],
                         ids=["unclosed", "balanced"])
def test_deeply_nested_json_is_a_domain_error(tmp_path, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text, encoding="utf-8")
    net = tmp_path / "net.json"
    net.write_text('{"theory":"CMON","places":["a"],"transitions":{}}', encoding="utf-8")
    for argv in (["validate", str(deep)],
                 ["reach", str(net), "--marking", f"@{deep}", "--steps", "1"],
                 ["reach", str(net), "--marking", text, "--steps", "1"]):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, stdout=out, stderr=err) == 1
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert "nested too deeply" in json.loads(err.getvalue())["error"]
