import io
import json
import threading
import time

import pytest

from qnets import jsonio
from qnets.cli import run

from netzoo import elementary, petri, prenet, shallow_stack


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_net(tmp_path, name, net):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.net_to_json(net)), encoding="utf-8")
    return str(path)


def test_validate_ok(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 2})}))
    code, out, err = invoke(["validate", path])
    assert code == 0
    assert json.loads(out) == {"diagnostics": [], "valid": True}


def test_validate_bad_net(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "theory": "CMON", "places": ["a"],
        "transitions": {"t": {"src": {"a": 1}, "tgt": {"zz": 1}}}}), encoding="utf-8")
    code, out, _ = invoke(["validate", str(path)])
    assert code == 1
    body = json.loads(out)
    assert not body["valid"] and len(body["diagnostics"]) == 1


def test_translate_abelianize(tmp_path):
    path = write_net(tmp_path, "pre.json", prenet("abc", {"t": ("aba", "c")}))
    code, out, _ = invoke(["translate", "--via", "c", path])
    assert code == 0
    body = json.loads(out)
    assert body["theory"] == "CMON"
    assert body["transitions"]["t"] == {"src": {"a": 2, "b": 1}, "tgt": {"c": 1}}


def test_translate_theory_mismatch_is_domain_error(tmp_path):
    path = write_net(tmp_path, "net.json", petri("a", {}))
    code, out, err = invoke(["translate", "--via", "c", path])
    assert code == 1
    assert "error" in json.loads(err)
    assert out == ""


def test_reach_json_and_dot(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    code, out, _ = invoke(["reach", path, "--marking", '{"a":2}', "--steps", "2"])
    assert code == 0
    body = json.loads(out)
    assert len(body["markings"]) == 3
    code, dot, _ = invoke(["reach", path, "--marking", '{"a":2}', "--steps", "2",
                           "--dot"])
    assert code == 0 and dot.startswith("digraph")


def test_reach_marking_from_file(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    marking = tmp_path / "m.json"
    marking.write_text('{"a":1}', encoding="utf-8")
    code, out, _ = invoke(["reach", path, "--marking", f"@{marking}", "--steps", "1"])
    assert code == 0
    assert len(json.loads(out)["markings"]) == 2


def test_homset(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    code, out, _ = invoke(["homset", path, "--from", '{"a":1}', "--to", '{"b":1}',
                           "--layers", "2", "--width", "2"])
    assert code == 0
    assert json.loads(out)["representatives"] == [{"gen": "t"}]


def test_homset_rejects_markings_off_the_net(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    for marking in ('{"z":1}', '{"a":1,"z":1}'):
        code, out, err = invoke(["homset", path, "--from", marking, "--to", marking,
                                 "--layers", "2", "--width", "2"])
        assert (code, out) == (1, "")
        assert err.splitlines() == ['{"error":"marking mentions undeclared places"}']


def test_product_of_a_wide_fiber(tmp_path):
    places = [f"q{i}" for i in range(1100)]
    left = write_net(tmp_path, "l.json", petri("p", {"t": ({"p": 1100}, {})}))
    right = tmp_path / "r.json"
    right.write_text(json.dumps({
        "theory": "CMON", "places": places,
        "transitions": {"u": {"src": {x: 1 for x in places}, "tgt": {}}}}), encoding="utf-8")
    code, out, err = invoke(["product", left, str(right)])
    assert (code, err) == (0, "")
    assert list(json.loads(out)["net"]["transitions"]) == ["(t,u)@0"]


def test_homgroup(tmp_path):
    from netzoo import integer_net

    path = write_net(tmp_path, "znet.json", integer_net("a", {"t": ({"a": 2}, {})}))
    code, out, _ = invoke(["homgroup", path, "--from", '{"a":1}', "--to", "{}"])
    assert code == 0
    assert json.loads(out) == {"nonempty": False}


def test_homgroup_rejects_the_reserved_prefix(tmp_path):
    from netzoo import integer_net

    path = write_net(tmp_path, "znet.json", integer_net("a", {"id.a": ({"a": 1}, {})}))
    code, out, err = invoke(["homgroup", path, "--from", '{"a":1}', "--to", "{}"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "process semantics reserves the 'id.' transition prefix"}


def test_lin_and_linsum(tmp_path):
    path = write_net(tmp_path, "net.json",
                     petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1})}))
    code, out, _ = invoke(["lin", path])
    assert code == 0
    assert len(json.loads(out)["linearizations"]) == 3
    code, out, _ = invoke(["linsum", path])
    assert code == 0
    assert len(json.loads(out)["transitions"]) == 3


def test_product_and_coproduct_roundtrip(tmp_path):
    left = write_net(tmp_path, "l.json", petri("a", {"t": ({"a": 1}, {"a": 1})}))
    right = write_net(tmp_path, "r.json", petri("b", {"u": ({"b": 1}, {"b": 1})}))
    for command in ("product", "coproduct"):
        code, out, _ = invoke([command, left, right])
        assert code == 0
        body = json.loads(out)
        reparsed = jsonio.net_from_json(body["net"])
        assert jsonio.dumps(jsonio.net_to_json(reparsed)) == jsonio.dumps(body["net"])


def test_product_refuses_two_places_of_one_name(tmp_path):
    left = write_net(tmp_path, "l.json", petri(["a,b", "a"], {}))
    right = write_net(tmp_path, "r.json", petri(["c", "b,c"], {}))
    code, out, err = invoke(["product", left, right])
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"] == "two product places are named '(a,b,c)'"


def test_product_group_rejected(tmp_path):
    from netzoo import integer_net

    path = write_net(tmp_path, "z.json", integer_net("a", {"t": ({"a": 1}, {})}))
    code, _, err = invoke(["product", path, path])
    assert code == 1
    assert "error" in json.loads(err)


def test_check_suite_and_determinism(tmp_path):
    code1, out1, _ = invoke(["check", "--suite", "monad", "--seed", "7",
                             "--cases", "10"])
    code2, out2, _ = invoke(["check", "--suite", "monad", "--seed", "7",
                             "--cases", "10"])
    assert code1 == code2 == 0
    assert out1 == out2
    body = json.loads(out1)
    assert body["ok"] and body["suites"][0]["name"] == "monad"


@pytest.mark.parametrize("seed", ["abc", "1.5"])
def test_a_bad_seed_is_an_invalid_int_value(seed):
    code, out, err = invoke(["check", "--seed", seed])
    assert (code, out) == (2, "")
    assert err == ('{"error":"qnet check: argument --seed: invalid int value: '
                   f"'{seed}'\"}}\n")


def assert_json_error(err):
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]


def test_usage_error_exit_code():
    code, out, err = invoke(["translate"])
    assert (code, out) == (2, "")
    assert_json_error(err)
    code, out, err = invoke([])
    assert (code, out) == (2, "")
    assert_json_error(err)


def test_help_exits_zero_without_error_line(capsys):
    code, _, err = invoke(["reach", "--help"])
    assert (code, err) == (0, "")
    assert capsys.readouterr().out.startswith("usage: qnet reach")


def test_suite_names_match_the_suite_table():
    from qnets import cli, suites

    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


def test_out_of_range_integers_are_usage_errors(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    homset = ["homset", path, "--from", '{"a":1}', "--to", '{"b":1}']
    for argv in (["reach", path, "--marking", '{"a":1}', "--steps", "-3"],
                 ["reach", path, "--marking", '{"a":1}', "--steps", "two"],
                 homset + ["--layers", "0", "--width", "1"],
                 homset + ["--layers", "1", "--width", "0"],
                 ["check", "--suite", "freecat", "--cases", "-1"],
                 ["check", "--suite", "freecat", "--cases", "0"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert_json_error(err)
    code, out, _ = invoke(["reach", path, "--marking", '{"a":1}', "--steps", "0"])
    assert code == 0 and json.loads(out)["steps"] == 0


def test_bool_counts_are_domain_errors(tmp_path):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    bool_net = tmp_path / "bool.json"
    bool_net.write_text(json.dumps({
        "theory": "CMON", "places": ["a"],
        "transitions": {"t": {"src": {"a": True}, "tgt": {}}}}), encoding="utf-8")
    for argv in (["reach", path, "--marking", '{"a":true}', "--steps", "1"],
                 ["translate", "--via", "b", str(bool_net)]):
        code, out, err = invoke(argv)
        assert (code, out) == (1, ""), argv
        assert_json_error(err)


def test_malformed_net_json_is_domain_error(tmp_path):
    good = {"theory": "CMON", "places": ["a", "b"],
            "transitions": {"t": {"src": {"a": 1}, "tgt": {"b": 1}}}}
    bad = [
        {**good, "transitions": {"t": {"src": {"a": 1}}}},
        {**good, "transitions": {"t": {"tgt": {"b": 1}}}},
        {**good, "transitions": {"t": [{"a": 1}, {"b": 1}]}},
        {**good, "transitions": [{"src": {"a": 1}, "tgt": {"b": 1}}]},
        {**good, "places": [1, "b"]},
        {**good, "places": "ab"},
    ]
    for i, data in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["validate", str(path)],
                     ["reach", str(path), "--marking", '{"a":1}', "--steps", "1"]):
            code, out, err = invoke(argv)
            assert (code, out) == (1, ""), (data, argv)
            assert_json_error(err)


def test_bad_budget_env_is_domain_error(tmp_path, monkeypatch):
    path = write_net(tmp_path, "net.json", petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    monkeypatch.setenv("QNET_BUDGET", "abc")
    code, out, err = invoke(["homset", path, "--from", '{"a":1}', "--to", '{"b":1}',
                             "--layers", "2", "--width", "2"])
    assert (code, out) == (1, "")
    assert "QNET_BUDGET" in json.loads(err)["error"]


def test_net_json_roundtrip_identity(tmp_path):
    net = petri("ab", {"t": ({"a": 1}, {"b": 2})})
    path = write_net(tmp_path, "net.json", net)
    with open(path, encoding="utf-8") as fh:
        reparsed = jsonio.net_from_json(json.load(fh))
    assert reparsed == net


def test_output_determinism_across_commands(tmp_path):
    path = write_net(tmp_path, "net.json",
                     petri("ab", {"t": ({"a": 1}, {"b": 1})}))
    first = invoke(["reach", path, "--marking", '{"a":2}', "--steps", "2"])
    second = invoke(["reach", path, "--marking", '{"a":2}', "--steps", "2"])
    assert first == second


def test_homset_too_deep_to_print_is_domain_error(tmp_path):
    # At the default limit, 900 layers on this self-loop enumerate but
    # overflow the JSON encoding; 200 layers do under a 100-frame stack.
    path = write_net(tmp_path, "loop.json", petri("a", {"t": ({"a": 1}, {"a": 1})}))
    with shallow_stack():
        code, out, err = invoke(["homset", path, "--from", '{"a":1}', "--to", '{"a":1}',
                                 "--layers", "200", "--width", "1"])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "too deeply" in json.loads(err)["error"]


def _in_thread(fn):
    """``fn()`` on a new thread, whose stack holds only Python frames: up to
    3.11 each call into C on the stack also takes a recursion level, and the
    test runner's own stack holds some."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join()
    return result[0]


@pytest.mark.parametrize("frames", [100, 300])
def test_the_nesting_rule_is_the_same_on_every_interpreter(tmp_path, frames):
    # The deepest self-loop hom-set that prints and the deepest marking that
    # decodes under a stack ``frames`` deep: Python 3.11's own limits, which
    # the CLI states for every interpreter.
    path = write_net(tmp_path, "loop.json", petri("a", {"t": ({"a": 1}, {"a": 1})}))

    def homset(layers):
        with shallow_stack(frames):
            return invoke(["homset", path, "--from", '{"a":1}', "--to", '{"a":1}',
                           "--layers", str(layers), "--width", "1"])

    def reach(depth):
        with shallow_stack(frames):
            return invoke(["reach", path, "--marking", "[" * depth + "]" * depth,
                           "--steps", "0"])

    deepest = {100: (46, 92), 300: (146, 292)}[frames]
    assert _in_thread(lambda: homset(deepest[0]))[0] == 0
    assert _in_thread(lambda: homset(deepest[0] + 1)) == (
        1, "", '{"error":"output is nested too deeply to write as JSON"}\n')
    assert _in_thread(lambda: reach(deepest[1])) == (
        1, "", '{"error":"CMON element must be an object"}\n')
    assert _in_thread(lambda: reach(deepest[1] + 1)) == (
        1, "", '{"error":"marking is nested too deeply"}\n')


def test_a_deep_marking_is_refused_on_every_interpreter(tmp_path):
    # 3,000 nested arrays: 3.11's decoder runs out of stack, 3.12's stops at
    # its own C limit, and 3.13's decodes them; each is the same refusal.
    path = write_net(tmp_path, "net.json", petri("a", {}))
    assert invoke(["reach", path, "--marking", "[" * 3000 + "]" * 3000, "--steps", "0"]) == (
        1, "", '{"error":"marking is nested too deeply"}\n')


def test_lin_refuses_too_many_linearizations_before_building_any(tmp_path):
    arc = {"a": 3, "b": 3, "c": 3}  # 1,680 orderings each way: 2,822,400 nets
    path = write_net(tmp_path, "net.json", petri("abc", {"t": (arc, arc)}))
    for command in ("lin", "linsum"):
        started = time.monotonic()
        code, out, err = invoke([command, path])
        assert time.monotonic() - started < 1.0
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "10000 linearizations" in json.loads(err)["error"]


def test_lin_refuses_a_huge_arc_before_computing_its_binomial(tmp_path):
    # C(2000000, 1000000) orderings of the source: computing that binomial
    # takes tens of seconds, while its n alone already exceeds the bound.
    arc = {"a": 1_000_000, "b": 1_000_000}
    path = write_net(tmp_path, "net.json", petri("ab", {"t": (arc, {"a": 1})}))
    for command in ("lin", "linsum"):
        started = time.monotonic()
        code, out, err = invoke([command, path])
        assert time.monotonic() - started < 1.0
        assert (code, out) == (1, "")
        assert "10000 linearizations" in json.loads(err)["error"]


DIGITS = "9" * 5_000  # past int()'s default limit of 4,300 digits
HUGE_NET = ('{"theory":"CMON","places":["a"],"transitions":{"t":{"src":{"a":%s},"tgt":{}}}}'
            % DIGITS).encode()
HUGE_MARKING = '{"a":%s}' % DIGITS
REACH = ["reach", "{net}", "--steps", "1", "--marking"]


@pytest.mark.parametrize("argv,payload,message", [
    (["validate", "{file}"], b'{"theory":"CMON","places":["\xe9"],"transitions":{}}',
     "cannot read {file}: "),
    (["lin", "{file}"], b"\xff\xfe{}", "cannot read {file}: "),
    (REACH + ["@{file}"], b'{"\xff":1}', "cannot read {file}: "),
    (["validate", "{file}"], HUGE_NET, "{file} is not valid JSON: "),
    (["product", "{net}", "{file}"], HUGE_NET, "{file} is not valid JSON: "),
    (REACH + ["@{file}"], HUGE_MARKING.encode(), "marking is not valid JSON: "),
    (REACH + [HUGE_MARKING], b"", "marking is not valid JSON: "),
], ids=["latin1-net", "utf16-net", "binary-marking-file", "digits-net", "digits-product",
        "digits-marking-file", "digits-inline-marking"])
def test_unreadable_and_over_long_input_are_domain_errors(tmp_path, argv, payload, message):
    net = write_net(tmp_path, "net.json", petri("a", {"t": ({"a": 1}, {"a": 1})}))
    file = tmp_path / "input.json"
    file.write_bytes(payload)
    code, out, err = invoke([arg.replace("{net}", net).replace("{file}", str(file))
                             for arg in argv])
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"].startswith(message.replace("{file}", str(file)))


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_an_output_count_past_the_digit_limit_is_a_domain_error(tmp_path, dot):
    # Firing t once from a 4,300-digit count (the input limit) gives one digit
    # more, which int()'s default limit refuses to print.
    net = write_net(tmp_path, "net.json", petri("ab", {"t": ({"b": 1}, {"a": 1, "b": 1})}))
    marking = tmp_path / "m.json"
    marking.write_text('{"a":%s,"b":1}' % ("9" * 4_300), encoding="utf-8")
    code, out, err = invoke(["reach", net, "--marking", f"@{marking}", "--steps", "1"] + dot)
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"].startswith("output cannot be written as JSON: ")


@pytest.mark.parametrize("net,marking", [
    # One SEMILAT transition on four places pairs with itself through 41,503
    # relations a side: about 1.7e9 product transitions.
    (elementary("abcd", {"t": ("abcd", "abcd")}), None),
    # Eight a -> b transitions fire in C(20, 8) - 1 = 125,969 ways from 12 tokens.
    (petri("ab", {f"t{i}": ({"a": 1}, {"b": 1}) for i in range(8)}), '{"a":12}'),
    # t: a -> 2a fires in as many ways as the 4,300-digit count.
    (petri("a", {"t": ({"a": 1}, {"a": 2})}), '{"a":%s}' % ("9" * 4_300)),
])
def test_enumerations_past_the_budget_are_domain_errors(tmp_path, net, marking):
    path = write_net(tmp_path, "net.json", net)
    argv = (["product", path, path] if marking is None
            else ["reach", path, "--marking", marking, "--steps", "1"])
    started = time.monotonic()
    code, out, err = invoke(argv)
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert "more than 10000 transitions" in json.loads(err)["error"]
    assert "QNET_BUDGET" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["reach", "--marking", '{"a":1}', "--steps", "1"],
    ["homset", "--from", '{"a":1}', "--to", '{"a":1}', "--layers", "1", "--width", "1"],
])
def test_an_invalid_net_is_one_error_line(tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "theory": "CMON", "places": ["a"],
        "transitions": {"t": {"src": {"z": 1}, "tgt": {"a": 1}}}}), encoding="utf-8")
    code, out, err = invoke(argv[:1] + [str(path)] + argv[1:])
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"] \
        == f"invalid net {path}: transition 't' src mentions undeclared places ['z']"


def test_homset_refuses_a_layer_step_past_the_budget(tmp_path):
    # t: 0 -> a fires from nothing once per count up to the width, in one layer step.
    path = write_net(tmp_path, "net.json", petri("a", {"t": ({}, {"a": 1})}))
    started = time.monotonic()
    code, out, err = invoke(["homset", path, "--from", "{}", "--to", '{"a":1}',
                             "--layers", "1", "--width", "10000000"])
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"] == ("a hom-set layer step fires more than 10000 layers;"
                                        " QNET_BUDGET raises the bound")


def test_homset_refuses_past_the_budget_of_paths(tmp_path):
    # Three loops on one token: 3 ** k classes of k layers, each one path.
    path = write_net(tmp_path, "net.json",
                     petri("a", {name: ({"a": 1}, {"a": 1}) for name in "tuv"}))
    started = time.monotonic()
    code, out, err = invoke(["homset", path, "--from", '{"a":1}', "--to", '{"a":1}',
                             "--layers", "40", "--width", "1"])
    assert time.monotonic() - started < 5.0
    assert (code, out) == (1, "")
    assert_json_error(err)
    assert json.loads(err)["error"] == ("a hom-set has more than 10000 layer paths;"
                                        " QNET_BUDGET raises the bound")
