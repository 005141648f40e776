import builtins
import json

import pytest

from qnets import freecat, jsonio
from qnets.freecat import Comp, Gen, Ident, Oper
from qnets.reflexive import add_identities, free_edges
from qnets.symmetry import Perm
from qnets.theory import (
    CanonicalFormError,
    QnetError,
    Theory,
    finset,
    multiset,
    signed_word,
    word,
)

from netzoo import petri


@pytest.mark.parametrize("elem,encoded", [
    (multiset(Theory.CMON, {"a": 2, "b": 1}), {"a": 2, "b": 1}),
    (multiset(Theory.ABGRP, {"a": 2, "b": -1}), {"a": 2, "b": -1}),
    (word("aba"), ["a", "b", "a"]),
    (signed_word([("a", 1), ("b", -1)]), [["a", "+"], ["b", "-"]]),
    (finset("ba"), ["a", "b"]),
])
def test_elem_roundtrip(elem, encoded):
    assert jsonio.elem_to_json(elem) == encoded
    assert jsonio.elem_from_json(elem.theory, encoded) == elem


def test_elem_from_json_rejects_noncanonical():
    with pytest.raises(CanonicalFormError):
        jsonio.elem_from_json(Theory.SEMILAT, ["b", "a"])
    with pytest.raises(CanonicalFormError):
        jsonio.elem_from_json(Theory.GRP, [["a", "+"], ["a", "-"]])
    with pytest.raises(CanonicalFormError):
        jsonio.elem_from_json(Theory.CMON, {"a": 0})
    # The decode does not normalise: each of these is refused, not repaired.
    for theory, data in [(Theory.ABGRP, {"a": 0}), (Theory.CMON, {"a": True}),
                         (Theory.CMON, {"a": -1}), (Theory.SEMILAT, ["a", "a"]),
                         (Theory.MON, [1]), (Theory.MON, {"a": 1}), (Theory.CMON, ["a"])]:
        with pytest.raises(CanonicalFormError):
            jsonio.elem_from_json(theory, data)


def test_net_roundtrip():
    net = petri("ab", {"t": ({"a": 1}, {"b": 2})})
    data = jsonio.net_to_json(net)
    assert data == {"theory": "CMON", "places": ["a", "b"],
                    "transitions": {"t": {"src": {"a": 1}, "tgt": {"b": 2}}}}
    assert jsonio.net_from_json(json.loads(jsonio.dumps(data))) == net


def test_reflexive_roundtrip():
    r = add_identities(petri("a", {"t": ({"a": 1}, {"a": 1})}))
    data = jsonio.reflexive_to_json(r)
    assert data["e"] == {"a": "id.a"}
    assert jsonio.reflexive_from_json(data) == r


def test_qgraph_json_stores_generator_images():
    g = free_edges(add_identities(petri("a", {"t": ({"a": 1}, {"a": 1})})))
    data = jsonio.qgraph_to_json(g)
    assert set(data) == {"theory", "generators", "places", "src", "tgt", "ident"}
    assert data["ident"]["a"] == {"id.a": 1}


def test_term_roundtrip():
    term = Comp(Gen("u"),
                Oper("combine", (Gen("t"), Ident(multiset(Theory.CMON, {"c": 1})))))
    data = jsonio.term_to_json(term)
    assert data == {"comp": [{"gen": "u"},
                             {"op": "combine",
                              "args": [{"gen": "t"}, {"id": {"c": 1}}]}]}
    assert jsonio.term_from_json(Theory.CMON, data) == term


def test_perm_roundtrip():
    perm = Perm(word("ab"), (1, 0))
    data = jsonio.term_to_json(perm)
    assert data == {"perm": {"word": ["a", "b"], "map": [1, 0]}}
    assert jsonio.term_from_json(Theory.MON, data) == perm


def test_term_json_imports_once_per_call(monkeypatch):
    """A 200-node term is encoded and decoded with one import each, not one
    per node."""
    term = Oper("combine", tuple(Gen(f"t{i}") for i in range(199)))
    calls = []
    real_import = builtins.__import__

    def counting(name, globals=None, locals=None, fromlist=(), level=0):
        if "freecat" in (fromlist or ()):
            calls.append(name)
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", counting)
    data = jsonio.term_to_json(term)
    assert len(calls) == 1
    assert jsonio.term_from_json(Theory.CMON, data) == term
    assert len(calls) == 2


@pytest.mark.parametrize("data", [
    {"comp": 5},
    {"comp": [{"gen": "t"}]},
    {"op": "combine"},
    {"op": "combine", "args": 5},
    {"op": 3, "args": []},
    {"perm": 3},
    {"perm": {"word": ["a"]}},
    {"perm": {"word": ["a"], "map": [True]}},
    {"gen": 5},
    {"comp": [{"gen": "t"}, {"gen": 5}]},
    [],
])
def test_term_from_json_rejects_malformed(data):
    with pytest.raises(QnetError):
        jsonio.term_from_json(Theory.MON, data)


_NODE = 'an object keyed by one of "gen", "id", "comp", "op" or "perm"'


def _term_from_json_ref(theory, data):
    """The recursive decoder the iterative one replaced, with its messages."""
    def bad(expected=_NODE):
        return jsonio._bad_term(expected, data)

    if not isinstance(data, dict) or len(data) not in (1, 2):
        raise bad()
    if "gen" in data:
        if not isinstance(data["gen"], str):
            raise bad('a string "gen"')
        return Gen(data["gen"])
    if "id" in data:
        return Ident(jsonio.elem_from_json(theory, data["id"]))
    if "comp" in data:
        if not isinstance(data["comp"], list) or len(data["comp"]) != 2:
            raise bad('a "comp" array of two terms')
        after, before = data["comp"]
        return Comp(_term_from_json_ref(theory, after), _term_from_json_ref(theory, before))
    if "op" in data:
        if not isinstance(data["op"], str) or not isinstance(data.get("args"), list):
            raise bad('a string "op" and an "args" array')
        return Oper(data["op"], tuple(_term_from_json_ref(theory, a) for a in data["args"]))
    if "perm" in data:
        perm = data["perm"]
        if (not isinstance(perm, dict) or not {"word", "map"} <= perm.keys()
                or not isinstance(perm["map"], list)
                or not all(type(i) is int for i in perm["map"])):
            raise bad('a "perm" object with a "word" and an integer "map" array')
        return Perm(jsonio.elem_from_json(theory, perm["word"]), tuple(perm["map"]))
    raise bad()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QnetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("data", [
    {"comp": [{"gen": 5}, {"gen": 6}]},
    {"comp": [{"gen": "t"}, {"op": "combine", "args": [{"id": {"a": 0}}, {"gen": 1}]}]},
    {"op": "x", "args": [{"comp": [{"gen": "t"}, {"zz": 1}]}, {"gen": 7}]},
    {"op": "combine", "args": [{"perm": {"word": ["a"], "map": [0]}}, {"id": ["b"]},
                               {"perm": {"word": ["a"]}}]},
    {"op": "combine", "args": [{"gen": "t"}, {"id": ["a"]}], "extra": 1},
    {"gen": "t", "id": {"a": 1}, "comp": []},
    {"comp": [{"gen": "t"}, {"op": "invert", "args": [{"gen": "u"}]}]},
    {"op": "combine", "args": []},
])
@pytest.mark.parametrize("theory", [Theory.CMON, Theory.MON])
def test_term_from_json_matches_the_recursive_decoder(data, theory):
    """Same term, or the same error from the same node, as the decoder that
    checked each node before its children in written order."""
    assert _outcome(jsonio.term_from_json, theory, data) == \
        _outcome(_term_from_json_ref, theory, data)


def test_term_to_json_meets_bad_leaves_in_written_order():
    class Bad:
        def __init__(self, tag):
            self.tag = tag

        def __repr__(self):
            return f"Bad({self.tag})"

    term = Comp(Oper("combine", (Gen("t"), Bad("after"))), Bad("before"))
    with pytest.raises(QnetError, match=r"^not a process term: Bad\(after\)$"):
        jsonio.term_to_json(term)


def _comp_chain(depth):
    data = {"gen": "t"}
    for _ in range(depth - 1):
        data = {"comp": [{"gen": "t"}, data]}
    return data


def test_deep_comp_chain_decodes_and_encodes_off_the_call_stack():
    # Deep terms are not compared with ==, which itself recurses.
    loop = petri("a", {"t": ({"a": 1}, {"a": 1})})
    term = jsonio.term_from_json(Theory.CMON, _comp_chain(5000))
    assert len(freecat.layered(term, loop).layers) == 5000
    again = jsonio.term_from_json(Theory.CMON, jsonio.term_to_json(term))
    assert len(freecat.layered(again, loop).layers) == 5000


@pytest.mark.parametrize("data,got", [
    ([{"gen": "t"}] * 3, "array"),
    ("x" * 5000, "string"),
    (None, "null"),
    ({"gen": 5}, "object with keys ['gen']"),
    ({"x" * 5000: 1, "b": [[[]]], "c": 1, "d": 1, "e": 1},
     "object with keys ['" + "x" * 16 + "...', 'b', 'c', 'd', ...]"),
])
def test_bad_term_message_names_the_node_type_and_a_few_keys(data, got):
    with pytest.raises(QnetError) as info:
        jsonio.term_from_json(Theory.CMON, data)
    assert str(info.value).endswith(f", got {got}")
    assert len(str(info.value)) < 200


def test_bad_root_over_a_deep_chain_is_a_domain_error():
    # A message that echoed the node would recurse through it in ``repr``.
    data = {"comp": [_comp_chain(5000), {"gen": "t"}], "a": 1, "b": 2}
    with pytest.raises(QnetError) as info:
        jsonio.term_from_json(Theory.CMON, data)
    assert str(info.value) == ('bad term JSON: expected ' + _NODE
                               + ", got object with keys ['comp', 'a', 'b']")


@pytest.mark.parametrize("e", [[1, 2], "x", {"a": 5}])
def test_reflexive_from_json_rejects_malformed_e(e):
    data = jsonio.reflexive_to_json(add_identities(petri("a", {"t": ({"a": 1}, {"a": 1})})))
    data["e"] = e
    with pytest.raises(QnetError):
        jsonio.reflexive_from_json(data)


@pytest.mark.parametrize("tag", ["x" * 5000, ["x" * 5000], None])
def test_bad_theory_tag_message_is_bounded(tag):
    with pytest.raises(QnetError) as info:
        jsonio.net_from_json({"theory": tag})
    assert str(info.value) == \
        "bad or missing theory tag: expected one of CMON, MON, ABGRP, GRP, SEMILAT"


def test_deep_theory_tag_message_is_bounded():
    tag = []
    for _ in range(900):
        tag = [tag]
    with pytest.raises(QnetError, match="expected one of") as info:
        jsonio.net_from_json({"theory": tag})
    assert len(str(info.value)) < 100
