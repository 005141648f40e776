import builtins
import json

import pytest

from qnets import jsonio
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
