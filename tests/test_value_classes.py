"""The package's value classes behave as the frozen dataclasses they replace.

Each class is written out by hand, so that starting ``qnet`` does not
generate and compile their methods. ``==``, ``hash``, ``repr``, copying,
pickling and immutability are pinned here against the text and formulas the
dataclass versions had.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle

import pytest

import qnets
from qnets import QNet, Theory, multiset, word
from qnets.freecat import (Comp, Gen, Ident, LayeredForm, Oper, Perm, _context,
                           underlying_net)
from qnets.net import identity_morphism
from qnets.reflexive import (add_identities, add_identities_morphism, free_edges,
                             free_edges_morphism)
from qnets.suites import SuiteResult

MODULES = ("cli", "freecat", "intlattice", "jsonio", "net", "reflexive", "suites",
           "symmetry", "theory")

A = multiset(Theory.CMON, {"a": 1})
NET = QNet(Theory.CMON, ("a",), {"t": (A, multiset(Theory.CMON, {}))})

# The repr text of the dataclass versions, built up from its parts.
CMON = "<Theory.CMON: 'CMON'>"
A_TEXT = f"FreeElem(theory={CMON}, payload=(('a', 1),))"
EMPTY = f"FreeElem(theory={CMON}, payload=())"
NET_TEXT = f"QNet(theory={CMON}, places=('a',), transitions={{'t': ({A_TEXT}, {EMPTY})}})"
REFLEXIVE = (f"ReflexiveQNet(net=QNet(theory={CMON}, places=('a',), transitions="
             f"{{'t': ({A_TEXT}, {EMPTY}), 'id.a': ({A_TEXT}, {A_TEXT})}}), e={{'a': 'id.a'}})")
GRAPH = (f"QGraph(theory={CMON}, generators=('t', 'id.a'), places=('a',), "
         f"src={{'t': {A_TEXT}, 'id.a': {A_TEXT}}}, tgt={{'t': {EMPTY}, 'id.a': {A_TEXT}}}, "
         f"ident={{'a': FreeElem(theory={CMON}, payload=(('id.a', 1),))}})")
AB = "FreeElem(theory=<Theory.MON: 'MON'>, payload=('a', 'b'))"

# name: (a maker of equal fresh values, the dataclass repr, the dataclass hash
# of a value, or None where hashing raised TypeError)
CASES = {
    "FreeElem": (lambda: multiset(Theory.CMON, {"a": 2, "b": 1}),
                 f"FreeElem(theory={CMON}, payload=(('a', 2), ('b', 1)))",
                 lambda x: hash((x.theory, x.payload))),
    "QNet": (lambda: QNet(NET.theory, NET.places, dict(NET.transitions)), NET_TEXT, None),
    "NetMorphism": (lambda: identity_morphism(NET),
                    f"NetMorphism(source={NET_TEXT}, target={NET_TEXT}, f={{'t': 't'}},"
                    " g={'a': 'a'})", None),
    "Gen": (lambda: Gen("t"), "Gen(name='t')", lambda x: hash((x.name,))),
    "Ident": (lambda: Ident(A), f"Ident(obj={A_TEXT})", lambda x: hash((x.obj,))),
    "Comp": (lambda: Comp(Gen("t"), Ident(A)),
             f"Comp(after=Gen(name='t'), before=Ident(obj={A_TEXT}))",
             lambda x: hash(repr(x))),
    "Oper": (lambda: Oper("combine", (Gen("t"), Gen("t"))),
             "Oper(op='combine', args=(Gen(name='t'), Gen(name='t')))",
             lambda x: hash(repr(x))),
    "Perm": (lambda: Perm(word("ab"), (1, 0)), f"Perm(word={AB}, mapping=(1, 0))",
             lambda x: hash((x.word, x.mapping))),
    "LayeredForm": (lambda: LayeredForm(word("ab"), (word(["t", "id.b"]),)),
                    f"LayeredForm(start={AB}, layers=(FreeElem(theory=<Theory.MON: 'MON'>,"
                    " payload=('t', 'id.b')),))",
                    lambda x: hash((x.start, x.layers))),
    "_Ctx": (lambda: _context(QNet(NET.theory, NET.places, dict(NET.transitions))),
             f"_Ctx(net={NET_TEXT}, src_images={{'t': {A_TEXT}, 'id.a': {A_TEXT}}}, "
             f"tgt_images={{'t': {EMPTY}, 'id.a': {A_TEXT}}}, names=('t',))", None),
    "UnderlyingNet": (lambda: underlying_net(NET, 1),
                      f"UnderlyingNet(net=QNet(theory={CMON}, places=('a',), transitions="
                      f"{{'mor0': ({EMPTY}, {EMPTY}), 'mor1': ({A_TEXT}, {EMPTY}), "
                      f"'mor2': ({A_TEXT}, {A_TEXT})}}), objects=({EMPTY}, {A_TEXT}), "
                      f"reps={{'mor0': Ident(obj={EMPTY}), 'mor1': Gen(name='t'), "
                      f"'mor2': Ident(obj={A_TEXT})}})", None),
    "ReflexiveQNet": (lambda: add_identities(NET), REFLEXIVE, None),
    "ReflexiveMorphism": (lambda: add_identities_morphism(identity_morphism(NET)),
                          f"ReflexiveMorphism(source={REFLEXIVE}, target={REFLEXIVE}, "
                          "f={'t': 't', 'id.a': 'id.a'}, g={'a': 'a'})", None),
    "QGraph": (lambda: free_edges(add_identities(NET)), GRAPH, None),
    "GraphMorphism": (lambda: free_edges_morphism(add_identities_morphism(identity_morphism(NET))),
                      f"GraphMorphism(source={GRAPH}, target={GRAPH}, "
                      f"f_gen={{'t': FreeElem(theory={CMON}, payload=(('t', 1),)), "
                      f"'id.a': FreeElem(theory={CMON}, payload=(('id.a', 1),))}}, "
                      "g={'a': 'a'})", None),
    "SuiteResult": (lambda: SuiteResult("monad", 3, ["law"]),
                    "SuiteResult(name='monad', cases=3, failures=['law'])", None),
}


def test_only_the_benchmarked_results_stay_dataclasses():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"qnets.{name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and hasattr(cls, "__dataclass_fields__"):
                found.add(cls_name)
    assert found == {"EqVerdict", "ReachResult"}
    assert set(CASES) >= {n for n in qnets.__all__ if n[0].isupper()} - {
        "EqVerdict", "MorTerm", "QnetError", "SymTerm", "Theory", "TheoryArrow"}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_follow_the_fields(name):
    make, _, formula = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x == y and not (x != y) and x is not y
    assert x.__eq__(object()) is NotImplemented and x != object()
    other = next(make() for n, (make, _, _) in CASES.items() if n != name)
    assert x.__eq__(other) is NotImplemented and x != other
    if formula is None:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == formula(x)


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_text(name):
    make, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trips(name):
    make = CASES[name][0]
    x = make()
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
                 pickle.loads(pickle.dumps(x, protocol=0))):
        assert type(back) is type(x) and back == x and repr(back) == repr(x)


@pytest.mark.parametrize("name", [n for n in CASES if n != "SuiteResult"])
def test_values_refuse_assignment(name):
    make, text, _ = CASES[name]
    x = make()
    field = text[len(name) + 1:text.index("=")]
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before
    # Only a net keeps a __dict__, where the process semantics caches its context.
    assert hasattr(x, "__dict__") == (name == "QNet")


def test_a_suite_result_stays_mutable():
    result = SuiteResult("monad", 0)
    result.cases += 1
    result.check(False, "law")
    assert result == SuiteResult("monad", 1, ["law"]) and not result.ok
    assert SuiteResult("x", 0).failures is not SuiteResult("x", 0).failures
