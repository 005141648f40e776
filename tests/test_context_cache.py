"""The net context that ``freecat._context`` keeps on each net: reused calls
give the verdicts and representatives that fresh nets give, whatever order
the context numbered its layers in, a changed net is validated again, the
tables are bounded and cleared only at a call's entry, and pickle and copy
leave them out. Layers are numbered by payload, so a warm decision checks
only its terms' ends, and a witness renders from ids as ``layered_repr``
renders the form."""

from __future__ import annotations

import copy
import json
import pickle
import random

import pytest

from qnets import freecat, jsonio, symmetry, theory
from qnets.freecat import Comp, Gen, Ident, Oper, Perm, hom_enumerate, mor_equal
from qnets.net import DEFAULT_BUDGET, InvalidNetError, QNet
from qnets.theory import FreeElem, QnetError, word

from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    GROUP_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    cmon,
    petri,
    signed,
)
from test_homset_dedup import _objects
from test_verdicts import EXPECTED

FAMILIES = {"PRE_NETS": PRE_NETS, "SYMMETRY_NETS": SYMMETRY_NETS,
            "EQUALITY_NETS": EQUALITY_NETS}
DECIDE = {"sym_equal": symmetry.sym_equal, "mor_equal": freecat.mor_equal}


def _fresh(net: QNet) -> QNet:
    """An equal net object that no call has used yet."""
    return QNet(net.theory, net.places, dict(net.transitions))


def _pinned():
    with open(EXPECTED, encoding="utf-8") as fh:
        for line in fh:
            case = json.loads(line)
            family, index = case["net"].rstrip("]").split("[")
            yield case, FAMILIES[family][int(index)]


def _outcome(verdict) -> dict:
    return {"status": verdict.status, "reason": verdict.reason,
            "witness": list(verdict.witness)}


def test_pinned_verdicts_hold_cold_and_warm():
    shared: dict[int, QNet] = {}  # one copy per net, warmed by every line on it
    cases = list(_pinned())
    for rounds in (1, 2):
        for case, net in cases:
            want = {k: case[k] for k in ("status", "reason", "witness")}
            decide = DECIDE[case["decide"]]
            lhs = jsonio.term_from_json(net.theory, case["lhs"])
            rhs = jsonio.term_from_json(net.theory, case["rhs"])
            if rounds == 1:
                cold = _fresh(net)
                assert _outcome(decide(lhs, rhs, cold)) == want, case
                assert _outcome(decide(lhs, rhs, cold)) == want, case
            warm = shared.setdefault(id(net), _fresh(net))
            assert _outcome(decide(lhs, rhs, warm)) == want, case
    assert len(cases) > 1000


def test_hom_sets_are_the_same_cold_and_warm():
    compared = 0
    for net in TOKEN_GAME_NETS + PRE_NETS + ELEMENTARY_NETS + EQUALITY_NETS:
        if net.theory.ops.group:
            continue
        warm = _fresh(net)
        pairs = [(x, y) for x in _objects(net) for y in _objects(net)]
        for x, y in pairs:
            hom_enumerate(warm, x, y, 2, 2)
        for x, y in pairs:
            cold = hom_enumerate(_fresh(net), x, y, 2, 2)
            assert hom_enumerate(warm, x, y, 2, 2) == cold, (net, x, y)
            compared += len(cold) > 1
    assert compared > 20


CHAIN_ARCS = {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"c": 1})}


def _parallel_terms():
    """``t ⊗ u`` against the same firings one after the other."""
    return (Oper("combine", (Gen("t"), Gen("u"))),
            Comp(Oper("combine", (Gen("t"), Ident(cmon({"c": 1})))),
                 Oper("combine", (Ident(cmon({"a": 1})), Gen("u")))))


def test_a_changed_net_is_validated_again():
    net = petri("abc", CHAIN_ARCS)
    lhs, rhs = _parallel_terms()
    assert mor_equal(lhs, rhs, net).is_equal
    ctx = freecat._context(net)
    assert freecat._context(net) is ctx
    net.transitions["v"] = (cmon({"z": 1}), cmon({"a": 1}))
    with pytest.raises(InvalidNetError, match="undeclared places"):
        mor_equal(lhs, rhs, net)
    del net.transitions["v"]
    assert mor_equal(lhs, rhs, net) == mor_equal(lhs, rhs, petri("abc", CHAIN_ARCS))
    # u now fires from a: both terms start at a+a, and the greedy witness
    # shows it.
    net.transitions["u"] = (cmon({"a": 1}), cmon({"c": 1}))
    fresh = petri("abc", {"t": CHAIN_ARCS["t"], "u": ({"a": 1}, {"c": 1})})
    assert mor_equal(lhs, rhs, net) == mor_equal(lhs, rhs, fresh)
    assert freecat.mor_src(lhs, net) == cmon({"a": 2})
    assert freecat._context(net) is not ctx


def _searched_case():
    """A MON pair equal by rewrite path: its search merges, splits and holds."""
    case, net = next((c, n) for c, n in _pinned()
                     if c["decide"] == "mor_equal" and c["reason"] == "rewrite path found"
                     and not n.theory.ops.commutative)
    net = _fresh(net)
    return (net, jsonio.term_from_json(net.theory, case["lhs"]),
            jsonio.term_from_json(net.theory, case["rhs"]), case)


def test_caches_past_the_budget_are_cleared():
    net, lhs, rhs, case = _searched_case()
    want = DECIDE[case["decide"]](lhs, rhs, net)
    ctx = freecat._context(net)
    assert ctx.layers and ctx.pairs and ctx.splits and ctx.held
    # A wrong numbering, wrong answers in every table, and filler past the
    # budget: only the numbering and the tables cleared together give the
    # verdict back.
    ctx.layers.reverse()
    ctx.gens[:] = [0] * len(ctx.gens)
    for table, wrong in zip((ctx.ids, ctx.pairs, ctx.splits, ctx.held), (0, [], [], ())):
        for key in table:
            table[key] = wrong
    ctx.held.update((i, ()) for i in range(DEFAULT_BUDGET))
    assert DECIDE[case["decide"]](lhs, rhs, net) == want
    assert _outcome(want) == {k: case[k] for k in ("status", "reason", "witness")}
    assert sum(map(len, ctx.caches())) < DEFAULT_BUDGET
    assert freecat._context(net) is ctx


def test_tables_are_cleared_only_at_a_call_entry():
    # Filler up to the bound: the call starts with it, grows its tables past
    # the bound as it searches, and still ends with them whole. The next
    # call's entry clears the filler and every table at once.
    net, lhs, rhs, case = _searched_case()
    want = mor_equal(lhs, rhs, _fresh(net))
    ctx = freecat._context(net)
    ctx.held.update((i, ()) for i in range(DEFAULT_BUDGET))
    assert mor_equal(lhs, rhs, net) == want
    assert sum(map(len, ctx.caches())) > DEFAULT_BUDGET
    assert all(ctx.held[i] == () for i in range(DEFAULT_BUDGET))
    assert freecat._context(net) is ctx
    assert not any(ctx.caches())
    assert mor_equal(lhs, rhs, net) == want


def test_qnet_budget_bounds_the_tables(monkeypatch):
    # The tables of one searched pair, kept while they hold no more than
    # QNET_BUDGET entries and cleared at the next entry once they hold more.
    net, lhs, rhs, case = _searched_case()
    want = mor_equal(lhs, rhs, net)
    ctx = freecat._context(net)
    held = sum(map(len, ctx.caches()))
    assert 0 < held < DEFAULT_BUDGET
    monkeypatch.setenv("QNET_BUDGET", str(held))
    assert freecat._context(net) is ctx
    assert sum(map(len, ctx.caches())) == held
    monkeypatch.setenv("QNET_BUDGET", str(held - 1))
    assert freecat._context(net) is ctx
    assert not any(ctx.caches())
    monkeypatch.delenv("QNET_BUDGET")
    assert mor_equal(lhs, rhs, net) == want


def test_a_malformed_qnet_budget_is_refused_by_every_call(monkeypatch):
    # The context reads the bound on every call, kept or not, so a first call
    # and its repeat refuse alike.
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    monkeypatch.setenv("QNET_BUDGET", "abc")
    for _ in range(2):
        with pytest.raises(QnetError, match="QNET_BUDGET must be a positive integer"):
            freecat.layered(Gen("t"), net)
    monkeypatch.delenv("QNET_BUDGET")
    assert freecat.layered(Gen("t"), net).layers


def test_answers_do_not_depend_on_the_numbering_history():
    """Ids follow the order in which a context first met each layer, and
    the answers must not: each net is warmed by the other kind of query
    first, then asked its questions in reverse order, and every verdict,
    witness and hom-set matches a fresh copy's."""
    nets: dict[int, tuple[QNet, list]] = {}
    for case, net in _pinned():
        nets.setdefault(id(net), (net, []))[1].append(case)
    homsets = 0
    for net, cases in nets.values():
        pairs = [] if net.theory.ops.group else [
            (x, y) for x in _objects(net) for y in _objects(net)]
        terms = [(DECIDE[case["decide"]], jsonio.term_from_json(net.theory, case["lhs"]),
                  jsonio.term_from_json(net.theory, case["rhs"])) for case in cases]
        for order in (1, -1):
            warm = _fresh(net)
            if order == 1:
                for x, y in pairs:
                    hom_enumerate(warm, x, y, 2, 2)
            for decide, lhs, rhs in terms[::order]:
                assert decide(lhs, rhs, warm) == decide(lhs, rhs, _fresh(net))
            for x, y in pairs[::-order]:
                assert hom_enumerate(warm, x, y, 2, 2) == hom_enumerate(_fresh(net), x, y, 2, 2)
                homsets += 1
    assert homsets > 100


def test_pickle_and_copy_leave_the_context_out():
    used, unused = petri("abc", CHAIN_ARCS), petri("abc", CHAIN_ARCS)
    mor_equal(*_parallel_terms(), used)
    assert hasattr(used, "_ctx") and not hasattr(unused, "_ctx")
    assert pickle.dumps(used) == pickle.dumps(unused)
    assert b"_ctx" not in pickle.dumps(used)
    for clone in (copy.deepcopy(used), copy.copy(used), pickle.loads(pickle.dumps(used))):
        assert clone == unused
        assert vars(clone) == vars(copy.deepcopy(unused))


# ---------------------------------------------------------------------------
# Numbering by payload, and witnesses rendered from ids


def _pinned_case(reason: str):
    """The first pinned ``mor_equal`` pair decided for ``reason``, on an
    unused copy of its net."""
    case, net = next((c, n) for c, n in _pinned()
                     if c["decide"] == "mor_equal" and c["reason"] == reason)
    net = _fresh(net)
    return (net, jsonio.term_from_json(net.theory, case["lhs"]),
            jsonio.term_from_json(net.theory, case["rhs"]), case)


@pytest.mark.parametrize("reason", ["rewrite path found", "greedy canonical forms agree"])
def test_a_warm_repeat_checks_only_the_ends(monkeypatch, reason):
    net, lhs, rhs, case = _pinned_case(reason)
    want = mor_equal(lhs, rhs, net)
    assert _outcome(want) == {k: case[k] for k in ("status", "reason", "witness")}
    ctx = freecat._context(net)
    ends = {end for term in (lhs, rhs) for end in freecat._layers_of(term, ctx)[:2]}
    calls = []
    real = theory.check_canonical
    monkeypatch.setattr(theory, "check_canonical",
                        lambda th, payload: calls.append(payload) or real(th, payload))
    assert mor_equal(lhs, rhs, net) == want
    # The two starts and the two targets, checked again; no layer is.
    assert len(calls) <= 4 and set(calls) <= ends
    assert not set(calls) & {layer.payload for layer in ctx.layers}


def test_equal_layers_built_apart_get_one_id():
    ctx = freecat._context(_fresh(SYMMETRY_NETS[0]))
    first, second = (FreeElem(ctx.net.theory, ("t", "id.b")) for _ in range(2))
    perms = [symmetry.braiding(word("a"), word("b")) for _ in range(2)]
    assert first == second and first is not second and perms[0] is not perms[1]
    (i,), (j,) = ctx.number([first]), ctx.number([second])
    assert i == j and ctx.layers[i] is first
    # A payload is its element's key; a permutation is its own.
    assert ctx.number([first.payload, perms[0]]) == (i, ctx.number([perms[1]])[0])
    assert ctx.layers[-1] is perms[0] and len(ctx.layers) == len(ctx.ids) == 2


def _renderer_contexts():
    """Contexts of zoo nets that the pinned decisions filled with CMON,
    SEMILAT and ABGRP layers and MON permutations, and a GRP context holding
    signed layers, from the moves of one layering, and a permutation."""
    nets: dict[int, QNet] = {}
    for case, net in _pinned():
        net = nets.setdefault(id(net), _fresh(net))
        DECIDE[case["decide"]](jsonio.term_from_json(net.theory, case["lhs"]),
                               jsonio.term_from_json(net.theory, case["rhs"]), net)
    grp = freecat._context(_fresh(GROUP_NETS[0]))
    _, ids, _ = freecat._layered_ctx(
        Oper("combine", (Gen("u"), Oper("invert", (Gen("t"),)))), grp)
    list(freecat._neighbors(ids, grp))
    grp.number([symmetry.braiding(signed("aB"), signed("a"))])
    return [freecat._context(net) for net in nets.values()] + [grp]


def test_witnesses_render_as_layered_repr(monkeypatch):
    contexts = _renderer_contexts()
    kinds = {(ctx.net.theory, isinstance(layer, Perm)) for ctx in contexts
             for layer in ctx.layers}
    assert {(th, False) for th in theory.Theory} | {
        (theory.Theory.MON, True), (theory.Theory.GRP, True)} <= kinds
    assert any(c < 0 for ctx in contexts if ctx.net.theory is theory.Theory.GRP
               for layer in ctx.layers if not isinstance(layer, Perm) for _, c in layer.payload)
    rng = random.Random(33)
    dumps = []
    real = jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps", lambda obj: dumps.append(obj) or real(obj))
    for ctx in contexts:
        start = next(iter(ctx.net.transitions.values()))[0]
        forms = [tuple(rng.randrange(len(ctx.layers)) for _ in range(rng.randrange(5)))
                 for _ in range(12)]
        del dumps[:]
        shown = freecat._shown(start, forms, ctx.layers)
        # The start once, then each distinct element layer once.
        assert len(dumps) == 1 + len({i for f in forms for i in f
                                      if not isinstance(ctx.layers[i], Perm)})
        assert shown == tuple(freecat.layered_repr(ctx.form(start, f)) for f in forms)
        for text, form in zip(shown, forms):
            steps = [f"perm{list(layer.mapping)}" if isinstance(layer, Perm)
                     else real(jsonio.elem_to_json(layer))
                     for layer in ctx.form(start, form).layers]
            assert text == f"{real(jsonio.elem_to_json(start))} [{' ; '.join(steps)}]"
