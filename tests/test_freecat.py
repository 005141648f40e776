import time

import pytest

from qnets import freecat, symmetry
from qnets.freecat import (
    Comp,
    Gen,
    Ident,
    IllTypedTermError,
    Oper,
    form_tgt,
    hom_enumerate,
    hom_nonempty_group,
    layered,
    layered_to_term,
    mor_equal,
    mor_src,
    mor_tgt,
    reachable,
    reachability_dot,
    underlying_net,
    unit_into_truncation,
    _context,
)
from qnets.net import QNet, validate_morphism
from qnets.reflexive import InvalidNetError
from qnets.theory import (
    QnetError,
    Theory,
    TheoryMismatchError,
    UnsupportedOperationError,
    finset,
    neutral,
    word,
)

from netzoo import (
    GROUP_NETS,
    PRE_NETS,
    cmon,
    elementary,
    integer_net,
    intvec,
    petri,
    prenet,
    shallow_stack,
    signed,
)
from oracle_rewrite import oracle_equal

CHAIN = petri("abc", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"c": 1})})
LOOP = petri("a", {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})


def test_mor_src_tgt_examples():
    comp = Comp(Gen("u"), Gen("t"))
    assert mor_src(comp, CHAIN) == cmon({"a": 1})
    assert mor_tgt(comp, CHAIN) == cmon({"c": 1})
    par = Oper("combine", (Gen("t"), Ident(cmon({"c": 1}))))
    assert mor_src(par, CHAIN) == cmon({"a": 1, "c": 1})
    with pytest.raises(IllTypedTermError):
        mor_src(Comp(Gen("t"), Gen("u")), CHAIN)


def test_layered_identity_and_parallel():
    ident = layered(Ident(cmon({"a": 2})), CHAIN)
    assert ident.layers == ()
    assert ident.start == cmon({"a": 2})
    par = layered(Oper("combine", (Gen("t"), Gen("u"))), CHAIN)
    assert len(par.layers) == 1
    assert dict(par.layers[0].payload) == {"t": 1, "u": 1}


def test_layered_padding_example():
    # Fire t against frame a, then u against frame a: hand-derived layers.
    term = Comp(
        Oper("combine", (Gen("u"), Ident(cmon({"a": 1})))),
        Oper("combine", (Gen("t"), Ident(cmon({"a": 1})))))
    form = layered(term, CHAIN)
    assert form.start == cmon({"a": 2})
    assert [dict(l.payload) for l in form.layers] == [
        {"t": 1, "id.a": 1}, {"u": 1, "id.a": 1}]
    rebuilt = layered_to_term(form, CHAIN)
    assert mor_equal(rebuilt, term, CHAIN).is_equal


@pytest.mark.parametrize("start,layers,message", [
    (word("a"), [word(["zzz"])], "unknown transition 'zzz'"),
    (word("a"), [word("t"), word("t")],
     r"composite mismatch: before ends at \('b',\), after starts at"),
    (word("b"), [word("t")], r"form starts at \('b',\), its layers at \('a',\)"),
    (word("a"), [word(["id.z"])], "identity object mentions undeclared places"),
    (word("a"), [cmon({"t": 1})], "outside the net's theory MON"),
    (cmon({"a": 1}), [word("t")], "outside the net's theory MON"),
], ids=["unknown", "mismatch", "start", "undeclared", "layer-theory", "start-theory"])
def test_layered_to_term_checks_its_form_against_the_net(start, layers, message):
    net = prenet("ab", {"t": ("a", "b")})
    with pytest.raises(IllTypedTermError, match=message):
        layered_to_term(freecat.LayeredForm(start, tuple(layers)), net)


def test_mor_equal_unit_law():
    v = mor_equal(Comp(Ident(cmon({"b": 1})), Gen("t")), Gen("t"), CHAIN)
    assert v.is_equal


def test_mor_equal_interchange():
    both = Oper("combine", (Gen("t"), Gen("u")))
    seq = Comp(
        Oper("combine", (Gen("u"), Ident(cmon({"b": 1})))),
        Oper("combine", (Gen("t"), Ident(cmon({"b": 1})))))
    assert mor_equal(both, seq, CHAIN).is_equal
    assert oracle_equal(both, seq, CHAIN)


def test_mor_equal_orders_distinct():
    t_then_u = Comp(Gen("u"), Gen("t"))
    u_then_t = Comp(Gen("t"), Gen("u"))
    verdict = mor_equal(t_then_u, u_then_t, LOOP)
    assert verdict.is_distinct
    assert not oracle_equal(t_then_u, u_then_t, LOOP)


def test_mor_equal_semilat_idempotence():
    net = elementary("ab", {"t": ("a", "b")})
    v = mor_equal(Oper("combine", (Gen("t"), Gen("t"))), Gen("t"), net)
    assert v.is_equal


def test_mor_equal_endpoint_separation():
    v = mor_equal(Gen("t"), Gen("u"), CHAIN)
    assert v.is_distinct


def test_hom_enumerate_examples():
    homs = hom_enumerate(CHAIN, cmon({"a": 1}), cmon({"a": 1}), 2, 2)
    assert Ident(cmon({"a": 1})) in homs
    single = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    assert hom_enumerate(single, cmon({"a": 1}), cmon({"b": 1}), 2, 2) == [Gen("t")]
    doubled = hom_enumerate(single, cmon({"a": 2}), cmon({"b": 2}), 2, 2)
    assert len(doubled) == 1
    with pytest.raises(UnsupportedOperationError):
        hom_enumerate(integer_net("a", {}), intvec({}), intvec({}), 1, 1)
    with pytest.raises(UnsupportedOperationError):
        hom_enumerate(single, cmon({}), cmon({}), 0, 1)


def test_hom_enumerate_checks_its_markings_as_reachable_does():
    single = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    off_net = [(cmon({"z": 1}), cmon({"z": 1})), (cmon({"a": 1, "z": 1}), cmon({"b": 1})),
               (cmon({"a": 1}), cmon({"b": 1, "z": 1}))]
    for x, y in off_net:
        with pytest.raises(InvalidNetError, match="^marking mentions undeclared places$"):
            hom_enumerate(single, x, y, 2, 2)
    for x, y in ((word("a"), cmon({"b": 1})), (cmon({"a": 1}), word("b"))):
        with pytest.raises(TheoryMismatchError,
                           match="^marking theory differs from net theory$"):
            hom_enumerate(single, x, y, 2, 2)
    # The same errors as for reachable's start marking.
    with pytest.raises(InvalidNetError, match="^marking mentions undeclared places$"):
        reachable(single, cmon({"z": 1}), 1)
    with pytest.raises(TheoryMismatchError, match="^marking theory differs from net theory$"):
        reachable(single, word("a"), 1)


def test_reachable_cmon_example():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    result = reachable(net, cmon({"a": 2}), 2)
    assert set(result.markings) == {cmon({"a": 2}), cmon({"a": 1, "b": 1}),
                                    cmon({"b": 2})}
    empty = reachable(petri("a", {}), cmon({"a": 1}), 3)
    assert set(empty.markings) == {cmon({"a": 1})}


def test_reachable_mon_requires_contiguous_factor():
    net = prenet("abc", {"t": ("aa", "c")})
    result = reachable(net, word("aba"), 3)
    assert set(result.markings) == {word("aba")}
    hit = reachable(net, word("aab"), 3)
    assert word("cb") in hit.markings


def test_reachable_semilat_contexts():
    net = elementary("ab", {"t": ("a", "b")})
    result = reachable(net, finset("a"), 1)
    assert set(result.markings) == {finset("a"), finset("b"), finset("ab")}
    for m in result.markings:
        assert list(m.payload) == sorted(set(m.payload))


def test_reachable_group_rejected():
    with pytest.raises(UnsupportedOperationError):
        reachable(integer_net("a", {"t": ({"a": 1}, {})}), intvec({"a": 1}), 1)


def test_reachability_dot_output():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    dot = reachability_dot(reachable(net, cmon({"a": 1}), 1))
    assert dot.startswith("digraph")
    assert '"{\\"a\\":1}"' in dot


def test_hom_nonempty_group_examples():
    net = integer_net("ab", {"t": ({"a": 1}, {"b": 1})})
    assert hom_nonempty_group(net, intvec({"a": 1}), intvec({"a": 1}))
    assert hom_nonempty_group(net, intvec({"b": 1}), intvec({"a": 1}))
    parity = integer_net("a", {"t": ({"a": 2}, {})})
    assert not hom_nonempty_group(parity, intvec({"a": 1}), intvec({}))
    with pytest.raises(UnsupportedOperationError):
        hom_nonempty_group(petri("a", {}), cmon({}), cmon({}))


def test_hom_nonempty_group_on_one_place_takes_the_gcd_of_the_effects():
    # Effects 2 and 3 meet no common pivot divisor: the lattice's gcd step
    # finds that they span every integer.
    coprime = integer_net("a", {"t": ({}, {"a": 2}), "u": ({}, {"a": 3})})
    assert hom_nonempty_group(coprime, intvec({}), intvec({"a": 1}))
    # Effects 2 and 4 span the even integers only; 4 reduces to zero by 2.
    even = integer_net("a", {"t": ({}, {"a": 2}), "u": ({}, {"a": 4})})
    assert not hom_nonempty_group(even, intvec({}), intvec({"a": 1}))
    assert hom_nonempty_group(even, intvec({}), intvec({"a": 6}))


def test_hom_nonempty_group_checks_as_mor_equal_does():
    """The lattice test validates the net and its markings through the same
    ``_context`` and ``_check_marking`` as the other decision procedures."""
    reserved = integer_net("ab", {"id.a": ({"a": 1}, {"b": 1})})
    for decide in (lambda: hom_nonempty_group(reserved, intvec({"a": 1}), intvec({})),
                   lambda: mor_equal(Gen("id.a"), Gen("id.a"), reserved)):
        with pytest.raises(InvalidNetError, match="reserves the 'id.' transition prefix"):
            decide()
    net = integer_net("ab", {"t": ({"a": 1}, {"b": 1})})
    with pytest.raises(TheoryMismatchError, match="^marking theory differs from net theory$"):
        hom_nonempty_group(net, intvec({"a": 1}), cmon({"b": 1}))
    with pytest.raises(InvalidNetError, match="^marking mentions undeclared places$"):
        hom_nonempty_group(net, intvec({"a": 1}), intvec({"z": 1}))


def test_group_cancellation_equalities():
    net = integer_net("ab", {"t": ({"a": 1}, {"b": 1})})
    cancel = Oper("combine", (Gen("t"), Oper("invert", (Gen("t"),))))
    assert mor_equal(cancel, Ident(neutral(Theory.ABGRP)), net).is_equal
    # Backward firing b -> a: whisker the inverted generator with a frame.
    backward = Oper("combine", (Oper("invert", (Gen("t"),)),
                                Ident(intvec({"a": 1, "b": 1}))))
    assert mor_src(backward, net) == intvec({"b": 1})
    assert mor_tgt(backward, net) == intvec({"a": 1})


def test_underlying_net_truncation():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    trunc = underlying_net(net, 2)
    loops = [n for n, (s, t) in trunc.net.transitions.items() if s == t]
    assert len(loops) >= len(trunc.objects)
    unit_m = unit_into_truncation(net, trunc)
    assert validate_morphism(unit_m) == []


def test_underlying_net_rejects_a_mixed_theory_net():
    # Validated before its objects are sorted, which a CMON and a MON payload
    # cannot be.
    net = QNet(Theory.CMON, ("a",), {"t": (word("a"), cmon({"a": 1}))})
    with pytest.raises(InvalidNetError, match="has theory MON"):
        underlying_net(net, 1)


def test_layered_moves_preserve_endpoints():
    mon_step = QNet(Theory.MON, ("a", "b"), {"t": (word("a"), word("b"))})
    forms = [
        (CHAIN, layered(Comp(Oper("combine", (Gen("u"), Ident(cmon({"b": 1})))),
                             Oper("combine", (Gen("t"), Gen("t")))), CHAIN)),
        # A symmetric form ending in a permutation layer: t on the first a,
        # then the swap b.a -> a.b.
        (mon_step, symmetry.sym_layered(
            Comp(symmetry.braiding(word("b"), word("a")),
                 Oper("combine", (Gen("t"), Ident(word("a"))))), mon_step)),
    ]
    from qnets.freecat import _neighbors

    for net, form in forms:
        ctx = _context(net)
        moves = [ctx.form(form.start, ids) for ids in _neighbors(ctx.number(form.layers), ctx)]
        assert moves
        for neighbor in moves:
            assert neighbor.start == form.start
            assert form_tgt(neighbor, ctx) == form_tgt(form, ctx)


@pytest.mark.parametrize("theory_net,terms", [
    (CHAIN, [Comp(Gen("u"), Gen("t")),
             Comp(Comp(Ident(cmon({"c": 1})), Gen("u")), Gen("t"))]),
    (LOOP, [Comp(Gen("t"), Gen("t")), Comp(Gen("t"), Gen("t"))]),
])
def test_oracle_spot_agreement(theory_net, terms):
    t1, t2 = terms
    verdict = mor_equal(t1, t2, theory_net)
    assert not verdict.is_unknown
    assert verdict.is_equal == oracle_equal(t1, t2, theory_net)


def test_equal_terms_share_occurrence_counts():
    from layer_refs import form_occurrences

    both = Oper("combine", (Gen("t"), Gen("u")))
    seq = Comp(
        Oper("combine", (Gen("u"), Ident(cmon({"b": 1})))),
        Oper("combine", (Gen("t"), Ident(cmon({"b": 1})))))
    assert mor_equal(both, seq, CHAIN).is_equal
    assert form_occurrences(layered(both, CHAIN).layers) \
        == form_occurrences(layered(seq, CHAIN).layers)


def test_reach_hom_consistency_both_ways():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    start = cmon({"a": 2})
    reach = set(reachable(net, start, 2).markings)
    candidates = [cmon(c) for c in
                  ({"a": 2}, {"a": 1, "b": 1}, {"b": 2}, {"a": 1}, {"b": 1}, {})]
    for marking in candidates:
        homs = hom_enumerate(net, start, marking, 2, 4)
        assert bool(homs) == (marking in reach)


def test_budget_env_override(monkeypatch):
    from qnets.freecat import default_budget

    assert default_budget() == 10_000
    monkeypatch.setenv("QNET_BUDGET", "123")
    assert default_budget() == 123
    for bad in ("abc", "1.5", "0", "-4"):
        monkeypatch.setenv("QNET_BUDGET", bad)
        with pytest.raises(QnetError, match="QNET_BUDGET"):
            default_budget()


@pytest.mark.parametrize("budget", [0, -1, -3, True, False, 2.5, "5"])
def test_nonsense_budgets_are_refused(budget):
    # t: ab -> c, u: c -> ab. From cc to cab the hom-set holds 3 classes;
    # a budget of 1 splits one of them.
    net = PRE_NETS[5]
    t, u = Gen("t"), Gen("u")
    lhs = Oper("combine", (t, u))
    rhs = Comp(Oper("combine", (Ident(word("c")), u)), Oper("combine", (t, Ident(word("c")))))
    calls = [lambda: hom_enumerate(net, word("cc"), word("cab"), 3, 1, budget=budget),
             lambda: mor_equal(lhs, rhs, net, budget=budget),
             lambda: mor_equal(t, t, net, budget=budget),
             lambda: symmetry.sym_equal(lhs, rhs, net, budget=budget)]
    for call in calls:
        with pytest.raises(QnetError, match="budget must be a positive integer"):
            call()
    assert len(hom_enumerate(net, word("cc"), word("cab"), 3, 1, budget=1)) == 3 + 1
    assert len(hom_enumerate(net, word("cc"), word("cab"), 3, 1)) == 3


@pytest.mark.parametrize("bad", [-1, True, False, 2.5, "3", None])
def test_nonsense_token_game_bounds_are_refused(bad):
    single = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    with pytest.raises(QnetError, match="max_steps must be a non-negative integer"):
        reachable(single, cmon({"a": 1}), bad)
    assert len(reachable(single, cmon({"a": 1}), 0).markings) == 1


@pytest.mark.parametrize("layers,width", [(True, 1), (2, True), (2.0, 1), (2, 1.0), (0, 1),
                                          (2, -1), ("2", 1), (2, None)])
def test_nonsense_hom_set_bounds_are_refused(layers, width):
    single = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    with pytest.raises(QnetError, match="layer and width bounds must be positive integers"):
        hom_enumerate(single, cmon({"a": 1}), cmon({"b": 1}), layers, width)
    assert hom_enumerate(single, cmon({"a": 1}), cmon({"b": 1}), 1, 1) == [Gen("t")]


@pytest.mark.parametrize("net,m0,steps", [
    # Five tokens fire t once to five times in one step; a width cap one short
    # of the budget's remainder would drop the five-fold firing unrefused.
    (petri("ab", {"t": ({"a": 1}, {"b": 1})}), cmon({"a": 5}), 1),
    (petri("ab", {"t": ({"a": 1}, {"b": 1})}), cmon({"a": 5}), 2),
    (prenet("ab", {"t": ("a", "b")}), word("aaaa"), 3),
    (elementary("abc", {"t": ("ab", "c")}), finset("abc"), 2),
])
def test_reachable_refuses_more_firings_than_the_budget(monkeypatch, net, m0, steps):
    edges = len(reachable(net, m0, steps).edges)
    monkeypatch.setenv("QNET_BUDGET", str(edges))
    assert len(reachable(net, m0, steps).edges) == edges
    monkeypatch.setenv("QNET_BUDGET", str(edges - 1))
    with pytest.raises(QnetError, match=f"more than {edges - 1} transitions.*QNET_BUDGET"):
        reachable(net, m0, steps)


# t: 0 -> a fires from nothing k times in one layer for every k up to the width.
SPRING = petri("a", {"t": ({}, {"a": 1})})


def test_hom_enumerate_keeps_small_layer_steps_from_an_empty_source():
    nothing = neutral(Theory.CMON)
    for layers in (1, 2):
        assert hom_enumerate(SPRING, nothing, cmon({"a": 1}), layers, 3, budget=1) == [Gen("t")]
        for k in (2, 3):
            assert hom_enumerate(SPRING, nothing, cmon({"a": k}), layers, 3) \
                == [Oper("combine", (Gen("t"),) * k)]


@pytest.mark.parametrize("budget", [None, 1, 10**9])
def test_hom_enumerate_refuses_a_layer_step_past_the_budget(budget):
    started = time.monotonic()
    with pytest.raises(QnetError, match="more than 10000 layers.*QNET_BUDGET"):
        hom_enumerate(SPRING, neutral(Theory.CMON), cmon({"a": 1}), 1, 10**6, budget)
    assert time.monotonic() - started < 1.0


def test_the_layer_step_bound_follows_qnet_budget(monkeypatch):
    monkeypatch.setenv("QNET_BUDGET", "5")
    nothing = neutral(Theory.CMON)
    assert hom_enumerate(SPRING, nothing, cmon({"a": 5}), 1, 5) \
        == [Oper("combine", (Gen("t"),) * 5)]
    with pytest.raises(QnetError, match="more than 5 layers"):
        hom_enumerate(SPRING, nothing, cmon({"a": 5}), 1, 6)


def test_hom_enumerate_refuses_a_word_layer_step_past_the_budget_of_letters():
    # Each layer t^k is k letters long: counting layers alone built 10**4
    # layers of up to 10**4 letters before refusing.
    started = time.monotonic()
    with pytest.raises(QnetError, match="more than 10000 letters.*QNET_BUDGET"):
        hom_enumerate(prenet("a", {"t": ("", "a")}), word(""), word("a"), 1, 10**6)
    assert time.monotonic() - started < 1.0


def test_the_word_layer_step_bound_follows_qnet_budget(monkeypatch):
    monkeypatch.setenv("QNET_BUDGET", "10")
    net = prenet("a", {"t": ("", "a")})
    # t, tt, ttt and tttt spell 10 letters.
    assert hom_enumerate(net, word(""), word("aaaa"), 1, 4) == [Oper("combine", (Gen("t"),) * 4)]
    with pytest.raises(QnetError, match="more than 10 letters"):
        hom_enumerate(net, word(""), word("aaaa"), 1, 5)


def test_hom_enumerate_refuses_past_the_budget_of_paths(monkeypatch):
    loops = petri("a", {name: ({"a": 1}, {"a": 1}) for name in "tuv"})
    one = cmon({"a": 1})
    # 3 + 9 paths of one or two layers, each its own class, and the identity.
    monkeypatch.setenv("QNET_BUDGET", "12")
    assert len(hom_enumerate(loops, one, one, 2, 1)) == 13
    monkeypatch.setenv("QNET_BUDGET", "11")
    with pytest.raises(QnetError, match="more than 11 layer paths; QNET_BUDGET"):
        hom_enumerate(loops, one, one, 2, 1, budget=10**6)


def test_free_edges_morphism_validates():
    from qnets.net import NetMorphism
    from qnets.reflexive import (add_identities_morphism, free_edges_morphism,
                                 validate_graph_morphism)

    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    q = petri("c", {"s": ({"c": 1}, {"c": 1})})
    m = add_identities_morphism(NetMorphism(p, q, {"t": "s"}, {"a": "c", "b": "c"}))
    assert validate_graph_morphism(free_edges_morphism(m)) == []


def test_deep_composite_chain_stays_off_the_call_stack():
    a = Ident(cmon({"a": 1}))
    term = a
    for _ in range(3000):
        term = Comp(a, term)
    assert mor_src(term, LOOP) == cmon({"a": 1})
    assert mor_equal(term, a, LOOP).is_equal
    steps = Gen("t")
    for name in ["u", "t"] * 1500:
        steps = Comp(Gen(name), steps)
    assert mor_tgt(steps, LOOP) == cmon({"a": 1})
    assert len(layered(steps, LOOP).layers) == 3001


# Each case runs out of stack at the default recursion limit on the stated
# input if the code recurses once per letter or layer; 300 letters or layers
# under a stack 100 frames deep show the same.


def test_hom_enumerate_depth_stays_off_the_call_stack():
    # Full size: 990 layers on the one-place self-loop.
    loop = petri("a", {"t": ({"a": 1}, {"a": 1})})
    with shallow_stack():
        classes = hom_enumerate(loop, cmon({"a": 1}), cmon({"a": 1}), 300, 1)
    assert len(classes) == 301


def test_word_step_layers_stay_off_the_call_stack():
    # Full size: one layer over a 1,200-letter word (``_step_layers``).
    loop = prenet("a", {"t": ("a", "a")})
    with shallow_stack():
        classes = hom_enumerate(loop, word("a" * 300), word("a" * 300), 1, 1)
    assert len(classes) == 301  # the identity and t at each position


def test_hom_enumerate_builds_each_identity_leaf_once(monkeypatch):
    loop = prenet("a", {"t": ("a", "a")})
    calls = []
    real = freecat.unit
    monkeypatch.setattr(freecat, "unit", lambda th, p: calls.append(p) or real(th, p))
    classes = hom_enumerate(loop, word("a" * 300), word("a" * 300), 1, 1)
    assert len(classes) == 301
    assert sum(isinstance(leaf, Ident) for leaf in classes[1].args) == 299
    assert calls == ["a", "a"]  # the net's held letter and one identity leaf


def test_word_merges_stay_off_the_call_stack():
    # Full size: the interchange square on a 1,200-letter word (``_merge_words``).
    loop = prenet("a", {"t": ("a", "a")})
    rest = Ident(word("a" * 299))
    left, right = Oper("combine", (Gen("t"), rest)), Oper("combine", (rest, Gen("t")))
    with shallow_stack():
        verdict = mor_equal(Comp(left, right), Comp(right, left), loop)
    assert (verdict.status, verdict.reason) == ("equal", "greedy canonical forms agree")


def _inv(t):
    return Oper("invert", (t,))


# ``invert`` is the theory's inverse on morphisms: on t: a -> b it goes from
# a^-1 to b^-1.
@pytest.mark.parametrize("net,last", [
    (integer_net("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 2}, {"a": 1})}),
     Comp(_inv(Gen("u")), Oper("combine", (_inv(Gen("t")), _inv(Gen("t")))))),
    (GROUP_NETS[0], Comp(_inv(Gen("u")), Oper("combine", (Ident(signed("a")), _inv(Gen("t")))))),
], ids=["ABGRP", "GRP"])
def test_layered_to_term_inverts_negative_counts_back_to_an_equal_term(net, last):
    for term in (_inv(Gen("t")), Oper("combine", (_inv(Gen("t")), Gen("u"))), last):
        back = layered_to_term(layered(term, net), net)
        assert "invert" in repr(back), term
        assert mor_equal(term, back, net).is_equal, term
