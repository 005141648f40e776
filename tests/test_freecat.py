import pytest

from qnets import freecat
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

from netzoo import cmon, elementary, integer_net, intvec, petri, prenet, shallow_stack
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
    ctx = _context(CHAIN)
    term = Comp(Oper("combine", (Gen("u"), Ident(cmon({"a": 1})))),
                Oper("combine", (Gen("t"), Ident(cmon({"a": 1})))))
    form = layered(term, CHAIN)
    from qnets.freecat import _neighbors

    for neighbor in _neighbors(form, ctx):
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
    from qnets.freecat import _form_occurrences

    both = Oper("combine", (Gen("t"), Gen("u")))
    seq = Comp(
        Oper("combine", (Gen("u"), Ident(cmon({"b": 1})))),
        Oper("combine", (Gen("t"), Ident(cmon({"b": 1})))))
    assert mor_equal(both, seq, CHAIN).is_equal
    assert _form_occurrences(layered(both, CHAIN)) \
        == _form_occurrences(layered(seq, CHAIN))


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
