import pytest

from qnets.freecat import Comp, Gen, Ident, Oper, mor_equal
from qnets.net import apply_net_functor
from qnets.symmetry import (
    Perm,
    braiding,
    erase_symmetries,
    linearization_count,
    linearization_sum,
    linearizations,
    perm_tgt,
    sym_equal,
    translate_term,
)
from qnets.net import QNet
from qnets.theory import Theory, TheoryArrow, UnsupportedOperationError, signed_word, word

from netzoo import cmon, petri, prenet

PRENET = prenet("ab", {"t": ("a", "b"), "u": ("ab", "a")})


def test_braiding_examples():
    assert braiding(word("a"), word("")).mapping == (0,)
    swap = braiding(word("a"), word("b"))
    assert swap.mapping == (1, 0)
    assert perm_tgt(swap) == word("ba")
    with pytest.raises(UnsupportedOperationError):
        braiding(cmon({"a": 1}), cmon({"b": 1}))


def test_braiding_squares_to_identity():
    x, y = word("ab"), word("ba")
    square = Comp(braiding(y, x), braiding(x, y))
    assert sym_equal(square, Ident(word("abba")), PRENET).is_equal


def test_perm_composition_collapses():
    x = word("ab")
    swap = braiding(word("a"), word("b"))
    v = sym_equal(Comp(swap, braiding(word("b"), word("a"))),
                  Ident(word("ba")), PRENET)
    assert v.is_equal


def test_hexagon_degenerate_instance():
    # gamma_{x,y.z} equals (id_y (+) gamma_{x,z}) after gamma_{x,y} (+) id_z;
    # both sides collapse to the same position permutation.
    x, y, z = word("a"), word("b"), word("a")
    lhs = braiding(x, word("ba"))
    step1 = Perm(word("aba"),
                 braiding(x, y).mapping + (2,))
    step2 = Perm(word("baa"), (0,) + tuple(1 + i for i in braiding(x, z).mapping))
    assert sym_equal(lhs, Comp(step2, step1), PRENET).is_equal


def test_naturality_slide():
    u = word("b")
    lhs = Comp(braiding(word("b"), u), Oper("combine", (Gen("t"), Ident(u))))
    rhs = Comp(Oper("combine", (Ident(u), Gen("t"))), braiding(word("a"), u))
    assert sym_equal(lhs, rhs, PRENET).is_equal


def test_sym_distinct_on_effects():
    v = sym_equal(Gen("t"), Gen("u"), PRENET)
    assert v.is_distinct


def test_forgetting_symmetries_lands_in_cmon_equality():
    u = word("b")
    lhs = Comp(braiding(word("b"), u), Oper("combine", (Gen("t"), Ident(u))))
    rhs = Comp(Oper("combine", (Ident(u), Gen("t"))), braiding(word("a"), u))
    assert sym_equal(lhs, rhs, PRENET).is_equal
    cm_net = apply_net_functor(TheoryArrow.ABELIANIZE, PRENET)
    t1 = translate_term(TheoryArrow.ABELIANIZE, erase_symmetries(lhs))
    t2 = translate_term(TheoryArrow.ABELIANIZE, erase_symmetries(rhs))
    assert mor_equal(t1, t2, cm_net).is_equal


def test_linearizations_multinomial_example():
    net = petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1})})
    lins = linearizations(net)
    assert len(lins) == 3
    srcs = sorted(l.transitions["t"][0].payload for l in lins)
    assert srcs == [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]
    for lin in lins:
        assert apply_net_functor(TheoryArrow.ABELIANIZE, lin) == net


def test_linearizations_trivial_and_preimage():
    net = petri("a", {"t": ({}, {})})
    lins = linearizations(net)
    assert len(lins) == 1
    pre = prenet("ab", {"t": ("ab", "a")})
    back = apply_net_functor(TheoryArrow.ABELIANIZE, pre)
    assert pre in linearizations(back)


def test_every_small_prenet_is_in_its_own_preimage():
    from netzoo import PRE_NETS

    for pre in PRE_NETS:
        if any(arc.size() > 3 for pair in pre.transitions.values() for arc in pair):
            continue
        image = apply_net_functor(TheoryArrow.ABELIANIZE, pre)
        assert pre in linearizations(image)


def test_linearization_count_formula():
    net = petri("abc", {"t": ({"a": 2, "b": 2}, {"c": 1}),
                        "u": ({"a": 1}, {"b": 1, "c": 1})})
    assert len(linearizations(net)) == linearization_count(net)


def test_linearizations_abgrp_signed_normal_form():
    from netzoo import integer_net

    net = integer_net("ab", {"t": ({"a": 1, "b": -1}, {})})
    lins = linearizations(net)
    assert {l.transitions["t"][0].payload for l in lins} \
        == {(("a", 1), ("b", -1)), (("b", -1), ("a", 1))}
    for lin in lins:
        assert lin.theory is Theory.GRP
        assert apply_net_functor(TheoryArrow.GROUP_SIGNED, lin) == net


def test_linearization_sum():
    net = petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1})})
    summed = linearization_sum(net)
    assert len(summed.transitions) == 3
    assert summed.theory is Theory.MON
    abelianized = apply_net_functor(TheoryArrow.ABELIANIZE, summed)
    assert set(abelianized.transitions.values()) == set(net.transitions.values())


def test_unique_linearization_when_multiplicities_flat():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    summed = linearization_sum(net)
    assert len(summed.transitions) == 1


def test_slide_skips_a_grp_layer_whose_source_cancels():
    # t^-1.u.v.x has source a^-1.a.b.c = b.c: its held source blocks are
    # longer than the swap in front of it, so no slide applies.
    def w(*names):
        return signed_word([(n, 1) for n in names])

    net = QNet(Theory.GRP, ("a", "b", "c"), {
        "t": (w("a"), w("a")), "u": (w("a"), w("a")),
        "v": (w("b"), w("b")), "x": (w("c"), w("c"))})
    swap = braiding(w("c"), w("b"))
    layer = Oper("combine", (Oper("invert", (Gen("t"),)), Gen("u"), Gen("v"), Gen("x")))
    other = Oper("combine", (Oper("invert", (Gen("t"),)), Gen("u"), Gen("x"), Gen("v")))
    assert sym_equal(Comp(layer, swap), Comp(swap, other), net).is_unknown
