import itertools
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from qnets import freecat, symmetry
from qnets.freecat import Comp, Gen, Ident, IllTypedTermError, Oper, mor_equal
from qnets.net import apply_net_functor, default_budget
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
from qnets.theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    UnsupportedOperationError,
    combine,
    invert,
    neutral,
    signed_word,
    translate,
    word,
)

from layer_refs import frame_ref, outcome, zip_ref
from netzoo import GROUP_NETS, cmon, petri, prenet, signed

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


def test_linearizations_are_bounded_by_their_count():
    seven = {p: 1 for p in "abcdefg"}
    net = petri("abcdefg", {"t": (seven, {"a": 1, "b": 1})})  # 5,040 * 2 nets
    assert linearization_count(net) == 10_080 > default_budget()
    with pytest.raises(UnsupportedOperationError, match="more than 10000"):
        linearizations(net)
    # Twelve tokens on one place have one ordering, found without 12! steps.
    assert len(linearizations(petri("a", {"t": ({"a": 12}, {})}))) == 1


def test_linearizations_follow_qnet_budget(monkeypatch):
    net = petri("ab", {"t": ({"a": 1, "b": 1}, {"a": 2, "b": 1})})  # 2 * 3 orderings
    assert len(linearizations(net)) == linearization_count(net) == 6
    monkeypatch.setenv("QNET_BUDGET", "5")
    with pytest.raises(UnsupportedOperationError) as info:
        linearizations(net)
    assert str(info.value) == "the net has more than 5 linearizations; QNET_BUDGET raises the bound"
    monkeypatch.setenv("QNET_BUDGET", "6")
    assert len(linearizations(net)) == 6


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from("abc"), max_size=7),
    st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=7)))
def test_distinct_orderings_match_permutation_reference(letters):
    assert symmetry._distinct_orderings(tuple(letters)) \
        == sorted(set(itertools.permutations(letters)))


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


def test_deep_symmetric_chain_stays_off_the_call_stack():
    a = Ident(word("a"))
    term = a
    for _ in range(3000):
        term = Comp(a, term)
    assert sym_equal(term, a, PRENET).is_equal
    assert mor_equal(erase_symmetries(term), a, PRENET).is_equal
    assert mor_equal(translate_term(TheoryArrow.FREE_GROUP, term),
                     Ident(signed_word([("a", 1)])),
                     apply_net_functor(TheoryArrow.FREE_GROUP, PRENET)).is_equal
    still = Perm(word("ab"), (0, 1))
    perms = still
    for _ in range(3000):
        perms = Comp(still, perms)
    assert sym_equal(perms, Ident(word("ab")), PRENET).is_equal
    assert mor_equal(erase_symmetries(perms), Ident(word("ab")), PRENET).is_equal


# ---------------------------------------------------------------------------
# The iterative walks against the recursive code they replaced


_CANCEL = "a permutation beside a cancelling boundary is not representable letterwise"


def _product_ref(th, elems):
    """A left fold of binary combine."""
    return reduce(lambda x, y: combine(th, x, y), elems, neutral(th))


def _pad_after_ref(layer, suffix):
    th = suffix.theory
    if isinstance(layer, Perm):
        n = len(layer.word.payload)
        mapping = layer.mapping + tuple(n + k for k in range(len(suffix.payload)))
        word = combine(th, layer.word, suffix)
        if len(word.payload) != len(mapping):
            raise UnsupportedOperationError(_CANCEL)
        return Perm(word, mapping)
    return combine(th, layer, frame_ref(th, suffix))


def _pad_before_ref(prefix, layer):
    th = prefix.theory
    if isinstance(layer, Perm):
        m = len(prefix.payload)
        mapping = tuple(range(m)) + tuple(m + t for t in layer.mapping)
        word = combine(th, prefix, layer.word)
        if len(word.payload) != len(mapping):
            raise UnsupportedOperationError(_CANCEL)
        return Perm(word, mapping)
    return combine(th, frame_ref(th, prefix), layer)


def _sym_elems_ref(t, ctx):
    th = ctx.net.theory
    if isinstance(t, Perm):
        symmetry._check_perm(t, th)
        if t.word.atoms() - set(ctx.net.places):
            raise IllTypedTermError("permutation word mentions undeclared places")
        return t.word, perm_tgt(t), (Perm(t.word, t.mapping),)
    if isinstance(t, (Gen, Ident)):
        src, tgt, layers = freecat._layers_of(t, ctx)
        return FreeElem(th, src), FreeElem(th, tgt), tuple(FreeElem(th, l) for l in layers)
    if isinstance(t, Comp):
        src_b, tgt_b, layers_b = _sym_elems_ref(t.before, ctx)
        src_a, tgt_a, layers_a = _sym_elems_ref(t.after, ctx)
        if tgt_b != src_a:
            raise IllTypedTermError(
                f"composite mismatch: before ends at {tgt_b.payload}, after starts at"
                f" {src_a.payload}")
        return src_b, tgt_a, layers_b + layers_a
    if isinstance(t, Oper) and t.op == "combine":
        if len(t.args) < 2:
            raise IllTypedTermError("combine needs at least two arguments")
        # Every argument is walked before any is combined, as in _layers_of.
        walked = [_sym_elems_ref(arg, ctx) for arg in t.args]
        srcs, tgts, stacks = zip(*walked)
        if not any(isinstance(l, Perm) for layers in stacks for l in layers):
            src, tgt, layers = walked[0]
            for src_b, tgt_b, layers_b in walked[1:]:
                layers = zip_ref(th, (src, layers), (src_b, layers_b))
                src, tgt = combine(th, src, src_b), combine(th, tgt, tgt_b)
            return src, tgt, layers
        # A permutation anywhere: the arguments fire one after the other, each
        # beside the reduced targets before it and reduced sources after it.
        layers = []
        for i, own in enumerate(stacks):
            prefix, suffix = _product_ref(th, tgts[:i]), _product_ref(th, srcs[i + 1:])
            for l in own:
                layers.append(_pad_after_ref(_pad_before_ref(prefix, l), suffix))
                # A padded permutation's target must not cancel either.
                if isinstance(l, Perm):
                    symmetry._check_perm(layers[-1], th)
        return _product_ref(th, srcs), _product_ref(th, tgts), tuple(layers)
    if isinstance(t, Oper) and t.op == "invert":
        if th is not Theory.GRP:
            raise IllTypedTermError(f"{th.value} morphisms have no inverses")
        if len(t.args) != 1:
            raise IllTypedTermError("invert takes exactly one argument")
        src, tgt, layers = _sym_elems_ref(t.args[0], ctx)
        inverted = []
        for layer in layers:
            if isinstance(layer, Perm):
                n = len(layer.word.payload)
                mapping = tuple(n - 1 - layer.mapping[n - 1 - i] for i in range(n))
                inverted.append(Perm(invert(layer.word), mapping))
            else:
                inverted.append(invert(layer))
        return invert(src), invert(tgt), tuple(inverted)
    if isinstance(t, Oper):
        raise IllTypedTermError(f"unknown operation {t.op!r}")
    raise IllTypedTermError(f"not a process term: {t!r}")


def _sym_layers_ref(t, ctx):
    """The reference walk's ends and layers as payloads, as ``_layers_of``
    gives them; permutation layers stay as they are."""
    src, tgt, layers = _sym_elems_ref(t, ctx)
    return src.payload, tgt.payload, tuple(l if isinstance(l, Perm) else l.payload for l in layers)


def _erase_ref(t):
    if isinstance(t, Perm):
        return Ident(t.word)
    if isinstance(t, Comp):
        return Comp(_erase_ref(t.after), _erase_ref(t.before))
    if isinstance(t, Oper):
        return Oper(t.op, tuple(_erase_ref(a) for a in t.args))
    return t


def _translate_ref(arrow, t):
    if isinstance(t, Gen):
        return t
    if isinstance(t, Ident):
        return Ident(translate(arrow, t.obj))
    if isinstance(t, Comp):
        return Comp(_translate_ref(arrow, t.after), _translate_ref(arrow, t.before))
    if isinstance(t, Oper):
        return Oper(t.op, tuple(_translate_ref(arrow, a) for a in t.args))
    raise IllTypedTermError(f"not a process term: {t!r}")


def _signed(text):
    return signed_word([(p, 1) for p in text])


_WALK_NETS = [
    PRENET,
    prenet("ab", {"t": ("ab", "ba"), "u": ("a", "a")}),
    QNet(Theory.GRP, ("a", "b"), {"t": (_signed("a"), _signed("b")),
                                  "u": (_signed("ab"), _signed("ba"))}),
    petri("ab", {"t": ({"a": 1}, {"b": 1})}),
]


def test_permutation_beside_cancelling_boundary_is_refused():
    # a^-1 b^-1 a^-1 beside a reduces to a^-1 b^-1, which the inverted
    # braiding's positions no longer describe.
    term = Oper("combine", (Oper("invert", (braiding(_signed("ab"), _signed("a")),)),
                            Gen("t")))
    with pytest.raises(UnsupportedOperationError, match="cancelling boundary"):
        symmetry.sym_layered(term, _WALK_NETS[2])


_SWAP_NET = prenet("abc", {"t": ("c", "a")})


def _beside(*args):
    return Oper("combine", tuple(args))


@pytest.mark.parametrize("term,start,layers,tgt,slid", [
    # σ_{a,b} ⊗ t against (id_ba ⊗ t) ∘ (σ ⊗ id_c), and, slid past the
    # firing, (σ ⊗ id_a) ∘ (id_ab ⊗ t).
    (_beside(braiding(word("a"), word("b")), Gen("t")), "abc",
     [((1, 0, 2), "abc"), "id.b id.a t"], "baa",
     [Comp(_beside(Ident(word("ba")), Gen("t")),
           _beside(braiding(word("a"), word("b")), Ident(word("c")))),
      Comp(_beside(braiding(word("a"), word("b")), Ident(word("a"))),
           _beside(Ident(word("ab")), Gen("t")))]),
    # t ⊗ σ_{a,b} against (id_a ⊗ σ) ∘ (t ⊗ id_ab), and, slid past the
    # firing, (t ⊗ id_ba) ∘ (id_c ⊗ σ).
    (_beside(Gen("t"), braiding(word("a"), word("b"))), "cab",
     ["t id.a id.b", ((0, 2, 1), "aab")], "aba",
     [Comp(_beside(Ident(word("a")), braiding(word("a"), word("b"))),
           _beside(Gen("t"), Ident(word("ab")))),
      Comp(_beside(Gen("t"), Ident(word("ba"))),
           _beside(Ident(word("c")), braiding(word("a"), word("b"))))]),
])
def test_a_permutation_beside_a_firing_stacks_padded_layers(term, start, layers, tgt, slid):
    form = symmetry.sym_layered(term, _SWAP_NET)
    want = tuple(word(l.split()) if isinstance(l, str) else Perm(word(l[1]), l[0])
                 for l in layers)
    assert form == freecat.LayeredForm(word(start), want)
    ctx = freecat._context(_SWAP_NET)
    assert freecat._layers_of(term, ctx, True)[:2] == (word(start).payload, word(tgt).payload)
    identical, moved = slid
    assert sym_equal(term, identical, _SWAP_NET).reason == "identical layered forms"
    for other in slid:
        assert sym_equal(term, other, _SWAP_NET).is_equal
        assert sym_equal(other, term, _SWAP_NET).is_equal
    assert sym_equal(term, moved, _SWAP_NET).reason == "rewrite path found"


def _sym_terms(theory):
    make = word if theory is not Theory.GRP else _signed
    braids = st.sampled_from([("a", "b"), ("ab", "a"), ("b", "")]).map(
        lambda xy: braiding(make(xy[0]), make(xy[1])))
    leaves = st.one_of(
        st.sampled_from(["t", "u", "x"]).map(Gen),
        st.sampled_from(["a", "b", "ab", "ba", "z"]).map(lambda w: Ident(make(w))),
        braids,
        st.sampled_from([("ab", (0, 1)), ("ab", (0, 0)), ("az", (1, 0)), ("aa", (1, 0))]).map(
            lambda wm: Perm(make(wm[0]), wm[1])),
        st.sampled_from([("ab", "a"), ("a", "ba")]).map(
            lambda xy: Oper("invert", (braiding(make(xy[0]), make(xy[1])),))),
        st.just(Ident(word("a") if theory is Theory.GRP else _signed("a"))))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: Comp(*ab)),
        st.tuples(st.sampled_from(["combine", "invert", "swap"]),
                  st.lists(sub, max_size=3)).map(lambda oa: Oper(oa[0], tuple(oa[1]))),
        # A permutation beside another argument, on either side: padded layers.
        st.tuples(braids, sub, st.booleans()).map(
            lambda pab: Oper("combine", pab[:2] if pab[2] else (pab[1], pab[0]))),
        st.just("not a term")), max_leaves=8)


# t: a -> b and u: b -> c, as a word net and as its free-group image.
_CHAIN = prenet("abc", {"t": ("a", "b"), "u": ("b", "c")})
_GRP_CHAIN = apply_net_functor(TheoryArrow.FREE_GROUP, _CHAIN)


def test_a_combination_holding_a_permutation_fires_its_arguments_in_turn():
    # Each argument fires beside the targets before it and the sources after
    # it, in argument order, whichever argument holds the permutation.
    swap = braiding(word("a"), word("b"))
    form = symmetry.sym_layered(_beside(Gen("t"), Gen("u"), swap), _CHAIN)
    assert form == freecat.LayeredForm(word("abab"), (
        word(["t", "id.b", "id.a", "id.b"]), word(["id.b", "u", "id.a", "id.b"]),
        Perm(word("bcab"), (0, 1, 3, 2))))
    form = symmetry.sym_layered(_beside(swap, Gen("t"), Gen("u")), _CHAIN)
    assert form == freecat.LayeredForm(word("abab"), (
        Perm(word("abab"), (1, 0, 2, 3)), word(["id.b", "id.a", "t", "id.b"]),
        word(["id.b", "id.a", "id.b", "u"])))


def test_permutation_padding_reduces_both_sides_alike():
    # c.c^-1 cancels whether it stands before or after the permutation.
    swap = braiding(signed("a"), signed("b"))
    c, c_inv = Ident(signed("c")), Ident(signed("C"))
    want = freecat.LayeredForm(signed("ab"), (Perm(signed("ab"), (1, 0)),))
    assert symmetry.sym_layered(_beside(swap, c, c_inv), _GRP_CHAIN) == want
    assert symmetry.sym_layered(_beside(c, c_inv, swap), _GRP_CHAIN) == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_WALK_NETS).flatmap(
    lambda net: st.tuples(st.just(net), _sym_terms(net.theory))))
# The two layouts pinned above: a permutation after two arguments without one,
# and a GRP permutation before two identities that cancel each other.
@example((_CHAIN, _beside(Gen("t"), Gen("u"), braiding(word("a"), word("b")))))
@example((_GRP_CHAIN, _beside(braiding(signed("a"), signed("b")), Ident(signed("c")),
                              Ident(signed("C")))))
# The second argument cannot be padded beside the first (a cancelling
# boundary), and the third is ill-typed: walking every argument first
# reports the ill-typed one.
@example((_WALK_NETS[2], Oper("combine", (
    Gen("u"), Oper("invert", (braiding(_signed("ab"), _signed("a")),)), Ident(word("a"))))))
def test_symmetric_walks_match_recursive_reference(case):
    net, term = case
    ctx = freecat._context(net)
    assert outcome(freecat._layers_of, term, ctx, True) == outcome(_sym_layers_ref, term, ctx)
    assert outcome(erase_symmetries, term) == outcome(_erase_ref, term)
    arrow = TheoryArrow.GROUP_SIGNED if net.theory is Theory.GRP else TheoryArrow.ABELIANIZE
    erased = erase_symmetries(term)
    assert outcome(translate_term, arrow, erased) == outcome(_translate_ref, arrow, erased)


def test_grp_permutations_of_the_wrong_theory_or_a_cancelling_target_are_refused():
    net = GROUP_NETS[0]
    # a.(b.a^-1) is reduced, but the swapped word b.a^-1.a cancels.
    with pytest.raises(UnsupportedOperationError, match="target would cancel"):
        braiding(signed("a"), signed("bA"))
    cancelling = Perm(signed("abA"), (2, 0, 1))
    with pytest.raises(UnsupportedOperationError, match="target would cancel"):
        sym_equal(cancelling, Ident(signed("abA")), net)
    wrong = Perm(word("ab"), (1, 0))
    with pytest.raises(IllTypedTermError, match="permutation word has the wrong theory"):
        sym_equal(Ident(signed("ab")), wrong, net)
    swap = braiding(signed("a"), signed("b"))
    assert sym_equal(Comp(braiding(signed("b"), signed("a")), swap),
                     Ident(signed("ab")), net).is_equal
