"""Differential tests for the letterwise layer split.

``freecat._split_candidates`` reads a layer letter by letter, one rule for
every theory. It is checked against a test-local copy of the code it
replaced, which split counts, sets and words in three separate arms: the
ordered candidate lists must be equal, and so must the type and message of
anything raised. The layers come from every zoo net, and from Hypothesis over
nets of all five theories. A layer naming a generator that is not a transition
of its net is checked on its own, as its message may name fewer generators.
"""

import itertools

from hypothesis import given, settings, strategies as st

from qnets import freecat
from qnets.freecat import ID_PREFIX, Comp, Gen, Ident, Oper, mor_equal
from qnets.net import QNet, apply_net_functor
from qnets.theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    combine,
    multiset,
    signed_word,
    unit,
)

from layer_refs import (
    frame_ref,
    gens_part_ref,
    held_ref,
    ids_marking_ref,
    layer_gens,
    outcome,
)
from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    GROUP_NETS,
    INTEGER_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    signed,
)


# ---------------------------------------------------------------------------
# Reference: the split with one arm per family


def _split_candidates_ref(layer, ctx):
    th = ctx.net.theory
    ops = th.ops
    if not ops.commutative:
        return _split_word_ref(layer, ctx)
    gens = gens_part_ref(th, layer)
    held = ids_marking_ref(th, layer)
    parts = []
    if ops.idempotent:
        for assign in itertools.product(("L", "R", "B"), repeat=len(gens.payload)):
            left = tuple(g for g, a in zip(gens.payload, assign) if a in ("L", "B"))
            right = tuple(g for g, a in zip(gens.payload, assign) if a in ("R", "B"))
            if left and right:
                parts.append((FreeElem(th, left), FreeElem(th, right)))
    else:
        choices = []
        for name, count in gens.payload:
            step = 1 if count > 0 else -1
            choices.append([(name, step * k) for k in range(abs(count) + 1)])
        for pick in itertools.product(*choices):
            part1 = {n: c for n, c in pick if c != 0}
            part2 = {n: c - part1.get(n, 0) for n, c in gens.payload
                     if c - part1.get(n, 0) != 0}
            if part1 and part2:
                parts.append((multiset(th, part1), multiset(th, part2)))
    ident = frame_ref
    out = [(combine(th, g1, ident(th, combine(th, held, freecat._layer_src(g2, ctx)))),
            combine(th, g2, ident(th, combine(th, held, freecat._layer_tgt(g1, ctx)))))
           for g1, g2 in parts]
    if ops.idempotent:
        out = sorted(set(out), key=lambda pair: (pair[0].payload, pair[1].payload))
    return out


def _split_word_ref(layer, ctx):
    th = ctx.net.theory
    ids = [freecat._is_id_sym(n) for n in th.ops.names(layer.payload)]
    gen_positions = [k for k, held in enumerate(ids) if not held]
    out = []
    for assign in itertools.product((True, False), repeat=len(gen_positions)):
        early = {pos for pos, fl in zip(gen_positions, assign) if fl}
        if not early or len(early) == len(gen_positions):
            continue
        w1 = []
        w2 = []
        for k, letter in enumerate(layer.payload):
            if ids[k]:
                w1.append(letter)
                w2.append(letter)
            elif k in early:
                w1.append(letter)
                w2.extend(held_ref(letter, 1, ctx))
            else:
                w1.extend(held_ref(letter, 0, ctx))
                w2.append(letter)
        pair = FreeElem(th, th.ops.canon(tuple(w1))), FreeElem(th, th.ops.canon(tuple(w2)))
        # A GRP half whose letters cancel to held places only fires nothing.
        if not (th.ops.group and any(freecat._pure_id(half) for half in pair)):
            out.append(pair)
    return out


def _check(layer, ctx):
    got = outcome(freecat._split_candidates, layer, ctx)
    assert got == outcome(_split_candidates_ref, layer, ctx)
    return got


# ---------------------------------------------------------------------------
# Zoo layers

# The zoo has no GRP net; the free-group images of the word nets stand in.
GRP_NETS = [apply_net_functor(TheoryArrow.FREE_GROUP, net) for net in PRE_NETS]
ZOO = (TOKEN_GAME_NETS + PRE_NETS + INTEGER_NETS + ELEMENTARY_NETS + EQUALITY_NETS
       + SYMMETRY_NETS + GRP_NETS)


def _zoo_layers(net):
    """Every one-layer combination of up to three generators, inverted
    generators and held places, and the halves of each one's splits."""
    ctx = freecat._context(net)
    th = net.theory
    names = sorted(net.transitions)
    leaves = [Gen(t) for t in names] + [Ident(unit(th, p)) for p in net.places]
    if th.ops.group:
        leaves += [Oper("invert", (Gen(t),)) for t in names]
    layers = set()
    for r in (1, 2, 3):
        for args in itertools.product(leaves, repeat=r):
            term = args[0] if r == 1 else Oper("combine", args)
            layers.update(FreeElem(th, l) for l in freecat._layers_of(term, ctx)[2])
    for layer in list(layers):
        for halves in _split_candidates_ref(layer, ctx):
            layers.update(halves)
    return ctx, sorted(layers, key=lambda e: e.payload)


def test_split_matches_reference_on_zoo_layers():
    layers = splits = 0
    by_theory = set()
    for net in ZOO:
        ctx, zoo_layers = _zoo_layers(net)
        for layer in zoo_layers:
            layers += 1
            splits += len(_check(layer, ctx)[1])
        by_theory.add(net.theory)
    assert by_theory == set(Theory)
    assert layers > 2000 and splits > 5000


# ---------------------------------------------------------------------------
# Drawn layers

_GRP_NET = QNet(Theory.GRP, ("a", "b"), {
    "t": (signed_word([("a", 1)]), signed_word([("b", 1), ("a", -1)])),
    "u": (signed_word([("a", 1), ("b", 1)]), signed_word([("b", -1)])),
    "v": (signed_word([]), signed_word([("a", 1)])),
})
DRAW_NETS = [
    TOKEN_GAME_NETS[9], EQUALITY_NETS[1],
    PRE_NETS[8], PRE_NETS[9], SYMMETRY_NETS[2],
    _GRP_NET, GRP_NETS[9],
    INTEGER_NETS[4], INTEGER_NETS[7], INTEGER_NETS[9],
    ELEMENTARY_NETS[2], ELEMENTARY_NETS[4],
]
_COEFFICIENTS = {
    Theory.CMON: st.integers(1, 3),
    Theory.ABGRP: st.integers(-3, 3).filter(bool),
    Theory.GRP: st.sampled_from((1, -1)),
    Theory.MON: st.just(1),
    Theory.SEMILAT: st.just(1),
}


@st.composite
def _net_and_layer(draw, strangers=()):
    """A layer over a net's letters and ``strangers``. Letters are drawn with
    repeats, which sum (ABGRP, CMON), cancel (ABGRP, GRP) or merge
    (SEMILAT), and some layers hold places only."""
    net = draw(st.sampled_from(DRAW_NETS))
    th = net.theory
    held = [ID_PREFIX + p for p in net.places]
    names = held if draw(st.booleans()) else sorted(net.transitions) + held
    names = names + list(strangers)
    letters = draw(st.lists(st.tuples(st.sampled_from(names), _COEFFICIENTS[th]),
                            max_size=5))
    return net, FreeElem(th, th.ops.norm(letters))


@settings(max_examples=600, deadline=None)
@given(_net_and_layer())
def test_split_matches_reference_on_drawn_layers(case):
    net, layer = case
    _check(layer, freecat._context(net))


@settings(max_examples=300, deadline=None)
@given(_net_and_layer(strangers=("y", "z")))
def test_split_of_unknown_generators_raises_as_reference(case):
    """Names that are not transitions of the net raise where the reference
    raised, with the same type. Only a count or set message may differ: it
    names the first unknown generator whose ends a split needs, where the
    reference named every unknown generator of a whole half."""
    net, layer = case
    ctx = freecat._context(net)
    got = outcome(freecat._split_candidates, layer, ctx)
    want = outcome(_split_candidates_ref, layer, ctx)
    if net.theory.ops.commutative:
        got, want = got[:2], want[:2]
    assert got == want


# ---------------------------------------------------------------------------
# The generator cap: only SEMILAT searches are capped


def _letters_total(th, layer):
    """A layer's generator letters, each counted by its own coefficient."""
    return sum(abs(c) for name, c in th.ops.letters(layer.payload)
               if not name.startswith(ID_PREFIX))


def test_splits_outside_semilat_never_add_generators():
    """A split fires each letter in one half, so outside SEMILAT, where a
    letter may also fire in both, it keeps every firing and the search needs
    no cap to stay finite. On the CMON, MON and ABGRP zoo layers it keeps the
    layer generator total. A GRP split keeps or cancels letters, but that total
    is a signed count per name: a layer firing ``t`` beside ``t^-1`` counts 0,
    and its halves count 1 each, so a cap there did cut paths."""
    kept = regrouped = 0
    for net in ZOO:
        th = net.theory
        if th.ops.idempotent:
            continue
        ctx, zoo_layers = _zoo_layers(net)
        for layer in zoo_layers:
            for a, b in freecat._split_candidates(layer, ctx):
                if th is Theory.GRP:
                    assert (_letters_total(th, a) + _letters_total(th, b)
                            <= _letters_total(th, layer))
                    regrouped += (layer_gens(a) + layer_gens(b)
                                  != layer_gens(layer))
                else:
                    assert (layer_gens(a) + layer_gens(b)
                            == layer_gens(layer))
                    kept += 1
    assert kept > 2000 and regrouped > 0


def test_grp_split_never_leaves_an_identity_half():
    # On t: a -> 1, u: b -> a, the layer u^-1 t^-1 u read letterwise splits
    # into id.b^-1 t^-1 id.b and a half firing u^-1 and u, which cancel to
    # nothing; that split is dropped.
    net = GRP_NETS[8]
    ctx = freecat._context(net)
    t_inv, u_inv = Oper("invert", (Gen("t"),)), Oper("invert", (Gen("u"),))
    form = freecat.layered(Oper("combine", (u_inv, t_inv, Gen("u"))), net)
    moves = [ctx.form(form.start, ids) for ids in freecat._neighbors(ctx.number(form.layers), ctx)]
    assert moves
    assert not any(freecat._trivial(layer) for move in moves for layer in move.layers)


def test_uncapped_grp_search_finds_a_path_past_the_inputs_generator_count():
    # Both forms count 3 generators; the rewrite path passes a form of 5.
    net = GROUP_NETS[0]
    t, u = Gen("t"), Gen("u")
    t_inv, u_inv = Oper("invert", (t,)), Oper("invert", (u,))
    lhs = Comp(Oper("combine", (u_inv, Ident(signed("b")), t_inv)),
               Oper("combine", (t, u, t_inv)))
    rhs = Comp(Oper("combine", (u_inv, u_inv, u)),
               Oper("combine", (Ident(signed("a")), u, t_inv)))
    for x, y in ((lhs, rhs), (rhs, lhs)):
        verdict = mor_equal(x, y, net)
        assert verdict.reason == "rewrite path found"
        assert len(verdict.witness) == 6
