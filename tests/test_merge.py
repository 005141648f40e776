"""Differential tests for the one residual rule of commutative layers.

A firing of ``g`` from a marking ``m`` of a commutative theory leaves a held
frame ``w`` with ``w . src(g) = m``; ``ops.residuals`` gives every such ``w``
and is the only code that computes one. Its callers are checked against
test-local copies of the code they replaced, which divided markings
separately: the count and set arms of ``freecat._merge_candidates``, the
stepping of ``freecat._step_layers`` (with its word arm, which now holds the
rest of a word at once), the SEMILAT steps of ``freecat.reachable`` and
``suites._frame_over``. Ordered results must be equal, and so must the type
and message of anything raised. The inputs are adjacent layers of every
commutative zoo net and of Hypothesis draws. ``residuals`` itself is checked
against brute force.
"""

import itertools
import pathlib

from hypothesis import given, settings, strategies as st

from qnets import freecat, jsonio, suites
from qnets.freecat import ID_PREFIX, Gen, Ident, Oper
from qnets.theory import (
    FreeElem,
    Theory,
    combine,
    multiset,
    occurrences,
    unit,
)

from layer_refs import frame_ref, gens_part_ref, ids_marking_ref, outcome
from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    INTEGER_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    elementary,
    integer_net,
    petri,
    prenet,
)


# ---------------------------------------------------------------------------
# Reference: each caller dividing markings on its own


def _merge_candidates_ref(l1, l2, ctx):
    th = ctx.net.theory
    ops = th.ops
    g1 = gens_part_ref(th, l1)
    g2 = gens_part_ref(th, l2)
    if not ops.idempotent:
        frame = occurrences(ids_marking_ref(th, l1))
        for p, c in occurrences(freecat._layer_src(g2, ctx)).items():
            frame[p] = frame.get(p, 0) - c
        if not ops.group and any(c < 0 for c in frame.values()):
            return []
        merged = combine(th, combine(th, g1, g2),
                         frame_ref(th, multiset(th, frame)))
        return [merged]
    ids1 = set(ids_marking_ref(th, l1).payload)
    ids2 = set(ids_marking_ref(th, l2).payload)
    src_g2 = set(freecat._layer_src(g2, ctx).payload)
    tgt_g1 = set(freecat._layer_tgt(g1, ctx).payload)
    out = []
    shared = sorted(ids1 & ids2)
    for bits in itertools.product((False, True), repeat=len(shared)):
        w = {p for p, keep in zip(shared, bits) if keep}
        if (w | src_g2) == ids1 and (w | tgt_g1) == ids2:
            frame = FreeElem(th, tuple(sorted(w)))
            out.append(combine(th, combine(th, g1, g2), frame_ref(th, frame)))
    return sorted(set(out), key=lambda e: e.payload)


def _step_layers_ref(ctx, marking, max_width):
    th = ctx.net.theory
    ops = th.ops
    out = set()
    if ops.commutative and not ops.idempotent:
        packed = freecat._Packed(ctx.net, sum(c for _, c in marking.payload), max_width)
        for fired, room, _ in freecat._firings(packed, packed.pack(marking), max_width):
            gens = multiset(th, {packed.names[i]: k for i, k in fired})
            frame = multiset(th, dict(packed.payload(room)))
            out.add(combine(th, gens, frame_ref(th, frame)))
    elif ops.idempotent:
        names = sorted(ctx.net.transitions)
        marking_set = set(marking.payload)
        for r in range(1, min(max_width, len(names)) + 1):
            for group in itertools.combinations(names, r):
                fired_src = set()
                for nm in group:
                    fired_src |= set(ctx.net.transitions[nm][0].payload)
                if not fired_src <= marking_set:
                    continue
                base = marking_set - fired_src
                extras = sorted(fired_src)
                for bits in itertools.product((False, True), repeat=len(extras)):
                    keep = {p for p, b in zip(extras, bits) if b}
                    frame = FreeElem(th, tuple(sorted(base | keep)))
                    gens = FreeElem(th, tuple(sorted(group)))
                    out.add(combine(th, gens, frame_ref(th, frame)))
    else:
        letters = marking.payload
        stack = [(0, max_width, ())]
        while stack:
            pos, width_left, acc = stack.pop()
            if pos == len(letters) and not all(freecat._is_id_sym(x) for x in acc):
                out.add(FreeElem(th, acc))
            if width_left != 0:
                for name in sorted(ctx.net.transitions):
                    src = ctx.net.transitions[name][0].payload
                    if letters[pos:pos + len(src)] == src:
                        stack.append((pos + len(src), width_left - 1, acc + (name,)))
            if pos < len(letters):
                stack.append((pos + 1, width_left, acc + (ID_PREFIX + letters[pos],)))
    return sorted(out, key=lambda e: e.payload)


def _reach_edges_ref(net, m):
    """The SEMILAT edges out of ``m``, sorted as ``reachable`` sorts them."""
    edges = set()
    marking_set = set(m.payload)
    for name in sorted(net.transitions):
        src, tgt = (arc.payload for arc in net.transitions[name])
        if not set(src) <= marking_set:
            continue
        base = marking_set - set(src)
        for bits in itertools.product((False, True), repeat=len(src)):
            keep = tuple(sorted(base | {p for p, b in zip(src, bits) if b}))
            label = jsonio.dumps({"fire": name, "keep": list(keep)})
            edges.add((m.payload, label, tuple(sorted(set(keep) | set(tgt)))))
    return [(FreeElem(m.theory, a), label, FreeElem(m.theory, b))
            for a, label, b in sorted(edges)]


def _frame_over_ref(theory, marking, consumed):
    if theory is Theory.SEMILAT:
        if not set(consumed.payload) <= set(marking.payload):
            return None
        return FreeElem(theory, tuple(sorted(set(marking.payload) - set(consumed.payload))))
    counts = dict(occurrences(marking))
    for p, c in occurrences(consumed).items():
        counts[p] = counts.get(p, 0) - c
    if theory is Theory.CMON and any(c < 0 for c in counts.values()):
        return None
    return multiset(theory, counts)


def _check_merge(l1, l2, ctx):
    got = outcome(freecat._merge_candidates, l1, l2, ctx)
    assert got == outcome(_merge_candidates_ref, l1, l2, ctx)
    return got


def _check_step(ctx, marking, max_width):
    got = outcome(freecat._step_layers, ctx, marking, max_width)
    assert got == outcome(_step_layers_ref, ctx, marking, max_width)
    return got


# ---------------------------------------------------------------------------
# Zoo layers

COMMUTATIVE_NETS = [net for net in (TOKEN_GAME_NETS + INTEGER_NETS + ELEMENTARY_NETS
                                    + EQUALITY_NETS) if net.theory.ops.commutative]


def _starts(net):
    """Arc markings, the all-places marking and, for counts, its double."""
    th = net.theory
    starts = {elem for arcs in net.transitions.values() for elem in arcs}
    every = combine(th, *(unit(th, p) for p in net.places))
    starts |= {every, combine(th, every, every)}
    return sorted(starts, key=lambda e: e.payload)


def _zoo_pairs(net):
    """Adjacent layer pairs: for CMON and SEMILAT each step layer of a start
    marking with each step layer of its target; for ABGRP each layer of a
    combination of up to two generators, inverses and held places with a
    generator combination framed to its target; and every split's halves."""
    ctx = freecat._context(net)
    th = net.theory
    names = sorted(net.transitions)
    pairs = []
    if th.ops.group:
        gens = [Gen(t) for t in names] + [Oper("invert", (Gen(t),)) for t in names]
        leaves = gens + [Ident(unit(th, p)) for p in net.places]
        terms = [args[0] if len(args) == 1 else Oper("combine", args)
                 for r in (1, 2) for args in itertools.product(leaves, repeat=r)]
        firsts = {FreeElem(th, l) for term in terms for l in freecat._layers_of(term, ctx)[2]}
        seconds = [args[0] if len(args) == 1 else Oper("combine", args)
                   for r in (1, 2) for args in itertools.product(gens, repeat=r)]
        for l1 in sorted(firsts, key=lambda e: e.payload):
            tgt = freecat._layer_tgt(l1, ctx)
            for g in seconds:
                frame = occurrences(tgt)
                for p, c in occurrences(freecat._endpoints(g, ctx)[0]).items():
                    frame[p] = frame.get(p, 0) - c
                term = Oper("combine", (g, Ident(multiset(th, frame))))
                pairs += [(l1, FreeElem(th, l2)) for l2 in freecat._layers_of(term, ctx)[2]]
    else:
        for start in _starts(net):
            for l1 in _step_layers_ref(ctx, start, 2):
                tgt = freecat._layer_tgt(l1, ctx)
                pairs += [(l1, l2) for l2 in _step_layers_ref(ctx, tgt, 2)]
    for layer in {l for pair in pairs for l in pair}:
        pairs += freecat._split_candidates(layer, ctx)
    return ctx, pairs


def test_merge_matches_reference_on_zoo_pairs():
    pairs = merges = 0
    by_theory = set()
    for net in COMMUTATIVE_NETS:
        ctx, zoo_pairs = _zoo_pairs(net)
        for l1, l2 in zoo_pairs:
            pairs += 1
            merges += len(_check_merge(l1, l2, ctx)[1])
        by_theory.add(net.theory)
    assert by_theory == {Theory.CMON, Theory.ABGRP, Theory.SEMILAT}
    assert pairs > 2000 and merges > 2000


def test_step_layers_match_reference_on_zoo_markings():
    layers = 0
    for net in COMMUTATIVE_NETS + PRE_NETS + SYMMETRY_NETS:
        if net.theory.ops.group:
            continue
        ctx = freecat._context(net)
        for start in _starts(net):
            for width in (1, 2, 3):
                layers += len(_check_step(ctx, start, width)[1])
    assert layers > 500


def _subsets(places):
    return [tuple(c) for r in range(len(places) + 1)
            for c in itertools.combinations(places, r)]


def test_semilat_reach_edges_match_reference():
    edges = 0
    for net in ELEMENTARY_NETS + [EQUALITY_NETS[3]]:
        for payload in _subsets(net.places):
            m = FreeElem(Theory.SEMILAT, payload)
            got = list(freecat.reachable(net, m, 1).edges)
            assert got == _reach_edges_ref(net, m)
            edges += len(got)
    assert edges > 40


def test_frame_over_matches_reference_on_zoo():
    checked = framed = 0
    for net in COMMUTATIVE_NETS:
        th = net.theory
        for marking in _starts(net):
            for consumed in _starts(net):
                got = suites._frame_over(marking, consumed)
                assert got == _frame_over_ref(th, marking, consumed)
                checked += 1
                framed += got is not None
    assert checked > 300 and 0 < framed < checked


# ---------------------------------------------------------------------------
# Drawn layers

DRAW_NETS = [
    TOKEN_GAME_NETS[5], TOKEN_GAME_NETS[9], EQUALITY_NETS[1],
    petri("ab", {"t": ({}, {"a": 1}), "u": ({"a": 2}, {"b": 1})}),
    INTEGER_NETS[4], INTEGER_NETS[7], INTEGER_NETS[9],
    integer_net("ab", {"t": ({}, {"a": -1}), "u": ({"a": 1, "b": -2}, {"b": 1})}),
    ELEMENTARY_NETS[2], ELEMENTARY_NETS[4], EQUALITY_NETS[3],
    elementary("abc", {"t": ("", "a"), "u": ("abc", "b"), "v": ("b", "")}),
]
_COEFFICIENTS = {
    Theory.CMON: st.integers(1, 3),
    Theory.ABGRP: st.integers(-3, 3).filter(bool),
    Theory.SEMILAT: st.just(1),
}


@st.composite
def _adjacent_pair(draw):
    """A net, a drawn layer ``l1`` and a layer ``l2`` starting where ``l1``
    ends: drawn generators beside the held rest of that marking, built by
    count arithmetic or set difference here, or only the held marking when
    the drawn generators do not fit it. Letters repeat, which sums (CMON,
    ABGRP), cancels (ABGRP) or merges (SEMILAT)."""
    net = draw(st.sampled_from(DRAW_NETS))
    ctx = freecat._context(net)
    th = net.theory
    ops = th.ops
    held = [ID_PREFIX + p for p in net.places]
    names = sorted(net.transitions)
    letters = draw(st.lists(st.tuples(st.sampled_from(names + held), _COEFFICIENTS[th]),
                            max_size=4))
    l1 = FreeElem(th, ops.norm(letters))
    tgt = freecat._layer_tgt(l1, ctx)
    gens = FreeElem(th, ops.norm(draw(st.lists(
        st.tuples(st.sampled_from(names), _COEFFICIENTS[th]), max_size=3))))
    src = freecat._layer_src(gens, ctx)
    if ops.idempotent:
        fits = set(src.payload) <= set(tgt.payload)
        keep = [p for p in src.payload if draw(st.booleans())]
        rest = (set(tgt.payload) - set(src.payload)) | set(keep)
        frame = FreeElem(th, tuple(sorted(rest)))
    else:
        counts = occurrences(tgt)
        for p, c in occurrences(src).items():
            counts[p] = counts.get(p, 0) - c
        fits = ops.group or all(c >= 0 for c in counts.values())
        frame = multiset(th, counts) if fits else tgt
    if not fits:
        gens, frame = FreeElem(th, ()), tgt
    l2 = combine(th, gens, frame_ref(th, frame))
    return ctx, l1, l2


@settings(max_examples=600, deadline=None)
@given(_adjacent_pair())
def test_merge_matches_reference_on_drawn_pairs(case):
    ctx, l1, l2 = case
    assert freecat._layer_tgt(l1, ctx) == freecat._layer_src(l2, ctx)
    _check_merge(l1, l2, ctx)
    for a, b in freecat._split_candidates(l1, ctx):
        _check_merge(a, b, ctx)


@settings(max_examples=300, deadline=None)
@given(_adjacent_pair(), st.sampled_from((1, 2, 3)))
def test_steps_and_frames_match_reference_on_drawn_markings(case, width):
    ctx, l1, _ = case
    net = ctx.net
    th = net.theory
    tgt = freecat._layer_tgt(l1, ctx)
    if not th.ops.group:
        _check_step(ctx, tgt, width)
    if th is Theory.SEMILAT:
        assert list(freecat.reachable(net, tgt, 1).edges) == _reach_edges_ref(net, tgt)
    for src, _ in net.transitions.values():
        assert suites._frame_over(tgt, src) == _frame_over_ref(th, tgt, src)


# ---------------------------------------------------------------------------
# Word steps: the rest of a word is held at once when no width is left

_WORD_NETS = [
    prenet("a", {"t": ("a", "a")}),
    prenet("ab", {"t": ("", "a"), "u": ("ab", "b")}),
    prenet("ab", {"t": ("a", ""), "u": ("", ""), "v": ("ba", "ab")}),
    PRE_NETS[5], PRE_NETS[8], SYMMETRY_NETS[2],
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_WORD_NETS), st.data(), st.sampled_from((1, 2, 3)))
def test_word_steps_match_reference_on_drawn_words(net, data, width):
    ctx = freecat._context(net)
    letters = data.draw(st.lists(st.sampled_from(net.places), max_size=5))
    _check_step(ctx, FreeElem(Theory.MON, tuple(letters)), width)


# ---------------------------------------------------------------------------
# The residuals themselves

_NAMES = ("a", "b", "c")


@st.composite
def _payload(draw, th):
    letters = draw(st.lists(st.tuples(st.sampled_from(_NAMES), _COEFFICIENTS[th]),
                            max_size=4))
    return th.ops.norm(letters)


def _sub_elements(th, whole, part):
    """Every element that could be a residual of ``whole`` by ``part``: the
    subsets of ``whole``, the counts up to ``whole``'s, and for ABGRP every
    count vector within the range that whole and part span."""
    if th.ops.idempotent:
        return _subsets(whole)
    if not th.ops.group:
        ranges = [[(p, k) for k in range(c + 1)] for p, c in whole]
    else:
        span = dict.fromkeys(_NAMES, 0)
        for p, c in whole + part:
            span[p] += abs(c)
        ranges = [[(p, k) for k in range(-b, b + 1)] for p, b in span.items()]
    return [th.ops.norm(pick) for pick in itertools.product(*ranges)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((Theory.CMON, Theory.ABGRP, Theory.SEMILAT)), st.data())
def test_residuals_are_exactly_the_brute_force_solutions(th, data):
    ops = th.ops
    part = data.draw(_payload(th))
    # Half the wholes are built to contain part, so that residuals exist.
    whole = data.draw(_payload(th))
    if data.draw(st.booleans()):
        whole = ops.canon(whole + part)
    got = list(ops.residuals(whole, part))
    assert all(ops.canon(r + part) == whole for r in got)
    assert len(set(got)) == len(got)
    assert set(got) == {r for r in _sub_elements(th, whole, part)
                        if ops.canon(r + part) == whole}
    if got:
        assert got[0] == min(got, key=lambda r: sum(abs(c) for _, c in ops.letters(r)))
    if th is Theory.ABGRP:
        assert len(got) == 1


def test_oracles_do_not_use_the_residuals():
    here = pathlib.Path(__file__).parent
    for oracle in ("oracle_rewrite.py", "oracle_tokengame.py"):
        assert "residuals" not in (here / oracle).read_text(encoding="utf-8")


def test_residuals_of_a_set_keep_subsets_in_product_order():
    ops = Theory.SEMILAT.ops
    assert list(ops.residuals(("a", "b", "c"), ("a", "c"))) == [
        ("b",), ("b", "c"), ("a", "b"), ("a", "b", "c")]
    assert list(ops.residuals(("a",), ("b",))) == []
    assert list(Theory.CMON.ops.residuals((("a", 1),), (("a", 2),))) == []
    assert list(Theory.ABGRP.ops.residuals((("a", 1),), (("a", 2),))) == [(("a", -1),)]
