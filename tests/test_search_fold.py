"""Differential tests for the shared search engine, term walker and slide.

``mor_equal`` and ``sym_equal`` share one bidirectional search, the term
walker is iterative, and one ``_slide`` moves a layer across a permutation in
either direction. Each is checked against a test-local copy of the code it
replaced: the mirrored ``_slide_before_perm`` / ``_slide_after_perm``, the
search loop that ``sym_equal`` carried, and the recursive ``_endpoints`` and
``_layers_of``.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from qnets import QNet, freecat, jsonio, symmetry, theory
from qnets.freecat import Comp, Gen, Ident, IllTypedTermError, LayeredForm, Oper
from qnets.symmetry import Perm
from qnets.theory import (
    FreeElem,
    Theory,
    UnsupportedOperationError,
    combine,
    invert,
    signed_word,
    unit,
    word,
)

from layer_refs import form_occurrences, gens_sum, held_ref, outcome, zip_ref
from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    GROUP_NETS,
    INTEGER_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    cmon,
    group_net,
    petri,
    prenet,
    signed,
    words_up_to,
)
from test_context_cache import DECIDE, _pinned


# ---------------------------------------------------------------------------
# References: the code before the folds


def _is_perm(layer):
    return isinstance(layer, Perm)


def _reduced_ref(pairs):
    return all(not (pairs[i][0] == pairs[i + 1][0] and pairs[i][1] == -pairs[i + 1][1])
               for i in range(len(pairs) - 1))


def _slide_before_perm_ref(layer, perm, ctx):
    th = ctx.net.theory
    letters = layer.payload
    tgt_words = [held_ref(l, 1, ctx) for l in letters]
    src_words = [held_ref(l, 0, ctx) for l in letters]
    if any(len(w) == 0 for w in tgt_words + src_words):
        return []
    blocks = freecat._blocks([len(w) for w in tgt_words])
    mapping = perm.mapping
    images = []
    for offset, size in blocks:
        positions = [mapping[offset + k] for k in range(size)]
        if any(positions[k + 1] != positions[k] + 1 for k in range(size - 1)):
            return []
        images.append(positions[0])
    order = sorted(range(len(letters)), key=lambda j: images[j])
    new_letters = tuple(letters[j] for j in order)
    new_layer = FreeElem(th, new_letters) if th is Theory.MON else signed_word(new_letters)
    if len(new_layer.payload) != len(new_letters):
        return []
    src_blocks = freecat._blocks([len(w) for w in src_words])
    new_src_offsets = {}
    offset = 0
    for j in order:
        new_src_offsets[j] = offset
        offset += len(src_words[j])
    new_mapping = [None] * sum(len(w) for w in src_words)
    for j, (off, size) in enumerate(src_blocks):
        for k in range(size):
            new_mapping[off + k] = new_src_offsets[j] + k
    prev_word = freecat._layer_src(layer, ctx)
    if len(prev_word.payload) != len(new_mapping):
        return []
    new_perm = Perm(prev_word, tuple(new_mapping))
    if th is Theory.GRP and not _reduced_ref(
            freecat._apply_perm(prev_word.payload, new_perm.mapping)):
        return []
    return [(new_perm, new_layer)]


def _slide_after_perm_ref(perm, layer, ctx):
    th = ctx.net.theory
    letters = layer.payload
    src_words = [held_ref(l, 0, ctx) for l in letters]
    tgt_words = [held_ref(l, 1, ctx) for l in letters]
    if any(len(w) == 0 for w in src_words + tgt_words):
        return []
    blocks = freecat._blocks([len(w) for w in src_words])
    inverse = [None] * len(perm.mapping)
    for i, target in enumerate(perm.mapping):
        inverse[target] = i
    starts = []
    for offset, size in blocks:
        positions = [inverse[offset + k] for k in range(size)]
        if any(positions[k + 1] != positions[k] + 1 for k in range(size - 1)):
            return []
        starts.append(positions[0])
    order = sorted(range(len(letters)), key=lambda j: starts[j])
    new_letters = tuple(letters[j] for j in order)
    new_layer = FreeElem(th, new_letters) if th is Theory.MON else signed_word(new_letters)
    if len(new_layer.payload) != len(new_letters):
        return []
    tgt_blocks = freecat._blocks([len(w) for w in tgt_words])
    new_tgt_offsets = {}
    offset = 0
    for j in order:
        new_tgt_offsets[j] = offset
        offset += len(tgt_words[j])
    new_mapping = [None] * sum(len(w) for w in tgt_words)
    for j, (off, size) in enumerate(tgt_blocks):
        for k in range(size):
            new_mapping[new_tgt_offsets[j] + k] = off + k
    new_word = freecat._layer_tgt(new_layer, ctx)
    if len(new_word.payload) != len(new_mapping):
        return []
    new_perm = Perm(new_word, tuple(new_mapping))
    if th is Theory.GRP and not _reduced_ref(
            freecat._apply_perm(new_word.payload, new_perm.mapping)):
        return []
    return [(new_layer, new_perm)]


def _form_moves(neighbors, form, ctx, *cap):
    """The moves of ``form`` by ``neighbors``, which runs on layer ids."""
    return [ctx.form(form.start, ids) for ids in neighbors(ctx.number(form.layers), ctx, *cap)]


def _sym_neighbors_ref(form, ctx):
    layers = form.layers
    for i in range(len(layers) - 1):
        a, b = layers[i], layers[i + 1]
        if _is_perm(a) and _is_perm(b):
            composed = tuple(b.mapping[a.mapping[k]] for k in range(len(a.mapping)))
            merged = () if composed == tuple(range(len(composed))) \
                else (Perm(a.word, composed),)
            yield LayeredForm(form.start, layers[:i] + merged + layers[i + 2:])
        elif not _is_perm(a) and not _is_perm(b):
            for n in freecat._merge_candidates(a, b, ctx):
                mid = () if freecat._pure_id(n) else (n,)
                yield LayeredForm(form.start, layers[:i] + mid + layers[i + 2:])
        elif not _is_perm(a):
            for p, l in _slide_before_perm_ref(a, b, ctx):
                yield LayeredForm(form.start, layers[:i] + (p, l) + layers[i + 2:])
        else:
            for l, p in _slide_after_perm_ref(a, b, ctx):
                yield LayeredForm(form.start, layers[:i] + (l, p) + layers[i + 2:])
    for i, layer in enumerate(layers):
        if not _is_perm(layer):
            for x, y in freecat._split_candidates(layer, ctx):
                yield LayeredForm(form.start, layers[:i] + (x, y) + layers[i + 1:])


def _sym_equal_ref(t1, t2, net, budget=None, expanded=None):
    """``sym_equal`` with its own search loop; ``expanded`` collects the
    forms it expands."""
    if budget is None:
        budget = freecat.default_budget()
    ctx = freecat._context(net)
    (s1, ids1, tgt1), (s2, ids2, tgt2) = (freecat._layered_ctx(t, ctx, True) for t in (t1, t2))
    f1, f2 = ctx.form(s1, ids1), ctx.form(s2, ids2)
    if (s1, tgt1) != (s2, tgt2):
        return "distinct", "source/target pairs differ"
    if f1 == f2:
        return "equal", "identical layered forms"
    if form_occurrences(f1.layers) != form_occurrences(f2.layers):
        return "distinct", "generator occurrence counts differ"
    sides = ({f1: None}, {f2: None})
    queues = (deque([f1]), deque([f2]))
    expansions = 0
    while queues[0] or queues[1]:
        side = 0 if (queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1]))) else 1
        node = queues[side].popleft()
        if expanded is not None:
            expanded.append(node)
        expansions += 1
        if expansions > budget:
            return "unknown", f"budget of {budget} nodes exhausted"
        for nxt in _sym_neighbors_ref(node, ctx):
            if nxt in sides[side]:
                continue
            sides[side][nxt] = node
            if nxt in sides[1 - side]:
                return "equal", "rewrite path found"
            queues[side].append(nxt)
    return "unknown", "closures exhausted; symmetric move set is not known complete"


def _endpoints_ref(t, ctx):
    th = ctx.net.theory
    if isinstance(t, Gen):
        if t.name not in ctx.net.transitions:
            raise IllTypedTermError(f"unknown transition {t.name!r}")
        return ctx.net.transitions[t.name]
    if isinstance(t, Ident):
        if t.obj.theory is not th:
            raise IllTypedTermError(
                f"identity object has theory {t.obj.theory.value}, net is {th.value}")
        if t.obj.atoms() - set(ctx.net.places):
            raise IllTypedTermError("identity object mentions undeclared places")
        return t.obj, t.obj
    if isinstance(t, Comp):
        src_b, tgt_b = _endpoints_ref(t.before, ctx)
        src_a, tgt_a = _endpoints_ref(t.after, ctx)
        if tgt_b != src_a:
            raise IllTypedTermError(
                f"composite mismatch: before ends at {tgt_b.payload}, after starts at"
                f" {src_a.payload}")
        return src_b, tgt_a
    if isinstance(t, Oper):
        if t.op == "combine":
            if len(t.args) < 2:
                raise IllTypedTermError("combine needs at least two arguments")
            ends = [_endpoints_ref(a, ctx) for a in t.args]
            src, tgt = ends[0]
            for s, g in ends[1:]:
                src, tgt = combine(th, src, s), combine(th, tgt, g)
            return src, tgt
        if t.op == "invert":
            if th not in (Theory.ABGRP, Theory.GRP):
                raise IllTypedTermError(f"{th.value} morphisms have no inverses")
            if len(t.args) != 1:
                raise IllTypedTermError("invert takes exactly one argument")
            s, g = _endpoints_ref(t.args[0], ctx)
            return invert(s), invert(g)
        raise IllTypedTermError(f"unknown operation {t.op!r}")
    raise IllTypedTermError(f"not a process term: {t!r}")


def _layers_ref(t, ctx):
    th = ctx.net.theory
    if isinstance(t, Gen):
        src, tgt = _endpoints_ref(t, ctx)
        return src, tgt, (unit(th, t.name),)
    if isinstance(t, Ident):
        src, tgt = _endpoints_ref(t, ctx)
        return src, src, ()
    if isinstance(t, Comp):
        src_b, tgt_b, layers_b = _layers_ref(t.before, ctx)
        src_a, tgt_a, layers_a = _layers_ref(t.after, ctx)
        assert tgt_b == src_a
        return src_b, tgt_a, layers_b + layers_a
    if t.op == "invert":
        src, tgt, layers = _layers_ref(t.args[0], ctx)
        return invert(src), invert(tgt), tuple(invert(l) for l in layers)
    src, tgt, layers = _layers_ref(t.args[0], ctx)
    for arg in t.args[1:]:
        src_b, tgt_b, layers_b = _layers_ref(arg, ctx)
        layers = zip_ref(th, (src, layers), (src_b, layers_b))
        src, tgt = combine(th, src, src_b), combine(th, tgt, tgt_b)
    return src, tgt, layers


# ---------------------------------------------------------------------------
# Fixtures


def _criterion_11_pairs():
    """The braid-axiom and naturality instances of acceptance criterion 11."""
    for net in SYMMETRY_NETS:
        words = words_up_to(net.places, 4)
        for x in words:
            for y in words:
                if x.size() + y.size() <= 4:
                    yield net, Comp(symmetry.braiding(y, x), symmetry.braiding(x, y)), \
                        Ident(combine(Theory.MON, x, y))
            yield net, symmetry.braiding(x, word("")), Ident(x)
        for name, (src, tgt) in net.transitions.items():
            for u in words:
                if src.size() + u.size() > 4 or u.size() == 0:
                    continue
                yield (net,
                       Comp(symmetry.braiding(tgt, u), Oper("combine", (Gen(name), Ident(u)))),
                       Comp(Oper("combine", (Ident(u), Gen(name))), symmetry.braiding(src, u)))


def _unequal_sym_pairs():
    """Pairs the search cannot prove equal, with the budget to use: naturality
    squares followed by a permutation that fixes their target word, a swap of
    equal letters against the identity, and a loop against the identity."""
    net = PRE_NETS[3]  # t: a -> b, u: b -> c
    for u in map(word, ("b", "cb", "bcb")):
        lhs = Comp(symmetry.braiding(word("b"), u), Oper("combine", (Gen("t"), Ident(u))))
        rhs = Comp(Oper("combine", (Ident(u), Gen("t"))), symmetry.braiding(word("a"), u))
        end = symmetry.perm_tgt(symmetry.braiding(word("b"), u))
        for mapping in itertools.permutations(range(end.size())):
            fixed = freecat._apply_perm(end.payload, mapping) == end.payload
            if fixed and mapping != tuple(range(end.size())):
                for budget in (3, None):
                    yield net, lhs, Comp(Perm(end, mapping), rhs), budget
    yield net, symmetry.braiding(word("a"), word("a")), Ident(word("aa")), None
    loop = SYMMETRY_NETS[2]  # t: a -> bc, u: cb -> a
    yield loop, Comp(Gen("u"), Comp(symmetry.braiding(word("b"), word("c")), Gen("t"))), \
        Ident(word("a")), None


# ---------------------------------------------------------------------------
# One slide


def _slide_pairs(form):
    for a, b in zip(form.layers, form.layers[1:]):
        if _is_perm(a) != _is_perm(b):
            yield a, b


def _check_slide(a, b, ctx):
    before = _is_perm(b)
    layer, perm = (a, b) if before else (b, a)
    expected = outcome(_slide_before_perm_ref if before else _slide_after_perm_ref, a, b, ctx)
    if expected[:2] == ("raised", "IndexError"):
        # The reference read past a permutation shorter than the layer's
        # near end, which happens when that end cancels (GRP); no slide then.
        expected = ("ok", [])
    assert outcome(freecat._slide, layer, perm, ctx, before) == expected


def test_slide_and_neighbors_match_reference_on_criterion_11():
    """On the whole move closure of both sides of every instance (2,702 forms),
    ``_sym_neighbors`` and each of its slides agree with the reference."""
    pairs = forms = 0
    for net, lhs, rhs in _criterion_11_pairs():
        ctx = freecat._context(net)
        for term in (lhs, rhs):
            start = symmetry.sym_layered(term, net)
            seen, queue = {start}, deque([start])
            while queue:
                node = queue.popleft()
                forms += 1
                moves = _form_moves(symmetry._sym_neighbors, node, ctx)
                assert moves == list(_sym_neighbors_ref(node, ctx))
                for a, b in _slide_pairs(node):
                    pairs += 1
                    _check_slide(a, b, ctx)
                for nxt in moves:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    assert forms > 2000 and pairs > 200


def test_slide_refuses_a_letter_order_that_cancels():
    # On GRP t: c -> b, a beside braid(b, a^-1) after t beside a^-1 pads the
    # braid with a: its word a b a^-1 is reduced but its target a a^-1 b is
    # not, so the walk refuses it, and so it refuses braid(c, a^-1) beside a.
    net = group_net("abc", {"t": ("c", "b")})
    a, a_inv, b, c = (signed(x) for x in "aAbc")
    lhs = Oper("combine", (Ident(a), Comp(symmetry.braiding(b, a_inv),
                                          Oper("combine", (Gen("t"), Ident(a_inv))))))
    rhs = Comp(Oper("combine", (Ident(a), Ident(a_inv), Gen("t"))),
               Oper("combine", (Ident(a), symmetry.braiding(c, a_inv))))
    for term in (lhs, rhs):
        with pytest.raises(UnsupportedOperationError, match="permutation target would cancel"):
            symmetry.sym_layered(term, net)
    with pytest.raises(UnsupportedOperationError, match="permutation target would cancel"):
        symmetry.sym_equal(lhs, rhs, net)
    # Made directly, that padded braid is still no slide: the layer
    # id.a t id.a^-1 would order its letters id.a id.a^-1 t, which cancel.
    perm = Perm(signed("abA"), (0, 2, 1))
    layer = signed_word([("id.a", 1), ("t", 1), ("id.a", -1)])
    assert not Theory.GRP.ops.is_normal(freecat._apply_perm(perm.word.payload, perm.mapping))
    assert freecat._slide(layer, perm, freecat._context(net), True) == []
    # The new permutation's source can cancel too. On GRP t: b^-1 b^-1 ->
    # a^-1 b, the layer id.a id.b t^-1 (source a b b b) slides after
    # Perm(a b b b, (0, 2, 3, 1)) into the order id.a t^-1 id.b, whose target
    # a b^-1 a b, carried back across the new permutation, reads a b b^-1 a.
    net = group_net("ab", {"t": ("BB", "Ab")})
    layer = signed_word([("id.a", 1), ("id.b", 1), ("t", -1)])
    assert freecat._slide(layer, Perm(signed("abbb"), (0, 2, 3, 1)), freecat._context(net),
                          False) == []


_GRP_NET = QNet(Theory.GRP, ("a", "b"), {
    "t": (signed_word([("a", 1)]), signed_word([("b", 1), ("a", -1)])),
    "u": (signed_word([("a", 1), ("b", 1)]), signed_word([("b", -1)])),
    "v": (signed_word([]), signed_word([("a", 1)])),
})
_SLIDE_NETS = [_GRP_NET, SYMMETRY_NETS[2], PRE_NETS[8],
               prenet("ab", {"t": ("ab", "ba"), "u": ("a", "bb")})]


@st.composite
def _layer_and_perm(draw):
    net = draw(st.sampled_from(_SLIDE_NETS))
    ctx = freecat._context(net)
    names = sorted(net.transitions) + [freecat.ID_PREFIX + p for p in net.places]
    if net.theory is Theory.GRP:
        letters = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from((1, -1))),
                                max_size=4))
        layer = signed_word(letters)
    else:
        layer = word(draw(st.lists(st.sampled_from(names), max_size=4)))
    before = draw(st.booleans())
    end = freecat._layer_tgt(layer, ctx) if before else freecat._layer_src(layer, ctx)
    mapping = tuple(draw(st.permutations(range(len(end.payload)))))
    return ctx, layer, Perm(end, mapping), before


@settings(max_examples=400, deadline=None)
@given(_layer_and_perm())
def test_slide_matches_reference_on_drawn_words(case):
    ctx, layer, perm, before = case
    if before:
        _check_slide(layer, perm, ctx)
    else:
        _check_slide(perm, layer, ctx)


# ---------------------------------------------------------------------------
# One search engine


def test_sym_equal_matches_reference(monkeypatch):
    seen = set()
    cases = [(net, lhs, rhs, None) for net, lhs, rhs in _criterion_11_pairs()]
    for net, lhs, rhs, budget in cases + list(_unequal_sym_pairs()):
        if budget is None:
            monkeypatch.delenv("QNET_BUDGET", raising=False)
        else:
            monkeypatch.setenv("QNET_BUDGET", str(budget))
        verdict = symmetry.sym_equal(lhs, rhs, net)
        assert (verdict.status, verdict.reason) == _sym_equal_ref(lhs, rhs, net, budget)
        seen.add((verdict.status, verdict.reason))
    assert {("equal", "rewrite path found"), ("unknown", "budget of 3 nodes exhausted"),
            ("unknown", "closures exhausted; symmetric move set is not known complete"),
            ("distinct", "generator occurrence counts differ")} <= seen


def _walk(start, reprs, neighbors, render):
    """How far along ``reprs`` one can go from ``start`` by single moves."""
    assert render(start) == reprs[0]
    current, reached = {start}, 0
    for i, text in enumerate(reprs[1:], 1):
        current = {n for f in current for n in neighbors(f) if render(n) == text}
        if not current:
            break
        reached = i
    return reached


def _assert_rewrite_path(f1, f2, witness, neighbors, render):
    """The witness runs from ``f1`` to ``f2``; each step is one move, taken
    forward from ``f1`` up to where the two searches met and forward from
    ``f2`` on the rest."""
    assert witness[0] == render(f1) and witness[-1] == render(f2)
    forward = _walk(f1, witness, neighbors, render)
    backward = _walk(f2, witness[::-1], neighbors, render)
    assert forward + backward >= len(witness) - 1


def test_sym_equal_witness_is_a_rewrite_path():
    found = 0
    for net, lhs, rhs in _criterion_11_pairs():
        verdict = symmetry.sym_equal(lhs, rhs, net)
        if verdict.reason != "rewrite path found":
            continue
        found += 1
        ctx = freecat._context(net)
        f1, f2 = symmetry.sym_layered(lhs, net), symmetry.sym_layered(rhs, net)
        _assert_rewrite_path(f1, f2, verdict.witness,
                             lambda f: _form_moves(symmetry._sym_neighbors, f, ctx),
                             freecat.layered_repr)
    assert found > 50


def _rewritten_pairs(seed, count):
    """Term pairs that are equal by construction: a layered form against the
    term of a form a few random moves away from it."""
    rng = random.Random(seed)
    nets = EQUALITY_NETS + [SYMMETRY_NETS[1], INTEGER_NETS[3],
                            petri("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"a": 1}, {"b": 1})})]
    for _ in range(count):
        net = rng.choice(nets)
        ctx = freecat._context(net)
        names = sorted(net.transitions)
        term = Oper("combine", (Gen(rng.choice(names)), Gen(rng.choice(names))))
        if rng.random() < 0.5:
            term = Oper("combine", (term, Ident(unit(net.theory, rng.choice(net.places)))))
        form = freecat.layered(term, net)
        cap = gens_sum(form)
        for _ in range(rng.randint(1, 4)):
            moves = _form_moves(freecat._neighbors, form, ctx, cap)
            if moves:
                form = rng.choice(moves)
        yield net, term, freecat.layered_to_term(form, net)


def test_mor_equal_witness_is_a_rewrite_path():
    by_search = 0
    for net, t1, t2 in _rewritten_pairs(seed=3, count=300):
        verdict = freecat.mor_equal(t1, t2, net)
        assert verdict.is_equal, (net, t1, t2, verdict)
        ctx = freecat._context(net)
        f1, f2 = freecat.layered(t1, net), freecat.layered(t2, net)
        if verdict.reason == "rewrite path found":
            by_search += 1
            cap = max(gens_sum(f1), gens_sum(f2))
            _assert_rewrite_path(f1, f2, verdict.witness,
                                 lambda f: _form_moves(freecat._neighbors, f, ctx, cap),
                                 freecat.layered_repr)
        elif verdict.reason == "greedy canonical forms agree":
            # Greedy witnesses are (f1, shared greedy form, f2): merge runs,
            # not single moves.
            greedy = ctx.form(f1.start, freecat._greedy(ctx.number(f1.layers), ctx))
            assert greedy == ctx.form(f2.start, freecat._greedy(ctx.number(f2.layers), ctx))
            assert verdict.witness == tuple(map(freecat.layered_repr, (f1, greedy, f2)))
    assert by_search > 10


def test_the_search_calls_neighbors_once_per_expansion(monkeypatch):
    """The benchmark's ``search.expansions`` counts calls of
    ``freecat._neighbors``: each call must be one expanded form, in
    ``_search_connect`` (so a budget of ``n`` nodes makes ``n`` calls) and in
    ``_closure`` (one per member)."""
    calls = []
    real = freecat._neighbors

    def counting(form, ctx, *cap):
        calls.append(form)
        return real(form, ctx, *cap)

    monkeypatch.setattr(freecat, "_neighbors", counting)
    searched = 0
    for case, net in _pinned():
        decide = DECIDE[case["decide"]]
        t1, t2 = (jsonio.term_from_json(net.theory, case[side]) for side in ("lhs", "rhs"))
        calls.clear()
        decide(t1, t2, net)
        if len(calls) < 2:
            continue
        searched += 1
        expanded = len(calls)
        assert len(set(calls)) == expanded
        assert all(isinstance(i, int) for form in calls for i in form)
        calls.clear()
        monkeypatch.setenv("QNET_BUDGET", str(expanded - 1))
        verdict = decide(t1, t2, net)
        monkeypatch.delenv("QNET_BUDGET")
        assert verdict.reason == f"budget of {expanded - 1} nodes exhausted"
        assert len(calls) == expanded - 1
    assert searched > 40
    x = cmon({"a": 2})
    loop = petri("a", {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})
    sizes = []
    for term in freecat.hom_enumerate(loop, x, x, 2, 2):
        form = freecat.layered(term, loop)
        ctx = freecat._context(loop)
        calls.clear()
        closure = freecat._closure(ctx.number(form.layers), ctx, None, 10_000)
        assert len(calls) == len(closure) and set(calls) == closure
        sizes.append(len(closure))
    assert max(sizes) > 5


# ---------------------------------------------------------------------------
# One term walker


_WALK_NETS = [EQUALITY_NETS[0], EQUALITY_NETS[2], EQUALITY_NETS[3], INTEGER_NETS[3],
              QNet(Theory.GRP, ("a", "b"), {"t": (signed_word([("a", 1)]),
                                                  signed_word([("b", 1)]))})]


def _terms(theory):
    leaves = st.one_of(
        st.sampled_from(["t", "u", "x"]).map(Gen),
        st.sampled_from(["a", "b", "c", "z"]).map(lambda p: Ident(unit(theory, p))),
        st.just(Ident(unit(Theory.CMON if theory is not Theory.CMON else Theory.MON, "a"))))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: Comp(*ab)),
        st.tuples(st.sampled_from(["combine", "invert", "swap"]),
                  st.lists(sub, max_size=3)).map(lambda oa: Oper(oa[0], tuple(oa[1]))),
        st.just("not a term")), max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_WALK_NETS).flatmap(
    lambda net: st.tuples(st.just(net), _terms(net.theory))))
def test_walker_matches_recursive_reference(case):
    net, term = case
    ctx = freecat._context(net)
    expected = outcome(_endpoints_ref, term, ctx)
    assert outcome(freecat._endpoints, term, ctx) == expected
    if expected[0] == "ok":
        # The walk is reached only for terms the endpoint check accepts.
        src, tgt, layers = _layers_ref(term, ctx)
        assert freecat._layers_of(term, ctx) == _payloads(src, tgt, layers)
        start, ids, end = freecat._layered_ctx(term, ctx)
        assert (ctx.form(start, ids), end) == (freecat.LayeredForm(
            src, tuple(l for l in layers if not freecat._pure_id(l))), tgt)
    else:
        assert outcome(freecat._layers_of, term, ctx) == expected


# ---------------------------------------------------------------------------
# One n-ary combination

_ZOO = (TOKEN_GAME_NETS + PRE_NETS + INTEGER_NETS + GROUP_NETS + ELEMENTARY_NETS
        + EQUALITY_NETS + SYMMETRY_NETS)


def _typed_terms(net):
    """Transitions, their inverses where the theory has them, held places,
    and the well-typed composites of two of those: terms of depth 0 to 2."""
    th = net.theory
    leaves = [Gen(t) for t in sorted(net.transitions)]
    if th.ops.group:
        leaves += [Oper("invert", (g,)) for g in leaves]
    leaves += [Ident(unit(th, p)) for p in net.places]
    ends = [(freecat.mor_src(t, net), freecat.mor_tgt(t, net)) for t in leaves]
    return leaves + [Comp(a, b) for (a, (sa, _)), (b, (_, tb))
                     in itertools.product(zip(leaves, ends), repeat=2) if tb == sa]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ZOO).flatmap(lambda net: st.tuples(
    st.just(net), st.lists(st.sampled_from(_typed_terms(net)), min_size=3, max_size=3))))
def test_nary_combination_lays_out_as_either_nesting(case):
    net, (a, b, c) = case
    flat = freecat.layered(Oper("combine", (a, b, c)), net)
    assert freecat.layered(Oper("combine", (Oper("combine", (a, b)), c)), net) == flat
    assert freecat.layered(Oper("combine", (a, Oper("combine", (b, c)))), net) == flat


# ---------------------------------------------------------------------------
# Layering on payloads


def _payloads(src, tgt, layers):
    """The reference walk's result as ``_layers_of`` gives it."""
    return src.payload, tgt.payload, tuple(l.payload for l in layers)


_POOLS = {}


def _pool(net):
    """The typed terms of a zoo net, each with its endpoints by the reference."""
    key = _ZOO.index(net)
    if key not in _POOLS:
        ctx = freecat._context(net)
        _POOLS[key] = [(t, *_endpoints_ref(t, ctx)) for t in _typed_terms(net)]
    return _POOLS[key]


@st.composite
def _nested_typed_terms(draw):
    """A well-typed term on a zoo net: n-ary combinations of typed terms, each
    followed by a typed term from its target (or the identity there), nested
    inside a wider combination with terms of other depths beside them."""
    net = draw(st.sampled_from(_ZOO))
    pool = _pool(net)
    ctx = freecat._context(net)

    def followed(firsts):
        thens = []
        for term in firsts:
            tgt = _endpoints_ref(term, ctx)[1]
            thens.append(draw(st.sampled_from(
                [t for t, src, _ in pool if src == tgt] + [Ident(tgt)])))
        return Comp(Oper("combine", tuple(thens)), Oper("combine", tuple(firsts)))

    terms = st.sampled_from(pool).map(lambda entry: entry[0])
    inner = [followed(draw(st.lists(terms, min_size=2, max_size=3))) for _ in range(2)]
    beside = draw(st.lists(terms, max_size=2))
    args = draw(st.permutations(inner + beside))
    return net, followed(args)


@settings(max_examples=300, deadline=None)
@given(_nested_typed_terms())
def test_walker_matches_recursive_reference_on_well_typed_terms(case):
    net, term = case
    ctx = freecat._context(net)
    src, tgt, layers = _layers_ref(term, ctx)
    assert freecat._layers_of(term, ctx) == _payloads(src, tgt, layers)
    kept = tuple(l for l in layers if not freecat._pure_id(l))
    start, ids, end = freecat._layered_ctx(term, ctx)
    assert (ctx.form(start, ids), end) == (LayeredForm(src, kept), tgt)
    assert freecat._endpoints(term, ctx) == (src, tgt)


def _counting_checks(monkeypatch):
    """The payloads of every checked element built from here on."""
    calls = []
    real = theory.check_canonical
    monkeypatch.setattr(theory, "check_canonical",
                        lambda th, payload: calls.append(payload) or real(th, payload))
    return calls


def _wide_deep(net, frame, before, after):
    """On ``t: a -> b, u: b -> ...``: ``u`` after ``t``, beside an identity on
    ``frame``, a lone ``t`` and two more such pairs, then ``u`` between
    identities on ``before`` and ``after``; padded columns three layers deep,
    between identities on the whole source and target."""
    pair = Comp(Gen("u"), Gen("t"))
    wide = Oper("combine", (pair, Ident(frame), Gen("t"), Oper("combine", (pair, pair))))
    deep = Comp(Oper("combine", (Ident(before), Gen("u"), Ident(after))), wide)
    return Comp(Ident(freecat.mor_tgt(deep, net)), Comp(deep, Ident(freecat.mor_src(deep, net))))


@pytest.mark.parametrize("net,term,depth", [
    (EQUALITY_NETS[0], _wide_deep(EQUALITY_NETS[0], cmon({"a": 2, "c": 1}),
                                  cmon({"a": 2, "c": 1}), cmon({"c": 3})), 3),
    (EQUALITY_NETS[2], _wide_deep(EQUALITY_NETS[2], word("ab"), word("aab"), word("aa")), 3),
    # t beside its inverse fires nothing: the one layer is dropped unchecked.
    (EQUALITY_NETS[4], Oper("combine", (Gen("t"), Oper("invert", (Gen("t"),)))), 0),
], ids=["CMON", "MON", "ABGRP"])
def test_layering_checks_only_its_ends_and_kept_layers(monkeypatch, net, term, depth):
    # A copy of the net, whose context has numbered no layer yet.
    ctx = freecat._context(QNet(net.theory, net.places, dict(net.transitions)))
    src, tgt, layers = _layers_ref(term, ctx)
    calls = _counting_checks(monkeypatch)
    start, ids, end = freecat._layered_ctx(term, ctx)
    assert len(layers) == max(depth, 1) and len(ids) == depth and (start, end) == (src, tgt)
    assert len(calls) == len(set(ids)) + 2
    # Layered again, the term checks its ends alone: the context has its layers.
    del calls[:]
    assert freecat._layered_ctx(term, ctx) == (start, ids, end)
    assert len(calls) == 2
    del calls[:]
    assert freecat._endpoints(term, ctx) == (src, tgt)
    assert len(calls) == 2


def test_layered_to_term_gives_back_each_symmetric_form():
    """Every form met in the move closures of the criterion 11 instances on
    ``SYMMETRY_NETS`` (2,702 forms) is the layered form of its own term, in
    which a permutation layer is a leaf."""
    net = SYMMETRY_NETS[0]  # t: a -> b
    term = Comp(symmetry.braiding(word("b"), word("a")),
                Oper("combine", (Gen("t"), Ident(word("a")))))
    form = symmetry.sym_layered(term, net)
    assert freecat.layered_to_term(form, net) == term
    forms = perms = 0
    for net, lhs, rhs in _criterion_11_pairs():
        ctx = freecat._context(net)
        for start in (symmetry.sym_layered(lhs, net), symmetry.sym_layered(rhs, net)):
            seen, queue = {start}, deque([start])
            while queue:
                form = queue.popleft()
                for nxt in _form_moves(symmetry._sym_neighbors, form, ctx):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                forms += 1
                perms += any(_is_perm(l) for l in form.layers)
                assert symmetry.sym_layered(freecat.layered_to_term(form, net), net) == form
    assert forms > 2000 and perms > 500
