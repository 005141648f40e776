"""Differential tests: hom_enumerate's closure-based class dedup against the
pairwise mor_equal dedup it replaced and against the independent rewrite
oracle's closures, and the move tables each net keeps against the uncached
moves."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qnets import QNet, freecat
from qnets.freecat import (
    Gen,
    LayeredForm,
    Oper,
    _closure,
    _context,
    _forms_equal,
    _layer_tgt,
    _step_layers,
    default_budget,
    hom_enumerate,
    layered,
    layered_to_term,
)
from qnets.theory import QnetError, Theory, finset, multiset, unit, word

from layer_refs import form_occurrences, gens_sum, layer_gens, layer_occurrences
from oracle_rewrite import OracleNet, _form_total, _normal, closure, term_layers

from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    GROUP_NETS,
    INTEGER_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    cmon,
    petri,
)

LOOP = petri("a", {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})
ENUMERABLE = (Theory.CMON, Theory.MON, Theory.SEMILAT)


def _hom_forms(net, x, y, max_layers, max_width):
    """The layered forms from ``x`` to ``y`` in hom_enumerate's visiting order."""
    ctx = _context(net)
    forms = []

    def rec(marking, acc):
        if marking == y:
            forms.append(LayeredForm(x, acc))
        if len(acc) == max_layers:
            return
        for layer in _step_layers(ctx, marking, max_width):
            rec(_layer_tgt(layer, ctx), acc + (layer,))

    rec(x, ())
    return sorted(forms, key=lambda f: (len(f.layers), tuple(l.payload for l in f.layers)))


def pairwise_hom_enumerate(net, x, y, max_layers, max_width):
    """Reference: each form is compared with every earlier representative."""
    ctx, budget = _context(net), default_budget()
    reps = []
    for form in _hom_forms(net, x, y, max_layers, max_width):
        if not any(_forms_equal(x, ctx.number(form.layers), ctx.number(rep.layers), ctx,
                                budget).is_equal for rep in reps):
            reps.append(form)
    return [layered_to_term(rep, net) for rep in reps]


def oracle_hom_enumerate(net, x, y, max_layers, max_width):
    """Reference on ``tests/oracle_rewrite.py``: each form joins the first
    earlier representative whose oracle closure, capped at the larger
    generator count of the two, holds it. Without idempotence no move changes
    the generator count, so the classes are disjoint closures at each form's
    own count, and a form joins one iff it lies in any earlier one."""
    onet = OracleNet(net)
    members, closures, reps = set(), {}, []

    def holds(key, total, rep) -> bool:
        rep_key, rep_total, rep_layers = rep
        cap = max(total, rep_total)
        if (rep_key, cap) not in closures:
            closures[rep_key, cap] = closure(onet, rep_layers, cap)
        return key in closures[rep_key, cap]

    for form in _hom_forms(net, x, y, max_layers, max_width):
        term = layered_to_term(form, net)
        layers = term_layers(term, onet)[2]
        key = _normal(onet, layers)
        total = _form_total(onet, key)
        if net.theory is Theory.SEMILAT:
            if any(holds(key, total, rep) for _, rep in reps):
                continue
        elif key in members:
            continue
        else:
            members |= closure(onet, layers, total)
        reps.append((term, (key, total, layers)))
    return [term for term, _ in reps]


def _objects(net):
    """Arc markings and place units, as in the underlying-net truncation."""
    objs = {elem for arcs in net.transitions.values() for elem in arcs}
    objs.update(unit(net.theory, p) for p in net.places)
    return sorted(objs, key=lambda e: e.payload)


ZOO = TOKEN_GAME_NETS + PRE_NETS + ELEMENTARY_NETS + EQUALITY_NETS + SYMMETRY_NETS
GROUP_ZOO = INTEGER_NETS + GROUP_NETS


def test_zoo_matches_pairwise_reference():
    nets = [n for n in ZOO if n.theory in ENUMERABLE]
    compared = 0
    for net in nets:
        for x in _objects(net):
            for y in _objects(net):
                for bounds in ((3, 1), (2, 2)):
                    want = pairwise_hom_enumerate(net, x, y, *bounds)
                    assert hom_enumerate(net, x, y, *bounds) == want, (net, x, y, bounds)
                    compared += len(want) > 1
    assert compared > 50


def _marking(theory, draw, min_size=0):
    if theory is Theory.CMON:
        counts = draw(st.lists(st.sampled_from("ab"), min_size=min_size, max_size=4))
        return multiset(theory, {p: counts.count(p) for p in "ab"})
    if theory is Theory.MON:
        return word(draw(st.lists(st.sampled_from("ab"), min_size=min_size, max_size=2)))
    return finset(draw(st.sets(st.sampled_from("ab"), min_size=min_size)))


@st.composite
def _hom_cases(draw):
    """A two-transition net, a source, layer bounds and a target."""
    theory = draw(st.sampled_from(ENUMERABLE))
    # Sources are nonempty and SEMILAT stops at two layers: empty sources
    # multiply the layers of every width, and idempotent duplication makes
    # SEMILAT classes large, so the reference would take minutes.
    net = QNet(theory, ("a", "b"), {
        name: (_marking(theory, draw, 1), _marking(theory, draw)) for name in ("t", "u")})
    x = _marking(theory, draw, 1)
    max_width = draw(st.integers(1, 2))
    max_layers = draw(st.integers(1, 2 if theory is Theory.SEMILAT else 4))
    # Walk a random path so the target is reachable within the bounds.
    ctx = _context(net)
    y = x
    for _ in range(draw(st.integers(1, max_layers))):
        layers = _step_layers(ctx, y, max_width)
        if not layers:
            break
        y = _layer_tgt(draw(st.sampled_from(layers)), ctx)
    return net, x, y, max_layers, max_width


def _layer_paths(net, x, max_layers, max_width, bound):
    """The nonempty layer paths from ``x`` within the bounds, as
    hom_enumerate counts them, counted until the count passes ``bound``."""
    ctx = _context(net)
    count, stack = 0, [(x, 0)]
    while stack and count <= bound:
        marking, depth = stack.pop()
        if depth < max_layers:
            targets = [_layer_tgt(layer, ctx) for layer in _step_layers(ctx, marking, max_width)]
            count += len(targets)
            stack += [(tgt, depth + 1) for tgt in targets]
    return count


# t: b -> bb and u: bb -> (the empty word) have 34,674 layer paths from bb
# within 4 layers of width 2.
DOUBLING = QNet(Theory.MON, ("a", "b"), {"t": (word("b"), word("bb")),
                                          "u": (word("bb"), word(""))})


@settings(max_examples=200, deadline=None)
@given(_hom_cases())
@example((DOUBLING, word("bb"), word("bbbb"), 4, 2))
def test_random_nets_match_oracle_reference(case):
    net, x, y, max_layers, max_width = case
    if _layer_paths(net, x, max_layers, max_width, default_budget()) > default_budget():
        # A hom-set with more layer paths than the budget is refused, before
        # the reference would spend minutes on it.
        with pytest.raises(QnetError, match="a hom-set has more than .* layer paths; QNET_BUDGET"):
            hom_enumerate(net, x, y, max_layers, max_width)
        return
    want = oracle_hom_enumerate(net, x, y, max_layers, max_width)
    assert hom_enumerate(net, x, y, max_layers, max_width) == want


# Four independent steps t: a -> b, u: c -> d, v: e -> f, w: g -> h. From
# a+c+e+g to b+d+f+h within 2 layers of width 4 there are 65 layer paths and
# one class of 15 forms, whose closure holds 75 forms.
FOUR_STEPS = petri("abcdefgh", {name: ({src: 1}, {tgt: 1})
                                for name, src, tgt in ("tab", "ucd", "vef", "wgh")})


def test_budget_fallback_uses_pairwise_search(monkeypatch):
    # Past the closure's 75 forms but within the 65 paths, the closure
    # passes the budget and the other 14 forms are compared pairwise.
    x, y = cmon({p: 1 for p in "aceg"}), cmon({p: 1 for p in "bdfh"})
    full = hom_enumerate(FOUR_STEPS, x, y, 2, 4)
    assert len(full) == 1
    logs = _logging(monkeypatch, "_forms_equal")
    closed = []
    real = freecat._closure

    def recording(*args):
        closed.append(real(*args))
        return closed[-1]

    monkeypatch.setattr(freecat, "_closure", recording)
    for budget in (65, 74):
        monkeypatch.setenv("QNET_BUDGET", str(budget))
        closed.clear()
        logs["_forms_equal"].clear()
        tight = hom_enumerate(FOUR_STEPS, x, y, 2, 4)
        assert closed == [None]
        assert len(logs["_forms_equal"]) == 14
        assert tight == full == pairwise_hom_enumerate(FOUR_STEPS, x, y, 2, 4)


def _logging(monkeypatch, *names):
    """Wrap freecat functions so each call's arguments are logged by name."""
    logs = {name: [] for name in names}
    for name, log in logs.items():
        real = getattr(freecat, name)

        def logged(*args, real=real, log=log, **kwargs):
            log.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(freecat, name, logged)
    return logs


def test_two_loop_dedup_is_one_lookup_per_form(monkeypatch):
    # 255 forms, each its own class, in buckets of up to 35 representatives;
    # testing each form against every representative in its bucket would
    # make 2,226 closure tests.
    logs = _logging(monkeypatch, "_closure", "_forms_equal")
    x = cmon({"a": 1})
    reps = hom_enumerate(LOOP, x, x, 7, 1)
    assert len(reps) == 255
    closed = [ctx.form(x, form) for form, ctx, *_ in logs["_closure"]]
    assert len(closed) == len(set(closed))
    assert all(layered_to_term(rep, LOOP) in reps for rep in closed)
    assert not logs["_forms_equal"]


def test_mixed_budget_bucket_matches_pairwise_reference(monkeypatch):
    # t: ab -> c, u: c -> ab, from cc to cab: one bucket holds closures of
    # 1 and 5 forms, so a closure bound between them indexes some
    # representatives of that bucket and compares the others pairwise. A
    # QNET_BUDGET that low would refuse the layer paths, so the bound is set
    # on _closure alone.
    net, x, y = PRE_NETS[5], word("cc"), word("cab")
    ctx = _context(net)
    sizes = [len(_closure(ctx.number(form.layers), ctx, None, 100))
             for form in _hom_forms(net, x, y, 3, 1)]
    budget = (min(sizes) + max(sizes)) // 2
    assert min(sizes) < budget < max(sizes)
    outcomes: dict[frozenset, set[bool]] = {}
    real = freecat._closure

    def recording(form, ctx, cap, _):
        closure = real(form, ctx, cap, budget)
        key = frozenset(form_occurrences(ctx.form(x, form).layers).items())
        outcomes.setdefault(key, set()).add(closure is None)
        return closure

    want = hom_enumerate(net, x, y, 3, 1)
    logs = _logging(monkeypatch, "_forms_equal")
    monkeypatch.setattr(freecat, "_closure", recording)
    got = hom_enumerate(net, x, y, 3, 1)
    assert {True, False} in outcomes.values()
    assert logs["_forms_equal"]
    assert got == want == pairwise_hom_enumerate(net, x, y, 3, 1)


def test_three_layer_semilat_class_matches_pairwise_reference():
    # Large SEMILAT rewrite classes: this took seconds per call when every
    # neighbor rebuilt its merge and split moves.
    net = EQUALITY_NETS[3]
    got = hom_enumerate(net, finset("ab"), finset("ab"), 3, 2)
    assert len(got) == 26
    assert got == pairwise_hom_enumerate(net, finset("ab"), finset("ab"), 3, 2)


# ---------------------------------------------------------------------------
# Per-net move tables against the uncached moves


def _neighbors_ref(form, ctx, gens_cap):
    """The move generator as it was before the caches, on the uncached moves."""
    layers = form.layers
    for i in range(len(layers) - 1):
        for merged in freecat._merge_candidates(layers[i], layers[i + 1], ctx):
            mid = () if freecat._pure_id(merged) else (merged,)
            yield LayeredForm(form.start, layers[:i] + mid + layers[i + 2:])
    total = gens_sum(form)
    for i, layer in enumerate(layers):
        here = layer_gens(layer)
        for a, b in freecat._split_candidates(layer, ctx):
            grown = total - here + layer_gens(a) + layer_gens(b)
            if grown <= gens_cap:
                yield LayeredForm(form.start, layers[:i] + (a, b) + layers[i + 1:])


def _start_forms(net):
    """Every hom-set form of an enumerable net; for the group theories, whose
    hom-sets are infinite, every parallel pair of generators."""
    if net.theory in ENUMERABLE:
        for x in _objects(net):
            for y in _objects(net):
                for bounds in ((3, 1), (2, 2)):
                    yield from _hom_forms(net, x, y, *bounds)
    else:
        for t in sorted(net.transitions):
            for u in sorted(net.transitions):
                yield layered(Oper("combine", (Gen(t), Gen(u))), net)


def _check_moves(form, cached, plain, cap):
    """Every move of ``form`` agrees, in order, with the uncached move."""
    layers = form.layers
    ids = cached.number(layers)
    for key, l1, l2 in zip(zip(ids, ids[1:]), layers, layers[1:]):
        want = freecat._merge_candidates(l1, l2, plain)
        got = freecat._pair_moves(key, cached)
        assert [cached.form(form.start, mid).layers for mid in got] \
            == [() if freecat._pure_id(merged) else (merged,) for merged in want]
        assert got is freecat._pair_moves(key, cached)
    assert [cached.form(form.start, move) for move in freecat._neighbors(ids, cached, cap)] \
        == list(_neighbors_ref(form, plain, cap))
    for i, layer in zip(ids, layers):
        assert [cached.form(form.start, pair).layers for pair in cached.splits[i]] \
            == freecat._split_candidates(layer, plain)
        assert cached.gens[i] == layer_gens(layer)
        counts = layer_occurrences(layer)
        assert cached.occ[i] == tuple(counts.get(name, 0)
                                      for name in sorted(cached.net.transitions))


def test_cached_moves_match_uncached_moves_on_whole_closures():
    checked = 0
    for net in ZOO + GROUP_ZOO:
        cached = _context(net)  # the net's own context, kept across calls
        # A fresh net's context, only passed to the uncached moves.
        plain = _context(QNet(net.theory, net.places, dict(net.transitions)))
        assert plain is not cached
        done = set()
        for form in _start_forms(net):
            cap = gens_sum(form)
            if (form, cap) in done:
                continue
            closure = _closure(cached.number(form.layers), cached, cap, 5_000)
            assert closure is not None, (net, form)
            for member in [cached.form(form.start, ids) for ids in closure]:
                done.add((member, cap))
                _check_moves(member, cached, plain, cap)
                checked += 1
        assert cached.pairs or cached.splits or not net.transitions
    assert checked > 800
