"""Differential tests: hom_enumerate's closure-based class dedup against the
pairwise mor_equal dedup it replaced."""

from hypothesis import given, settings, strategies as st

from qnets import QNet, freecat
from qnets.freecat import (
    LayeredForm,
    _context,
    _forms_equal,
    _layer_tgt,
    _step_layers,
    hom_enumerate,
    layered_to_term,
)
from qnets.theory import Theory, finset, multiset, unit, word

from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    cmon,
    petri,
)

LOOP = petri("a", {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})
ENUMERABLE = (Theory.CMON, Theory.MON, Theory.SEMILAT)


def pairwise_hom_enumerate(net, x, y, max_layers, max_width, budget=None):
    """Reference: each form is compared with every earlier representative."""
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
    forms.sort(key=lambda f: (len(f.layers), tuple(l.payload for l in f.layers)))
    reps = []
    for form in forms:
        if not any(_forms_equal(form, rep, ctx, budget).is_equal for rep in reps):
            reps.append(form)
    return [layered_to_term(rep, net) for rep in reps]


def _objects(net):
    """Arc markings and place units, as in the underlying-net truncation."""
    objs = {elem for arcs in net.transitions.values() for elem in arcs}
    objs.update(unit(net.theory, p) for p in net.places)
    return sorted(objs, key=lambda e: e.payload)


def test_zoo_matches_pairwise_reference():
    nets = [n for n in TOKEN_GAME_NETS + PRE_NETS + ELEMENTARY_NETS
            + EQUALITY_NETS + SYMMETRY_NETS if n.theory in ENUMERABLE]
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ENUMERABLE), st.data())
def test_random_nets_match_pairwise_reference(theory, data):
    draw = data.draw
    # Sources are nonempty and SEMILAT stops at two layers: empty sources
    # multiply the layers of every width, and idempotent duplication makes
    # SEMILAT classes large, so the pairwise reference would take minutes.
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
    want = pairwise_hom_enumerate(net, x, y, max_layers, max_width)
    assert hom_enumerate(net, x, y, max_layers, max_width) == want


def test_budget_fallback_uses_pairwise_search(monkeypatch):
    x = cmon({"a": 2})
    full = hom_enumerate(LOOP, x, x, 2, 2)
    want = pairwise_hom_enumerate(LOOP, x, x, 2, 2, budget=1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _forms_equal(*args, **kwargs)

    monkeypatch.setattr(freecat, "_forms_equal", counting)
    tight = hom_enumerate(LOOP, x, x, 2, 2, budget=1)
    assert calls
    assert tight == want
    assert len(tight) >= len(full)
