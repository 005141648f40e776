import itertools

import pytest

from qnets.net import NetMorphism, QNet, validate_morphism
from qnets.reflexive import (
    InvalidNetError,
    ReflexiveMorphism,
    ReflexiveQNet,
    add_identities,
    add_identities_morphism,
    compose_reflexive,
    elem_transition_name,
    enumerate_reflexive_morphisms,
    extend_morphism,
    forget_identities,
    free_edges,
    graph_to_net_transpose,
    net_to_graph_transpose,
    restrict_morphism,
    underlying_reflexive,
    validate_graph_morphism,
    validate_qgraph,
    validate_reflexive,
    validate_reflexive_morphism,
)
from qnets.theory import Theory, combine, extend, unit

from netzoo import cmon, petri


def test_add_identities_examples():
    bare = QNet(Theory.CMON, ("a", "b"), {})
    r = add_identities(bare)
    assert len(r.net.transitions) == 2
    assert validate_reflexive(r) == []
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    r = add_identities(net)
    assert len(r.net.transitions) == len(net.transitions) + len(net.places)
    src, tgt = r.net.transitions[r.e["a"]]
    assert src == unit(Theory.CMON, "a") == tgt


def test_add_identities_rejects_reserved_prefix():
    clash = petri("a", {"id.a": ({"a": 1}, {"a": 1})})
    with pytest.raises(InvalidNetError):
        add_identities(clash)


def test_forget_identities():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    r = add_identities(net)
    under = forget_identities(r)
    assert len(under.transitions) == 3
    assert forget_identities(r) == under  # stable under repetition
    from qnets.net import validate_net

    assert validate_net(under) == []


def _loop_reflexive(theory=Theory.CMON):
    loop = QNet(theory, ("x",), {
        "iota": (unit(theory, "x"), unit(theory, "x")),
        "tau": (unit(theory, "x"), unit(theory, "x")),
    })
    return ReflexiveQNet(loop, {"x": "iota"})


def test_restrict_morphism_of_identity_is_inclusion():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    ap = add_identities(net)
    ident = ReflexiveMorphism(ap, ap, {t: t for t in ap.net.transitions},
                              {p: p for p in ap.net.places})
    k = restrict_morphism(ident)
    assert k.source == net
    assert k.f == {"t": "t"}
    assert validate_morphism(k) == []


def test_extend_morphism_sends_identities_along_e():
    net = petri("a", {})
    r = _loop_reflexive()
    k = NetMorphism(net, r.net, {}, {"a": "x"})
    h = extend_morphism(k, r)
    assert h.f["id.a"] == "iota"
    assert validate_reflexive_morphism(h) == []


def test_transpose_roundtrips_exhaustively():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    r = _loop_reflexive()
    upstairs = enumerate_reflexive_morphisms(add_identities(net), r)
    from qnets.net import enumerate_morphisms

    downstairs = enumerate_morphisms(net, forget_identities(r))
    assert len(upstairs) == len(downstairs) > 0
    for h in upstairs:
        assert extend_morphism(restrict_morphism(h), r) == h
    for k in downstairs:
        assert restrict_morphism(extend_morphism(k, r)) == k


def _enumerate_reflexive_ref(r1, r2):
    """The brute-force hom-set as written before it rested on the net stage."""
    out = []
    places = list(r1.net.places)
    trans = sorted(r1.net.transitions)
    for g_imgs in itertools.product(r2.net.places, repeat=len(places)):
        g = dict(zip(places, g_imgs))
        for f_imgs in itertools.product(sorted(r2.net.transitions), repeat=len(trans)):
            h = ReflexiveMorphism(r1, r2, dict(zip(trans, f_imgs)), g)
            if not validate_reflexive_morphism(h):
                out.append(h)
    return out


def test_reflexive_hom_sets_match_reference_in_order():
    nets = [QNet(Theory.CMON, (), {}), QNet(Theory.CMON, ("a",), {}),
            petri("ab", {"t": ({"a": 1}, {"b": 1})}),
            petri("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"b": 1})})]
    refl = [add_identities(net) for net in nets] + [_loop_reflexive()]
    found = 0
    for r1 in refl:
        for r2 in refl:
            got = enumerate_reflexive_morphisms(r1, r2)
            assert got == _enumerate_reflexive_ref(r1, r2)
            found += len(got)
            for h in got:
                for k in enumerate_reflexive_morphisms(r2, r2):
                    composed = compose_reflexive(k, h)
                    assert validate_reflexive_morphism(composed) == []
                    assert composed.f == {t: k.f[h.f[t]] for t in h.f}
                    assert composed.g == {p: k.g[h.g[p]] for p in h.g}
    assert found > 10


def test_reflexive_hom_sets_do_not_revalidate_net_morphisms(monkeypatch):
    """Each candidate comes from ``enumerate_morphisms``, which has already
    validated it, so only its identity squares are checked again."""
    import qnets.reflexive as reflexive

    calls = []
    real = reflexive.validate_morphism
    monkeypatch.setattr(reflexive, "validate_morphism",
                        lambda m: calls.append(m) or real(m))
    r = add_identities(petri("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"b": 1})}))
    assert len(enumerate_reflexive_morphisms(r, r)) > 1
    assert calls == []
    swap = ReflexiveMorphism(r, r, {"t": "t", "u": "id.b", "id.a": "id.a", "id.b": "u"},
                             {"a": "a", "b": "b"})
    assert validate_reflexive_morphism(swap) == ["identity square fails at place 'b'"]
    assert len(calls) == 1


def test_free_edges_stores_net_maps_verbatim():
    net = petri("ab", {"t": ({"a": 1}, {"b": 2})})
    r = add_identities(net)
    g = free_edges(r)
    assert validate_qgraph(g) == []
    assert g.src["t"] == cmon({"a": 1})
    assert g.tgt["t"] == cmon({"b": 2})
    assert g.ident["a"] == unit(Theory.CMON, "id.a")


def test_free_edges_extension_is_homomorphic():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"a": 1})})
    g = free_edges(add_identities(net))
    th = Theory.CMON
    pair = combine(th, unit(th, "t"), unit(th, "u"))
    assert extend(th, g.src, pair) == combine(th, g.src["t"], g.src["u"])


def test_underlying_reflexive_is_reflexive():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    g = free_edges(add_identities(net))
    extra = combine(Theory.CMON, unit(Theory.CMON, "t"), unit(Theory.CMON, "t"))
    view = underlying_reflexive(g, [extra])
    assert validate_reflexive(view) == []
    name = elem_transition_name(extra)
    src, tgt = view.net.transitions[name]
    assert src == cmon({"a": 2}) and tgt == cmon({"b": 2})


def test_graph_transpose_roundtrip():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    r = add_identities(net)
    g = free_edges(r)
    th = Theory.CMON
    images = {name: unit(th, name) for name in r.net.transitions}
    view = underlying_reflexive(g, images.values())
    f = {name: elem_transition_name(images[name]) for name in r.net.transitions}
    k = ReflexiveMorphism(r, view, f, {p: p for p in net.places})
    assert validate_reflexive_morphism(k) == []
    h = net_to_graph_transpose(k, g)
    assert validate_graph_morphism(h) == []
    assert graph_to_net_transpose(h, r) == k
    assert net_to_graph_transpose(graph_to_net_transpose(h, r), g) == h


def test_graph_morphism_square_checks():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    r = add_identities(net)
    g = free_edges(r)
    from qnets.reflexive import GraphMorphism

    bad = GraphMorphism(g, g, {name: unit(Theory.CMON, "id.a")
                               for name in g.generators},
                        {p: p for p in g.places})
    diags = validate_graph_morphism(bad)
    assert any("source square" in d for d in diags)


def test_add_identities_morphism_is_functorial():
    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    q = petri("c", {"s": ({"c": 1}, {"c": 1})})
    m = NetMorphism(p, q, {"t": "s"}, {"a": "c", "b": "c"})
    assert validate_morphism(m) == []
    am = add_identities_morphism(m)
    assert validate_reflexive_morphism(am) == []
    assert am.f["id.a"] == "id.c"
