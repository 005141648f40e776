"""Reflexive nets and free-edge graphs: the two pre-category adjunction stages.

Stage one adjoins an identity transition per place (``add_identities`` /
``forget_identities``) with the hom-set transpose pair ``restrict_morphism`` /
``extend_morphism``. Stage two closes the transitions into a free model over
generator edges (``free_edges``); its transpose pair moves between
generator-image graph morphisms and reflexive-net morphisms into the lazily
materialized net underlying a graph.

Homomorphisms between free models are stored as generator-image maps only;
their extensions are computed on demand, so equality of homomorphisms is
equality on generators.
"""

from __future__ import annotations

import json
from typing import Iterable

from . import jsonio
from .net import (
    ID_PREFIX,
    InvalidNetError,
    NetMorphism,
    QNet,
    compose,
    enumerate_morphisms,
    validate_morphism,
    validate_net,
)
from .theory import (
    FreeElem,
    QnetError,
    Theory,
    TheoryMismatchError,
    UnmappedNameError,
    _Record,
    extend,
    lift,
    unit,
)

class ReflexiveQNet(_Record):
    __slots__ = _fields = ("net", "e")


class ReflexiveMorphism(_Record):
    __slots__ = _fields = ("source", "target", "f", "g")

    def as_net_morphism(self) -> NetMorphism:
        return NetMorphism(self.source.net, self.target.net, self.f, self.g)


class QGraph(_Record):
    """Edges form the free model on ``generators``; only generator images of
    the source, target, and identity homomorphisms are stored: ``src`` and
    ``tgt`` map a generator to an element over places, ``ident`` a place to
    an element over generators."""

    __slots__ = _fields = ("theory", "generators", "places", "src", "tgt", "ident")


class GraphMorphism(_Record):
    """``f_gen`` maps a generator to an element over the target's generators."""

    __slots__ = _fields = ("source", "target", "f_gen", "g")


def validate_reflexive(r: ReflexiveQNet) -> list[str]:
    diags = validate_net(r.net)
    th = r.net.theory
    for p in r.net.places:
        t = r.e.get(p)
        if t is None:
            diags.append(f"no identity transition assigned to place {p!r}")
            continue
        if t not in r.net.transitions:
            diags.append(f"identity of {p!r} is unknown transition {t!r}")
            continue
        src, tgt = r.net.transitions[t]
        want = unit(th, p)
        if src != want or tgt != want:
            diags.append(f"identity of {p!r} must loop on its unit marking")
    return diags


def validate_reflexive_morphism(h: ReflexiveMorphism) -> list[str]:
    return validate_morphism(h.as_net_morphism()) + _identity_squares(h)


def _identity_squares(h: ReflexiveMorphism) -> list[str]:
    return [f"identity square fails at place {p!r}" for p in h.source.net.places
            if h.f.get(h.source.e[p]) != h.target.e.get(h.g[p])]


def add_identities(net: QNet) -> ReflexiveQNet:
    """Adjoin one loop transition per place, named with the ``id.`` prefix."""
    clashes = [t for t in net.transitions if t.startswith(ID_PREFIX)]
    if clashes:
        raise InvalidNetError(
            f"transition names may not use the reserved prefix {ID_PREFIX!r}: {sorted(clashes)}")
    th = net.theory
    transitions = dict(net.transitions)
    e = {}
    for p in net.places:
        name = ID_PREFIX + p
        transitions[name] = (unit(th, p), unit(th, p))
        e[p] = name
    return ReflexiveQNet(QNet(th, net.places, transitions), e)


def forget_identities(r: ReflexiveQNet) -> QNet:
    """Drop the identity assignment; the underlying net is returned unchanged."""
    return r.net


def add_identities_morphism(m: NetMorphism) -> ReflexiveMorphism:
    """Functorial action of identity adjunction on a net morphism."""
    f = dict(m.f)
    for p in m.source.places:
        f[ID_PREFIX + p] = ID_PREFIX + m.g[p]
    return ReflexiveMorphism(add_identities(m.source), add_identities(m.target), f, dict(m.g))


def strip_added_identities(r: ReflexiveQNet) -> QNet:
    """Recover the net that ``add_identities`` was applied to."""
    transitions = {t: arcs for t, arcs in r.net.transitions.items()
                   if not t.startswith(ID_PREFIX)}
    return QNet(r.net.theory, r.net.places, transitions)


def restrict_morphism(h: ReflexiveMorphism) -> NetMorphism:
    """Transpose out of the identity adjunction: keep only original transitions.

    ``h`` must go from an ``add_identities`` result; the returned morphism
    targets the underlying net of ``h.target``.
    """
    source = strip_added_identities(h.source)
    f = {t: h.f[t] for t in source.transitions}
    return NetMorphism(source, h.target.net, f, dict(h.g))


def extend_morphism(k: NetMorphism, target: ReflexiveQNet) -> ReflexiveMorphism:
    """Transpose into the identity adjunction: adjoined identities follow ``e``.

    ``k`` must target ``forget_identities(target)``; the adjoined identity of
    place ``p`` is sent to the target's identity at ``g(p)``.
    """
    if k.target != target.net:
        raise TheoryMismatchError("morphism target is not the underlying net")
    f = dict(k.f)
    for p in k.source.places:
        f[ID_PREFIX + p] = target.e[k.g[p]]
    return ReflexiveMorphism(add_identities(k.source), target, f, dict(k.g))


def free_edges(r: ReflexiveQNet) -> QGraph:
    """Freely close a reflexive net's transitions into a graph of free edges.

    The stored generator images are the net's own source/target maps; the
    identity image of a place is the generator chosen by ``e``.
    """
    th = r.net.theory
    gens = tuple(r.net.transitions)
    src = {t: arcs[0] for t, arcs in r.net.transitions.items()}
    tgt = {t: arcs[1] for t, arcs in r.net.transitions.items()}
    ident = {p: unit(th, r.e[p]) for p in r.net.places}
    return QGraph(th, gens, r.net.places, src, tgt, ident)


def free_edges_morphism(m: ReflexiveMorphism) -> GraphMorphism:
    """Functorial action of the edge closure: generators map to generator units."""
    th = m.source.net.theory
    f_gen = {t: unit(th, m.f[t]) for t in m.source.net.transitions}
    return GraphMorphism(free_edges(m.source), free_edges(m.target), f_gen, dict(m.g))


def validate_qgraph(g: QGraph) -> list[str]:
    diags = []
    declared_p = set(g.places)
    declared_g = set(g.generators)
    for name in g.generators:
        for role, table in (("src", g.src), ("tgt", g.tgt)):
            elem = table.get(name)
            if elem is None:
                diags.append(f"generator {name!r} has no {role} image")
            elif elem.theory is not g.theory or (elem.atoms() - declared_p):
                diags.append(f"generator {name!r} {role} image is not over the places")
    for p in g.places:
        elem = g.ident.get(p)
        if elem is None:
            diags.append(f"place {p!r} has no identity image")
            continue
        if elem.theory is not g.theory or (elem.atoms() - declared_g):
            diags.append(f"identity image of {p!r} is not over the generators")
            continue
        want = unit(g.theory, p)
        if extend(g.theory, g.src, elem) != want or extend(g.theory, g.tgt, elem) != want:
            diags.append(f"identity image of {p!r} is not a loop on its unit marking")
    return diags


def validate_graph_morphism(h: GraphMorphism) -> list[str]:
    """Check the source, target, and identity squares on generators."""
    missing = set(h.source.generators) - set(h.f_gen)
    missing_p = set(h.source.places) - set(h.g)
    if missing or missing_p:
        raise UnmappedNameError(
            f"partial graph morphism: generators {sorted(missing)}, places {sorted(missing_p)}")
    th = h.source.theory
    diags = []
    for gen in h.source.generators:
        img = h.f_gen[gen]
        if img.theory is not th or (img.atoms() - set(h.target.generators)):
            diags.append(f"image of generator {gen!r} is not over the target generators")
            continue
        if extend(th, h.target.src, img) != lift(th, h.g, h.source.src[gen]):
            diags.append(f"source square fails at generator {gen!r}")
        if extend(th, h.target.tgt, img) != lift(th, h.g, h.source.tgt[gen]):
            diags.append(f"target square fails at generator {gen!r}")
    for p in h.source.places:
        left = extend(th, h.f_gen, h.source.ident[p])
        if left != h.target.ident.get(h.g[p]):
            diags.append(f"identity square fails at place {p!r}")
    return diags


def elem_transition_name(x: FreeElem) -> str:
    """Canonical, decodable transition name for an edge-model element."""
    return jsonio.dumps(jsonio.elem_to_json(x))


def underlying_reflexive(g: QGraph, needed: Iterable[FreeElem] = ()) -> ReflexiveQNet:
    """Materialize the reflexive net underlying a graph, bounded to ``needed``.

    The full edge model is infinite for any nonempty generator set, so only
    the identity elements plus the explicitly referenced elements become
    transitions. Transition names are canonical element encodings.
    """
    th = g.theory
    elems = {g.ident[p] for p in g.places}
    elems.update(needed)
    transitions = {}
    for elem in sorted(elems, key=lambda e: e.payload):
        transitions[elem_transition_name(elem)] = (
            extend(th, g.src, elem), extend(th, g.tgt, elem))
    e = {p: elem_transition_name(g.ident[p]) for p in g.places}
    return ReflexiveQNet(QNet(th, g.places, transitions), e)


def graph_to_net_transpose(h: GraphMorphism, r: ReflexiveQNet) -> ReflexiveMorphism:
    """Transpose a generator-image morphism out of ``free_edges(r)``.

    Each transition of ``r`` is sent to the target-graph element it generates,
    materialized as a transition of the net underlying ``h.target``.
    """
    if free_edges(r) != h.source:
        raise TheoryMismatchError("graph morphism does not start at free_edges of the net")
    view = underlying_reflexive(h.target, h.f_gen.values())
    f = {t: elem_transition_name(h.f_gen[t]) for t in r.net.transitions}
    return ReflexiveMorphism(r, view, f, dict(h.g))


def net_to_graph_transpose(k: ReflexiveMorphism, g: QGraph) -> GraphMorphism:
    """Transpose a reflexive morphism into the underlying net of ``g`` back to
    a generator-image graph morphism; transition names are decoded to elements."""
    f_gen = {}
    for t in k.source.net.transitions:
        try:
            f_gen[t] = jsonio.elem_from_json(g.theory, json.loads(k.f[t]))
        except (json.JSONDecodeError, KeyError) as exc:
            raise QnetError(
                f"transition image {k.f.get(t)!r} is not a materialized element") from exc
    return GraphMorphism(free_edges(k.source), g, f_gen, dict(k.g))


def compose_reflexive(later: ReflexiveMorphism, earlier: ReflexiveMorphism) -> ReflexiveMorphism:
    if earlier.target != later.source:
        raise TheoryMismatchError("reflexive morphisms are not composable")
    h = compose(later.as_net_morphism(), earlier.as_net_morphism())
    return ReflexiveMorphism(earlier.source, later.target, h.f, h.g)


def enumerate_reflexive_morphisms(r1: ReflexiveQNet, r2: ReflexiveQNet) -> list[ReflexiveMorphism]:
    """Brute-force hom-set of reflexive morphisms, in the candidate order of
    :func:`~qnets.net.enumerate_morphisms`; for small nets only."""
    candidates = (ReflexiveMorphism(r1, r2, m.f, m.g) for m in enumerate_morphisms(r1.net, r2.net))
    # Every candidate is already a valid net morphism: only its squares are left.
    return [h for h in candidates if not _identity_squares(h)]
