"""Runnable property suites, shipped in the library so a build can certify
itself from the command line (``qnet check``).

Each suite draws seeded random cases, records one failure string per broken
law, and reports a result object; the acceptance tests reuse the same
functions with the case counts pinned there.
"""

from __future__ import annotations

import random

from . import freecat, symmetry
from .freecat import Comp, Gen, Ident, Oper
from .net import (
    ID_PREFIX,
    NetMorphism,
    QNet,
    apply_net_functor,
    compose,
    enumerate_morphisms,
    identity_morphism,
    validate_morphism,
    validate_net,
)
from .reflexive import (
    QGraph,
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
from .theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    _Record,
    check_canonical,
    combine,
    extend,
    invert,
    lift,
    multiset,
    neutral,
    translate,
    unit,
)

PLACE_POOL = ("a", "b", "c", "d")


class SuiteResult(_Record):
    """One suite's outcome; unlike the package's values, it is mutable and
    unhashable."""

    __slots__ = _fields = ("name", "cases", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, cases: int, failures: list[str] | None = None):
        self._init(name, cases, [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        if not condition and len(self.failures) < 20:
            self.failures.append(message)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def rand_elem(rng: random.Random, theory: Theory, places, max_size: int = 4) -> FreeElem:
    # One product of all the letters drawn: free reduction is confluent, so
    # this is the element a left fold of binary products would give.
    parts = []
    for _ in range(rng.randint(0, max_size)):
        e = unit(theory, rng.choice(places))
        if theory.ops.group and rng.random() < 0.4:
            e = invert(e)
        parts.append(e)
    return combine(theory, *parts)


def rand_map(rng: random.Random, src_places, tgt_places) -> dict[str, str]:
    return {p: rng.choice(list(tgt_places)) for p in src_places}


def rand_net(rng: random.Random, theory: Theory, max_places: int = 3,
             max_trans: int = 3, max_size: int = 3) -> QNet:
    places = PLACE_POOL[:rng.randint(1, max_places)]
    transitions = {}
    for i in range(rng.randint(0, max_trans)):
        transitions[f"t{i}"] = (rand_elem(rng, theory, places, max_size),
                                rand_elem(rng, theory, places, max_size))
    return QNet(theory, places, transitions)


def suite_monad(seed: int = 0, cases: int = 200) -> SuiteResult:
    """Unit/lift laws, monoid axioms, and canonical-form closure per theory."""
    result = SuiteResult("monad", cases * len(Theory))
    for theory in Theory:
        rng = _rng(seed, f"monad:{theory.value}")
        ops = theory.ops
        for i in range(cases):
            places = PLACE_POOL[:rng.randint(1, 4)]
            x = rand_elem(rng, theory, places)
            y = rand_elem(rng, theory, places)
            z = rand_elem(rng, theory, places)
            g = rand_map(rng, PLACE_POOL, PLACE_POOL)
            h = rand_map(rng, PLACE_POOL, PLACE_POOL)
            tag = f"{theory.value}#{i}"
            ident = {p: p for p in PLACE_POOL}
            result.check(lift(theory, ident, x) == x, f"{tag}: lift(id) != id")
            gh = {p: g[h[p]] for p in PLACE_POOL}
            result.check(lift(theory, gh, x) == lift(theory, g, lift(theory, h, x)),
                         f"{tag}: lift does not respect composition")
            p = rng.choice(places)
            result.check(lift(theory, g, unit(theory, p)) == unit(theory, g[p]),
                         f"{tag}: lift does not respect the unit")
            result.check(
                combine(theory, combine(theory, x, y), z)
                == combine(theory, x, combine(theory, y, z)),
                f"{tag}: combine is not associative")
            result.check(combine(theory, x, neutral(theory)) == x
                         and combine(theory, neutral(theory), x) == x,
                         f"{tag}: neutral is not a unit")
            if ops.commutative:
                result.check(combine(theory, x, y) == combine(theory, y, x),
                             f"{tag}: combine is not commutative")
            if ops.idempotent:
                result.check(combine(theory, x, x) == x, f"{tag}: combine is not idempotent")
            if ops.group:
                result.check(combine(theory, x, invert(x)) == neutral(theory),
                             f"{tag}: inverse law fails")
            for value in (x, combine(theory, x, y), lift(theory, g, x)):
                try:
                    check_canonical(value.theory, value.payload)
                except Exception as exc:  # canonical-form invariant
                    result.check(False, f"{tag}: non-canonical output ({exc})")
    return result


def suite_monadmorphism(seed: int = 0, cases: int = 200) -> SuiteResult:
    """Unit/combine preservation and naturality for each catalog arrow."""
    result = SuiteResult("monadmorphism", cases * len(TheoryArrow))
    for arrow in TheoryArrow:
        rng = _rng(seed, f"mm:{arrow.value}")
        for i in range(cases):
            places = PLACE_POOL[:rng.randint(1, 4)]
            x = rand_elem(rng, arrow.source, places)
            y = rand_elem(rng, arrow.source, places)
            g = rand_map(rng, PLACE_POOL, PLACE_POOL)
            tag = f"{arrow.value}#{i}"
            p = rng.choice(places)
            result.check(
                translate(arrow, unit(arrow.source, p)) == unit(arrow.target, p),
                f"{tag}: unit is not preserved")
            result.check(
                translate(arrow, combine(arrow.source, x, y))
                == combine(arrow.target, translate(arrow, x), translate(arrow, y)),
                f"{tag}: combine is not preserved")
            result.check(
                translate(arrow, lift(arrow.source, g, x))
                == lift(arrow.target, g, translate(arrow, x)),
                f"{tag}: naturality square fails")
    return result


def _pushforward(rng: random.Random, net: QNet, stage: str) -> NetMorphism:
    """A valid random morphism out of ``net`` built by transporting its arcs."""
    fresh = [f"{stage}{p}" for p in ("x", "y", "z", "w")]
    g = {p: rng.choice(fresh[:rng.randint(1, len(fresh))]) for p in net.places}
    places = tuple(sorted(set(g.values())))
    f = {t: f"{stage}.{t}" for t in net.transitions}
    transitions = {
        f[t]: (lift(net.theory, g, src), lift(net.theory, g, tgt))
        for t, (src, tgt) in net.transitions.items()
    }
    target = QNet(net.theory, places, transitions)
    return NetMorphism(net, target, f, g)


def suite_netfunctor(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Translation preserves identities, composites, and morphism validity."""
    result = SuiteResult("netfunctor", cases * len(TheoryArrow))
    for arrow in TheoryArrow:
        rng = _rng(seed, f"netf:{arrow.value}")
        for i in range(cases):
            tag = f"{arrow.value}#{i}"
            net = rand_net(rng, arrow.source)
            h1 = _pushforward(rng, net, "m")
            h2 = _pushforward(rng, h1.target, "n")
            result.check(not validate_morphism(h1) and not validate_morphism(h2),
                         f"{tag}: pushforward morphism is invalid")
            tnet = apply_net_functor(arrow, net)
            t1 = apply_net_functor(arrow, h1.target)
            t2 = apply_net_functor(arrow, h2.target)
            result.check(not validate_net(tnet), f"{tag}: translated net invalid")
            th1 = NetMorphism(tnet, t1, h1.f, h1.g)
            th2 = NetMorphism(t1, t2, h2.f, h2.g)
            result.check(not validate_morphism(th1) and not validate_morphism(th2),
                         f"{tag}: naturality transport fails")
            tid = NetMorphism(tnet, tnet, identity_morphism(net).f, identity_morphism(net).g)
            result.check(tid == identity_morphism(tnet),
                         f"{tag}: identity is not preserved")
            both = compose(h2, h1)
            tboth = NetMorphism(tnet, t2, both.f, both.g)
            result.check(tboth == compose(th2, th1),
                         f"{tag}: composition is not preserved")
    return result


def _adjunction_fixtures(theory: Theory) -> tuple[list[QNet], list[ReflexiveQNet]]:
    def elem(counts) -> FreeElem:
        if theory is Theory.CMON:
            return multiset(theory, counts)
        return FreeElem(theory, tuple(sorted(counts)))

    nets = [
        QNet(theory, (), {}),
        QNet(theory, ("a",), {}),
        QNet(theory, ("a", "b"), {"t": (elem({"a": 1}), elem({"b": 1}))}),
        QNet(theory, ("a",), {"t": (elem({"a": 2} if theory is Theory.CMON else {"a": 1}),
                                    elem({}))}),
        QNet(theory, ("a", "b"), {
            "t": (elem({"a": 1}), elem({"b": 1})),
            "u": (elem({"b": 1}), elem({"a": 1})),
        }),
    ]
    reflexives = [add_identities(n) for n in nets[1:4]]
    loop = QNet(theory, ("x",), {
        "iota": (unit(theory, "x"), unit(theory, "x")),
        "tau": (unit(theory, "x"), unit(theory, "x")),
    })
    reflexives.append(ReflexiveQNet(loop, {"x": "iota"}))
    two = QNet(theory, ("x", "y"), {
        "ix": (unit(theory, "x"), unit(theory, "x")),
        "iy": (unit(theory, "y"), unit(theory, "y")),
        "t": (elem({"x": 1}), elem({"y": 1})),
    })
    reflexives.append(ReflexiveQNet(two, {"x": "ix", "y": "iy"}))
    return nets, reflexives


def suite_adjA(seed: int = 0, cases: int = 0) -> SuiteResult:
    """Exhaustive hom-set bijection and transpose roundtrips on fixtures."""
    result = SuiteResult("adjA", 0)
    for theory in (Theory.CMON, Theory.SEMILAT):
        nets, reflexives = _adjunction_fixtures(theory)
        for pi, p in enumerate(nets):
            for ri, r in enumerate(reflexives):
                tag = f"{theory.value} P{pi} R{ri}"
                result.cases += 1
                upstairs = enumerate_reflexive_morphisms(add_identities(p), r)
                downstairs = enumerate_morphisms(p, forget_identities(r))
                result.check(len(upstairs) == len(downstairs),
                             f"{tag}: hom-set sizes {len(upstairs)} != {len(downstairs)}")
                down_set = {(tuple(sorted(k.f.items())), tuple(sorted(k.g.items())))
                            for k in downstairs}
                for h in upstairs:
                    k = restrict_morphism(h)
                    result.check(
                        (tuple(sorted(k.f.items())), tuple(sorted(k.g.items()))) in down_set,
                        f"{tag}: transpose leaves the hom-set")
                    result.check(extend_morphism(k, r) == h,
                                 f"{tag}: transpose roundtrip fails (from reflexive)")
                for k in downstairs:
                    h = extend_morphism(k, r)
                    result.check(not validate_reflexive_morphism(h),
                                 f"{tag}: extended morphism invalid")
                    result.check(restrict_morphism(h) == k,
                                 f"{tag}: transpose roundtrip fails (from net)")
        # Triangle identities: the unit is the transition inclusion, and the
        # counit is a valid reflexive morphism at prefix-free fixtures.
        for pi, p in enumerate(nets):
            ap = add_identities(p)
            unit_m = restrict_morphism(ReflexiveMorphism(
                ap, ap, {t: t for t in ap.net.transitions}, {x: x for x in ap.net.places}))
            result.check(not validate_morphism(unit_m),
                         f"{theory.value} P{pi}: adjunction unit is invalid")
            result.check(all(unit_m.f[t] == t for t in p.transitions),
                         f"{theory.value} P{pi}: adjunction unit is not the inclusion")
        for ri, r in enumerate(reflexives):
            if any(t.startswith(ID_PREFIX) for t in r.net.transitions):
                continue
            counit = extend_morphism(identity_morphism(r.net), r)
            result.check(not validate_reflexive_morphism(counit),
                         f"{theory.value} R{ri}: adjunction counit is invalid")
    # Naturality of the transpose in both arguments, on a one-transition case.
    theory = Theory.CMON
    nets, reflexives = _adjunction_fixtures(theory)
    m, p, r, k = nets[1], nets[2], reflexives[4], reflexives[3]
    pre = NetMorphism(m, p, {}, {"a": "a"})
    for h in enumerate_reflexive_morphisms(add_identities(p), r):
        for post in enumerate_reflexive_morphisms(r, k):
            left = restrict_morphism(
                compose_reflexive(post, compose_reflexive(h, add_identities_morphism(pre))))
            right = compose(post.as_net_morphism(), compose(restrict_morphism(h), pre))
            result.cases += 1
            result.check((left.f, left.g) == (right.f, right.g),
                         "naturality square of the transpose fails")
    return result


def _random_qgraph(rng: random.Random, theory: Theory) -> QGraph:
    base = rand_net(rng, theory, max_places=3, max_trans=2, max_size=2)
    graph = free_edges(add_identities(base))
    if rng.random() < 0.5:
        extra = dict(graph.src), dict(graph.tgt)
        name = "g.extra"
        extra[0][name] = rand_elem(rng, theory, base.places, 2)
        extra[1][name] = rand_elem(rng, theory, base.places, 2)
        return QGraph(theory, graph.generators + (name,), graph.places,
                      extra[0], extra[1], dict(graph.ident))
    return graph


def suite_adjB(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Randomized generator-image transposes roundtrip and validate."""
    result = SuiteResult("adjB", cases)
    rng = _rng(seed, "adjB")
    theories = list(Theory)
    for i in range(cases):
        theory = theories[i % len(theories)]
        tag = f"{theory.value}#{i}"
        graph = _random_qgraph(rng, theory)
        if validate_qgraph(graph):
            result.check(False, f"{tag}: fixture graph invalid")
            continue
        renamed = [f"p{j}" for j in range(len(graph.places))]
        order = list(graph.places)
        rng.shuffle(order)
        g = dict(zip(renamed, order))
        ginv = {v: k for k, v in g.items()}
        trans = {}
        images = {}
        for j in range(rng.randint(1, 2)):
            u = rand_elem(rng, theory, graph.generators, 2)
            name = f"t{j}"
            images[name] = u
            trans[name] = (
                lift(theory, ginv, extend(theory, graph.src, u)),
                lift(theory, ginv, extend(theory, graph.tgt, u)),
            )
        r = add_identities(QNet(theory, tuple(renamed), trans))
        view = underlying_reflexive(graph, images.values())
        f = {name: elem_transition_name(u) for name, u in images.items()}
        for p in renamed:
            f[ID_PREFIX + p] = elem_transition_name(graph.ident[g[p]])
        k = ReflexiveMorphism(r, view, f, g)
        result.check(not validate_reflexive(r), f"{tag}: fixture reflexive net invalid")
        result.check(not validate_reflexive_morphism(k), f"{tag}: fixture morphism invalid")
        h = net_to_graph_transpose(k, graph)
        result.check(not validate_graph_morphism(h), f"{tag}: transposed graph morphism invalid")
        k2 = graph_to_net_transpose(h, r)
        result.check(k2 == k, f"{tag}: transpose roundtrip (net side) fails")
        h2 = net_to_graph_transpose(k2, graph)
        result.check(h2 == h, f"{tag}: transpose roundtrip (graph side) fails")
    return result


def _freecat_fixture_nets() -> list[QNet]:
    cm = Theory.CMON
    return [
        QNet(cm, ("a", "b", "c"), {
            "t": (multiset(cm, {"a": 1}), multiset(cm, {"b": 1})),
            "u": (multiset(cm, {"b": 1}), multiset(cm, {"c": 1})),
        }),
        QNet(cm, ("a",), {
            "t": (multiset(cm, {"a": 1}), multiset(cm, {"a": 1})),
            "u": (multiset(cm, {"a": 1}), multiset(cm, {"a": 1})),
        }),
        QNet(Theory.MON, ("a", "b"), {
            "t": (FreeElem(Theory.MON, ("a",)), FreeElem(Theory.MON, ("b",))),
            "u": (FreeElem(Theory.MON, ("b",)), FreeElem(Theory.MON, ("a",))),
        }),
        QNet(Theory.SEMILAT, ("a", "b"), {
            "t": (FreeElem(Theory.SEMILAT, ("a",)), FreeElem(Theory.SEMILAT, ("b",))),
            "u": (FreeElem(Theory.SEMILAT, ("a", "b")), FreeElem(Theory.SEMILAT, ("a",))),
        }),
        QNet(Theory.ABGRP, ("a", "b"), {
            "t": (multiset(Theory.ABGRP, {"a": 1}), multiset(Theory.ABGRP, {"b": 1})),
            "u": (multiset(Theory.ABGRP, {"b": 2}), multiset(Theory.ABGRP, {"a": 1})),
        }),
    ]


def suite_freecat(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Layering soundness plus hallmark process equalities per theory."""
    result = SuiteResult("freecat", cases)
    rng = _rng(seed, "freecat")
    nets = _freecat_fixture_nets()
    chain, loop, mon, semi, intnet = nets

    t = Gen("t")
    unit_law = freecat.mor_equal(
        Comp(Ident(freecat.mor_tgt(t, chain)), t), t, chain)
    result.check(unit_law.is_equal, "unit law failed on the chain fixture")
    both = Oper("combine", (Gen("t"), Gen("u")))
    seq = Comp(
        Oper("combine", (Gen("u"), Ident(multiset(Theory.CMON, {"b": 1})))),
        Oper("combine", (Gen("t"), Ident(multiset(Theory.CMON, {"b": 1})))))
    interchange = freecat.mor_equal(both, seq, chain)
    result.check(interchange.is_equal, "interchange instance failed")
    ordered = freecat.mor_equal(Comp(Gen("u"), Gen("t")), Comp(Gen("t"), Gen("u")), loop)
    result.check(ordered.is_distinct, "non-commuting composites compared equal")
    idem = freecat.mor_equal(Oper("combine", (Gen("t"), Gen("t"))), Gen("t"), semi)
    result.check(idem.is_equal, "idempotent parallel duplication failed")
    cancel = freecat.mor_equal(
        Oper("combine", (Gen("t"), Oper("invert", (Gen("t"),)))),
        Ident(neutral(Theory.ABGRP)), intnet)
    result.check(cancel.is_equal, "group cancellation failed")

    for i in range(cases):
        net = nets[i % len(nets)]
        term = _rand_term(rng, net)
        tag = f"{net.theory.value}#{i}"
        src = freecat.mor_src(term, net)
        tgt = freecat.mor_tgt(term, net)
        form = freecat.layered(term, net)
        ctx = freecat._context(net)
        result.check(form.start == src, f"{tag}: layered form changes the source")
        result.check(freecat.form_tgt(form, ctx) == tgt, f"{tag}: layered form changes the target")
        for ids in freecat._neighbors(ctx.number(form.layers), ctx):
            neighbor = ctx.form(form.start, ids)
            result.check(freecat.form_tgt(neighbor, ctx) == tgt,
                         f"{tag}: a rewrite move changes the endpoints")
        result.check(freecat.mor_equal(term, term, net).is_equal,
                     f"{tag}: term is not equal to itself")

    m0 = multiset(Theory.CMON, {"a": 2})
    reach = freecat.reachable(chain, m0, 2)
    for marking in reach.markings:
        classes = freecat.hom_enumerate(chain, m0, marking, 2, 4)
        result.check(bool(classes), "reachable marking has an empty hom-set")
    result.check(freecat.hom_nonempty_group(intnet, multiset(Theory.ABGRP, {"b": 1}),
                                            multiset(Theory.ABGRP, {"a": 1})),
                 "lattice test rejects an invertible firing")
    return result


def _rand_term(rng: random.Random, net: QNet):
    theory = net.theory
    names = sorted(net.transitions)
    term = Gen(rng.choice(names))
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.4:
            term = Oper("combine", (term, Gen(rng.choice(names))))
        elif kind < 0.6:
            term = Oper("combine", (term, Ident(rand_elem(rng, theory, net.places, 2))))
        elif kind < 0.8 and theory is not Theory.MON:
            tgt = freecat.mor_tgt(term, net)
            name = rng.choice(names)
            src, _ = net.transitions[name]
            frame = _frame_over(tgt, src)
            if frame is None:
                continue
            step = Oper("combine", (Gen(name), Ident(frame))) if frame.payload else Gen(name)
            if freecat.mor_src(step, net) == tgt:
                term = Comp(step, term)
        elif theory.ops.group:
            term = Oper("invert", (term,))
    return term


def _frame_over(marking: FreeElem, consumed: FreeElem) -> FreeElem | None:
    """The smallest frame that ``consumed`` leaves of ``marking``, if any."""
    rest = next(marking.theory.ops.residuals(marking.payload, consumed.payload), None)
    return None if rest is None else FreeElem(marking.theory, rest)


def suite_symmetry(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Braiding axioms, naturality slides, and linearization counting."""
    result = SuiteResult("symmetry", cases)
    rng = _rng(seed, "symmetry")
    mon = Theory.MON
    prenet = QNet(mon, ("a", "b"), {
        "t": (FreeElem(mon, ("a",)), FreeElem(mon, ("b",))),
        "u": (FreeElem(mon, ("a", "b")), FreeElem(mon, ("a",))),
    })
    for i in range(cases):
        tag = f"#{i}"
        x = rand_elem(rng, mon, prenet.places, 2)
        y = rand_elem(rng, mon, prenet.places, 2)
        gamma = symmetry.braiding(x, y)
        gamma_back = symmetry.braiding(y, x)
        square = symmetry.sym_equal(
            Comp(gamma_back, gamma), Ident(combine(mon, x, y)), prenet)
        result.check(square.is_equal, f"{tag}: braid squared is not the identity")
        unit_braid = symmetry.sym_equal(
            symmetry.braiding(x, neutral(mon)), Ident(x), prenet)
        result.check(unit_braid.is_equal, f"{tag}: unit braiding is not the identity")
        tau = Gen("t")
        lhs = Comp(symmetry.braiding(FreeElem(mon, ("b",)), x),
                   Oper("combine", (tau, Ident(x)))) if x.payload else None
        if lhs is not None:
            rhs = Comp(Oper("combine", (Ident(x), tau)),
                       symmetry.braiding(FreeElem(mon, ("a",)), x))
            nat = symmetry.sym_equal(lhs, rhs, prenet)
            result.check(nat.is_equal, f"{tag}: naturality slide failed")
        cmnet = rand_net(rng, Theory.CMON, max_places=3, max_trans=2, max_size=3)
        lins = symmetry.linearizations(cmnet)
        result.check(len(lins) == symmetry.linearization_count(cmnet),
                     f"{tag}: linearization count formula disagrees")
        for lin in lins[:3]:
            back = apply_net_functor(TheoryArrow.ABELIANIZE, lin)
            result.check(back == cmnet, f"{tag}: linearization does not abelianize back")
        summed = symmetry.linearization_sum(cmnet)
        result.check(len(summed.transitions)
                     == len(lins) * len(cmnet.transitions),
                     f"{tag}: summed net has the wrong transition count")
    return result


# The `monad` entry covers the translation (monad-morphism) laws as well, so
# the command-line suite names stay a closed six-name set, run in this order.
SUITES = {
    "monad": (suite_monad, suite_monadmorphism),
    "netfunctor": (suite_netfunctor,),
    "adjA": (suite_adjA,),
    "adjB": (suite_adjB,),
    "freecat": (suite_freecat,),
    "symmetry": (suite_symmetry,),
}


def run_suites(names, seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    results = []
    for name in names:
        for fn in SUITES[name]:
            if cases is None:
                results.append(fn(seed=seed))
            else:
                results.append(fn(seed=seed, cases=cases))
    return results
