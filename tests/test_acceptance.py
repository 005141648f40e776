"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Time limits are asserted as stated; randomized suites use a pinned
seed so the gate is reproducible.
"""

import itertools
import time
from contextlib import contextmanager

from qnets import freecat, suites, symmetry
from qnets.freecat import Comp, Gen, Ident, LayeredForm, Oper, layered_to_term
from qnets.net import apply_net_functor
from qnets.theory import (
    Theory,
    TheoryArrow,
    combine,
    invert,
    multiset,
    neutral,
    translate,
    unit,
    word,
)

from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    INTEGER_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
    cmon,
    intvec,
    petri,
    prenet,
    words_up_to,
)
from oracle_rewrite import oracle_equal
from oracle_tokengame import cmon_reachable

SEED = 20240801


@contextmanager
def criterion(number, name, limit_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"[criterion {number:02d}] {name}: PASS ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_monad_laws():
    with criterion(1, "monad laws per theory", 5):
        result = suites.suite_monad(seed=SEED, cases=200)
        assert result.ok, result.failures


def test_criterion_02_monad_morphisms():
    with criterion(2, "monad morphisms per arrow", 5):
        result = suites.suite_monadmorphism(seed=SEED, cases=200)
        assert result.ok, result.failures


def test_criterion_03_net_functoriality():
    with criterion(3, "net translation functoriality", 5):
        result = suites.suite_netfunctor(seed=SEED, cases=100)
        assert result.ok, result.failures


def test_criterion_04_adjunction_identities_bijection():
    with criterion(4, "identity-adjunction hom bijection", 60):
        result = suites.suite_adjA(seed=SEED)
        assert result.cases >= 50
        assert result.ok, result.failures


def test_criterion_05_adjunction_graph_transpose():
    with criterion(5, "graph-adjunction transpose roundtrips", 10):
        result = suites.suite_adjB(seed=SEED, cases=100)
        assert result.ok, result.failures


def _path_terms(net, max_layers=2, max_gens=3):
    """Deterministic family of process terms with at most ``max_gens``
    generator occurrences, built from firing paths out of the arc markings."""
    ctx = freecat._context(net)
    arcs = [arc for pair in net.transitions.values() for arc in pair]
    starts = list(arcs)
    for left, right in itertools.combinations(arcs, 2):
        starts.append(combine(net.theory, left, right))
    seen_starts = []
    for m in starts:
        if m not in seen_starts and m.size() <= 4:
            seen_starts.append(m)
    forms = []

    def gens_in(layer):
        return sum(abs(c) for name, c in
                   freecat.occurrences(layer).items()
                   if not name.startswith("id."))

    def walk(start, marking, acc, used):
        forms.append(LayeredForm(start, tuple(acc)))
        if len(acc) == max_layers:
            return
        for layer in freecat._step_layers(ctx, marking, max_gens - used):
            cost = gens_in(layer)
            if used + cost <= max_gens:
                walk(start, freecat._layer_tgt(layer, ctx), acc + [layer], used + cost)

    for m in seen_starts:
        walk(m, m, [], 0)
    terms = []
    for form in forms:
        term = layered_to_term(form, net)
        terms.append(term)
        if form.layers:
            terms.append(Comp(Ident(freecat.form_tgt(form, ctx)), term))
    unique = []
    for term in terms:
        if term not in unique:
            unique.append(term)
    return unique[:26]


def _abgrp_terms(net):
    names = sorted(net.transitions)
    th = net.theory
    pieces = [Gen(n) for n in names] + [Oper("invert", (Gen(n),)) for n in names]
    terms = list(pieces)
    for a, b in itertools.combinations(pieces, 2):
        terms.append(Oper("combine", (a, b)))
        terms.append(Oper("combine", (b, a)))
    for a in pieces[:2]:
        for b in pieces[:2]:
            # Sequential composition with a borrowing frame between the steps.
            mid = freecat.mor_tgt(a, net)
            need = freecat.mor_src(b, net)
            frame = combine(th, mid, invert(need))
            step = Oper("combine", (b, Ident(frame)))
            terms.append(Comp(step, a))
    terms.append(Ident(neutral(th)))
    terms.append(Ident(unit(th, net.places[0])))
    return terms[:26]


def test_criterion_06_rewrite_oracle_agreement():
    with criterion(6, "process equality matches the exhaustive oracle", 120):
        compared = 0
        for net in EQUALITY_NETS:
            if net.theory is Theory.ABGRP:
                terms = _abgrp_terms(net)
            else:
                terms = _path_terms(net)
            assert terms, "fixture produced no terms"
            for i, t1 in enumerate(terms):
                for t2 in terms[i:]:
                    verdict = freecat.mor_equal(t1, t2, net)
                    assert not verdict.is_unknown, (net.theory, t1, t2)
                    expected = oracle_equal(t1, t2, net)
                    assert verdict.is_equal == expected, (net.theory, t1, t2)
                    compared += 1
        assert compared >= 1000


def test_criterion_07_token_game_consistency():
    with criterion(7, "multiset token game matches the oracle", 30):
        for net in TOKEN_GAME_NETS:
            arcs = {name: (dict(src.payload), dict(tgt.payload))
                    for name, (src, tgt) in net.transitions.items()}
            markings = [dict(src.payload) for src, _ in net.transitions.values()]
            markings.append({p: 1 for p in net.places[:2]})
            doubled = {}
            for m in markings[:1]:
                doubled = {p: 2 * c for p, c in m.items()}
            markings.append(doubled)
            for m0 in markings:
                for steps in range(5):
                    ours = freecat.reachable(net, multiset(Theory.CMON, m0), steps)
                    got = {frozenset(m.payload) for m in ours.markings}
                    want = cmon_reachable(arcs, m0, steps)
                    assert got == want, (net, m0, steps)


def test_criterion_08_abelianization_inclusion():
    with criterion(8, "abelianization includes word reachability", 10):
        for net in PRE_NETS:
            image = apply_net_functor(TheoryArrow.ABELIANIZE, net)
            starts = [src for src, _ in net.transitions.values()]
            starts.append(word("".join(net.places)))
            for w0 in starts:
                for steps in (1, 2, 3):
                    words = freecat.reachable(net, w0, steps).markings
                    lifted = freecat.reachable(
                        image, translate(TheoryArrow.ABELIANIZE, w0), steps).markings
                    for m in words:
                        assert translate(TheoryArrow.ABELIANIZE, m) in lifted
        witness = prenet("abc", {"t": ("aa", "c")})
        word_side = freecat.reachable(witness, word("aba"), 3).markings
        assert set(word_side) == {word("aba")}
        lifted = freecat.reachable(
            apply_net_functor(TheoryArrow.ABELIANIZE, witness),
            cmon({"a": 2, "b": 1}), 3).markings
        strict = {translate(TheoryArrow.ABELIANIZE, m) for m in word_side}
        assert strict < set(lifted), "inclusion must be proper on the witness"


def _bounded_group_search(net, x, y, depth=4):
    effects = []
    for src, tgt in net.transitions.values():
        effects.append(combine(Theory.ABGRP, tgt, invert(src)))
    frontier = {x}
    seen = {x}
    for _ in range(depth):
        new = set()
        for m in frontier:
            for eff in effects:
                for move in (eff, invert(eff)):
                    m2 = combine(Theory.ABGRP, m, move)
                    if m2 not in seen and m2.size() <= 8:
                        new.add(m2)
        seen |= new
        frontier = new
    return y in seen


def test_criterion_09_group_lattice_agreement():
    with criterion(9, "integer lattice test agrees with bounded search", 30):
        for net in INTEGER_NETS:
            markings = [neutral(Theory.ABGRP)]
            markings += [unit(Theory.ABGRP, p) for p in net.places]
            markings += [arc for pair in net.transitions.values() for arc in pair]
            pairs = list(itertools.product(markings, markings))[:40]
            for x, y in pairs:
                found = _bounded_group_search(net, x, y)
                exact = freecat.hom_nonempty_group(net, x, y)
                if found:
                    assert exact, (net, x, y)
                if not exact:
                    assert not found, (net, x, y)
        parity = INTEGER_NETS[0]
        assert not freecat.hom_nonempty_group(parity, intvec({"a": 1}), intvec({}))
        assert not _bounded_group_search(parity, intvec({"a": 1}), intvec({}))
        invertible = INTEGER_NETS[1]
        assert freecat.hom_nonempty_group(invertible, intvec({"b": 1}), intvec({"a": 1}))
        assert _bounded_group_search(invertible, intvec({"b": 1}), intvec({"a": 1}))


def test_criterion_10_semilat_idempotence():
    with criterion(10, "set-marked duplication is idempotent", 5):
        assert len(ELEMENTARY_NETS) == 5
        for net in ELEMENTARY_NETS:
            for name in net.transitions:
                doubled = Oper("combine", (Gen(name), Gen(name)))
                assert freecat.mor_equal(doubled, Gen(name), net).is_equal
            for src, _ in net.transitions.values():
                for steps in (1, 2):
                    for m in freecat.reachable(net, src, steps).markings:
                        assert list(m.payload) == sorted(set(m.payload))


def test_criterion_11_symmetry_axioms():
    with criterion(11, "braiding axioms and naturality", 30):
        for net in SYMMETRY_NETS:
            words = words_up_to(net.places, 4)
            for x in words:
                for y in words:
                    if x.size() + y.size() > 4:
                        continue
                    gamma = symmetry.braiding(x, y)
                    back = symmetry.braiding(y, x)
                    assert symmetry.sym_equal(
                        Comp(back, gamma),
                        Ident(combine(Theory.MON, x, y)), net).is_equal
                if x.size() <= 4:
                    assert symmetry.sym_equal(
                        symmetry.braiding(x, word("")), Ident(x), net).is_equal
            for name, (src, tgt) in net.transitions.items():
                for u in words:
                    if src.size() + u.size() > 4 or u.size() == 0:
                        continue
                    lhs = Comp(symmetry.braiding(tgt, u),
                               Oper("combine", (Gen(name), Ident(u))))
                    rhs = Comp(Oper("combine", (Ident(u), Gen(name))),
                               symmetry.braiding(src, u))
                    assert symmetry.sym_equal(lhs, rhs, net).is_equal, (net, name, u)


def test_criterion_12_linearization_counts():
    with criterion(12, "linearization counting", 5):
        example = petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1})})
        lins = symmetry.linearizations(example)
        assert len(lins) == 3
        assert len({tuple(sorted((n, arcs) for n, arcs in l.transitions.items()))
                    for l in lins}) == 3
        fixtures = [
            example,
            petri("ab", {"t": ({"a": 4}, {})}),
            petri("ab", {"t": ({"a": 2, "b": 2}, {"a": 1})}),
            petri("abcd", {"t": ({"a": 1, "b": 1, "c": 1}, {"d": 1}),
                           "u": ({"d": 2}, {"a": 1, "b": 1})}),
            petri("a", {}),
        ]
        for net in fixtures:
            for _, (src, tgt) in net.transitions.items():
                assert src.size() <= 4 and tgt.size() <= 4
            assert len(symmetry.linearizations(net)) \
                == symmetry.linearization_count(net)
