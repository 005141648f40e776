"""Nets over a theory, their morphisms, translations, and binary (co)products.

A net is a finite set of places plus transitions whose source and target are
canonical free-model elements over those places. Morphisms are pairs of name
maps whose two squares (source and target against the lifted place map) must
commute; violations are reported as diagnostics rather than exceptions.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator

from .theory import (
    FreeElem,
    QnetError,
    Theory,
    TheoryArrow,
    TheoryMismatchError,
    UnmappedNameError,
    UnsupportedOperationError,
    _Record,
    lift,
    multiset,
    translate,
    word,
)

# Transitions named with this prefix stand for identities: reflexive nets add
# one per place, and the free category reserves the prefix for its units.
ID_PREFIX = "id."

DEFAULT_BUDGET = 10_000


def default_budget() -> int:
    """Bound on every enumeration and search that grows with its input (the
    README's ``QNET_BUDGET`` paragraph lists them): the QNET_BUDGET env var,
    else ``DEFAULT_BUDGET``; it must be a positive integer."""
    raw = os.environ.get("QNET_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise QnetError(f"QNET_BUDGET must be a positive integer, got {raw!r}")
    return budget


def over_budget(bound: int, what: str, unit: str, error: type = QnetError) -> QnetError:
    """The error to raise once ``what`` passes its :func:`default_budget`."""
    return error(f"{what} more than {bound} {unit}; QNET_BUDGET raises the bound")


class InvalidNetError(QnetError):
    pass


class QNet(_Record):
    # No __slots__: the process semantics keeps a validated context with move
    # tables on each net it decides on (``_ctx``, in the net's __dict__);
    # pickle and copy carry the fields alone.
    _fields = ("theory", "places", "transitions")


class NetMorphism(_Record):
    __slots__ = _fields = ("source", "target", "f", "g")


def validate_net(net: QNet) -> list[str]:
    """Diagnostics for declared-place and theory violations; empty iff valid."""
    diags = []
    if len(set(net.places)) != len(net.places):
        diags.append("duplicate place names")
    declared = set(net.places)
    for name, (src, tgt) in net.transitions.items():
        for role, elem in (("src", src), ("tgt", tgt)):
            if elem.theory is not net.theory:
                diags.append(f"transition {name!r} {role} has theory {elem.theory.value},"
                             f" net is {net.theory.value}")
                continue
            undeclared = elem.atoms() - declared
            if undeclared:
                diags.append(f"transition {name!r} {role} mentions undeclared places"
                             f" {sorted(undeclared)}")
    return diags


def validate_morphism(h: NetMorphism) -> list[str]:
    """Per-transition counterexamples to the two commuting squares."""
    missing_t = set(h.source.transitions) - set(h.f)
    missing_p = set(h.source.places) - set(h.g)
    if missing_t or missing_p:
        raise UnmappedNameError(
            f"partial morphism: unmapped transitions {sorted(missing_t)},"
            f" unmapped places {sorted(missing_p)}")
    diags = []
    if h.source.theory is not h.target.theory:
        diags.append(f"theory mismatch: {h.source.theory.value} vs {h.target.theory.value}")
        return diags
    target_places = set(h.target.places)
    for p in h.source.places:
        if h.g[p] not in target_places:
            diags.append(f"place {p!r} maps to undeclared {h.g[p]!r}")
    for name in h.source.transitions:
        if h.f[name] not in h.target.transitions:
            diags.append(f"transition {name!r} maps to unknown {h.f[name]!r}")
    if diags:
        return diags
    for name, (src, tgt) in h.source.transitions.items():
        img_src, img_tgt = h.target.transitions[h.f[name]]
        want_src = lift(h.source.theory, h.g, src)
        want_tgt = lift(h.source.theory, h.g, tgt)
        if img_src != want_src:
            diags.append(f"source square fails at {name!r}: image has {img_src.payload},"
                         f" lifted source is {want_src.payload}")
        if img_tgt != want_tgt:
            diags.append(f"target square fails at {name!r}: image has {img_tgt.payload},"
                         f" lifted target is {want_tgt.payload}")
    return diags


def identity_morphism(net: QNet) -> NetMorphism:
    return NetMorphism(net, net,
                       {t: t for t in net.transitions},
                       {p: p for p in net.places})


def compose(later: NetMorphism, earlier: NetMorphism) -> NetMorphism:
    """Componentwise composition; ``earlier`` is applied first."""
    if earlier.target != later.source:
        raise TheoryMismatchError("morphisms are not composable")
    return NetMorphism(
        earlier.source, later.target,
        {t: later.f[earlier.f[t]] for t in earlier.f},
        {p: later.g[earlier.g[p]] for p in earlier.g},
    )


def apply_net_functor(arrow: TheoryArrow, net: QNet) -> QNet:
    """Translate every arc along a catalog arrow, keeping all names."""
    if net.theory is not arrow.source:
        raise TheoryMismatchError(
            f"arrow {arrow.value} starts at {arrow.source.value}, net is {net.theory.value}")
    transitions = {
        name: (translate(arrow, src), translate(arrow, tgt))
        for name, (src, tgt) in net.transitions.items()
    }
    return QNet(arrow.target, net.places, transitions)


def coproduct(p1: QNet, p2: QNet) -> tuple[QNet, NetMorphism, NetMorphism]:
    """Disjoint union with ``L.``/``R.`` name tags; returns both injections."""
    if p1.theory is not p2.theory:
        raise TheoryMismatchError("coproduct needs a shared theory")
    th = p1.theory
    places, transitions, maps = (), {}, []
    for p, tag in ((p1, "L."), (p2, "R.")):
        g = {x: tag + x for x in p.places}
        f = {name: tag + name for name in p.transitions}
        places += tuple(g[x] for x in p.places)
        for name, (src, tgt) in p.transitions.items():
            transitions[f[name]] = (lift(th, g, src), lift(th, g, tgt))
        maps.append((f, g))
    out = QNet(th, places, transitions)
    return out, NetMorphism(p1, out, *maps[0]), NetMorphism(p2, out, *maps[1])


def _pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def _count_tables(rows: list[tuple[str, int]], cols: list[tuple[str, int]]) -> Iterator[dict]:
    """All nonnegative integer tables with the given row and column sums, in
    lexicographic order of their cells read row by row.

    Cells are filled from an explicit stack. A cell takes at least what its
    row cannot leave to the later columns, so every partial table completes
    and the work follows the number of tables."""
    if sum(c for _, c in rows) != sum(c for _, c in cols):
        return
    # Worklist of (cell index, what its row has left, column sums left,
    # nonzero cells); a row's first cell starts from the row sum.
    stack = [(0, 0, tuple(c for _, c in cols), ())]
    while stack:
        k, left, rem, cells = stack.pop()
        i, j = divmod(k, len(cols)) if cols else (len(rows), 0)
        if i == len(rows):
            yield dict(cells)
            continue
        if j == 0:
            left = rows[i][1]
        name = _pair_name(rows[i][0], cols[j][0])
        for v in range(min(left, rem[j]), max(0, left - sum(rem[j + 1:])) - 1, -1):
            stack.append((k + 1, left - v, rem[:j] + (rem[j] - v,) + rem[j + 1:],
                          cells + ((name, v),) if v else cells))


def _marginal_fiber(th: Theory, a: FreeElem, b: FreeElem) -> Iterator[FreeElem]:
    """All elements over paired places projecting to ``a`` and ``b``, made
    one at a time, so a caller can stop early."""
    ops = th.ops
    if not ops.commutative:
        if len(a.payload) == len(b.payload):
            yield word(_pair_name(x, y) for x, y in zip(a.payload, b.payload))
        return
    if not ops.idempotent:
        for table in _count_tables(list(a.payload), list(b.payload)):
            yield multiset(th, table)
        return
    # Relations that cover both sets, pair by pair from an explicit stack. A
    # pair is left out only while the pairs kept or still to come cover both
    # of its places (``xs``/``ys`` count them), so every branch ends in a
    # relation and the work follows the number of relations, not 2^(|a|*|b|).
    a, b = a.payload, b.payload
    if bool(a) != bool(b):  # no relation covers one empty side and not the other
        return
    stack = [(0, (len(b),) * len(a), (len(a),) * len(b), ())]
    while stack:
        k, xs, ys, kept = stack.pop()
        if k == len(a) * len(b):
            yield FreeElem(th, tuple(sorted(kept)))
            continue
        i, j = divmod(k, len(b))
        stack.append((k + 1, xs, ys, kept + (_pair_name(a[i], b[j]),)))
        if xs[i] > 1 and ys[j] > 1:
            stack.append((k + 1, xs[:i] + (xs[i] - 1,) + xs[i + 1:],
                          ys[:j] + (ys[j] - 1,) + ys[j + 1:], kept))


def product(p1: QNet, p2: QNet) -> tuple[QNet, NetMorphism, NetMorphism]:
    """Categorical product for theories whose marginal fibers are finite.

    Transitions are one per pair of input transitions and per pair of
    source/target fiber elements. ABGRP and GRP are rejected: the fiber over a
    pair of markings is infinite there, so the product net has infinitely many
    transitions. So is a product of more than :func:`default_budget`
    transitions, found before more than that many fiber elements are built,
    and one whose pair names, ``(x,y)`` and ``(n1,n2)@k``, coincide.
    """
    if p1.theory is not p2.theory:
        raise TheoryMismatchError("product needs a shared theory")
    th = p1.theory
    if th.ops.group:
        raise UnsupportedOperationError(
            f"product over {th.value} is not finitely representable")
    g1, g2 = {}, {}
    for x, y in itertools.product(p1.places, p2.places):
        name = _pair_name(x, y)
        if name in g1:
            raise UnsupportedOperationError(f"two product places are named {name!r}")
        g1[name], g2[name] = x, y
    places = tuple(g1)
    budget = default_budget()
    transitions = {}
    f1, f2 = {}, {}
    for n1, (s1, t1) in sorted(p1.transitions.items()):
        for n2, (s2, t2) in sorted(p2.transitions.items()):
            # Each fiber is made only as far as the bound needs; an empty
            # source fiber leaves the target fiber unmade.
            left = budget - len(transitions)
            srcs = list(itertools.islice(_marginal_fiber(th, s1, s2), left + 1))
            if not srcs:
                continue
            tgts = list(itertools.islice(_marginal_fiber(th, t1, t2), left // len(srcs) + 1))
            if len(srcs) * len(tgts) > left:
                raise over_budget(budget, "the product has", "transitions",
                                  UnsupportedOperationError)
            srcs.sort(key=lambda e: e.payload)
            tgts.sort(key=lambda e: e.payload)
            for k, (u, v) in enumerate(itertools.product(srcs, tgts)):
                name = f"{_pair_name(n1, n2)}@{k}"
                if name in transitions:
                    raise UnsupportedOperationError(f"two product transitions are named {name!r}")
                transitions[name] = (u, v)
                f1[name] = n1
                f2[name] = n2
    out = QNet(th, places, transitions)
    return out, NetMorphism(out, p1, f1, g1), NetMorphism(out, p2, f2, g2)


def enumerate_morphisms(p: QNet, q: QNet) -> list[NetMorphism]:
    """The full hom-set, for small nets in tests and suites. For each place
    map, a transition of ``p`` may go to each transition of ``q`` whose arcs
    are its lifted arcs, so both squares commute, and the transition maps are
    the product of those choices. More than :func:`default_budget` place
    maps is an error, found before any is tried."""
    if p.theory is not q.theory:
        return []
    src_trans = sorted(p.transitions)
    tgt_trans = sorted(q.transitions)
    if src_trans and not tgt_trans:
        return []
    budget, maps = default_budget(), 1
    for _ in p.places:
        maps *= len(q.places)
        if maps > budget:
            raise over_budget(budget, "enumerating morphisms tries", "place maps")
    out = []
    for g_imgs in itertools.product(q.places, repeat=len(p.places)):
        g = dict(zip(p.places, g_imgs))
        lifted = {name: (lift(p.theory, g, src), lift(p.theory, g, tgt))
                  for name, (src, tgt) in p.transitions.items()}
        choices = [[t for t in tgt_trans if q.transitions[t] == lifted[name]]
                   for name in src_trans]
        out += [NetMorphism(p, q, dict(zip(src_trans, f_imgs)), g)
                for f_imgs in itertools.product(*choices)]
    return out
