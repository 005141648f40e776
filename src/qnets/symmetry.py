"""Freely added symmetries for word-marked nets, and linearizations.

Symmetries are represented extensionally as position permutations of a word
marking, so permutation composition and the braid axioms hold definitionally.
A symmetric process is an ordinary :class:`~qnets.freecat.LayeredForm` whose
layers may include permutation layers; the interesting interaction is sliding
a firing layer past a permutation, which the equality search performs in both
directions.

Linearization sends a multiset-marked net to the word-marked nets in its
abelianization preimage: every ordering of every arc payload.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from . import freecat

# Perm, SymTerm and perm_tgt live with the term fold in freecat and are part
# of this module's interface as well.
from .freecat import (
    Comp,
    EqVerdict,
    Gen,
    Ident,
    IllTypedTermError,
    LayeredForm,
    MorTerm,
    Perm,
    SymTerm,
    _check_perm,
    _context,
    _rebuild_oper,
    perm_tgt,
)
from .net import QNet, default_budget, over_budget
from .theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    UnsupportedOperationError,
    combine,
    translate,
)


def braiding(x: FreeElem, y: FreeElem) -> Perm:
    """The block swap x.y -> y.x."""
    if x.theory is not y.theory or x.theory.ops.commutative:
        raise UnsupportedOperationError("braiding is defined for word markings")
    word = combine(x.theory, x, y)
    if len(word.payload) != len(x.payload) + len(y.payload):
        raise UnsupportedOperationError(
            "braiding across a cancelling boundary is not representable letterwise")
    n, m = len(x.payload), len(y.payload)
    mapping = tuple(i + m for i in range(n)) + tuple(j for j in range(m))
    perm = Perm(word, mapping)
    _check_perm(perm, x.theory)
    return perm


def sym_layered(t: SymTerm, net: QNet) -> LayeredForm:
    """The layered form of a symmetric term, read off its layer ids on the net's
    context: a :class:`LayeredForm` whose layers may include :class:`Perm` leaves."""
    ctx = _context(net)
    return ctx.form(*freecat._layered_ctx(t, ctx, True)[:2])


def _sym_neighbors(form: tuple[int, ...], ctx) -> Iterator[tuple[int, ...]]:
    """Every move of a symmetric form, as layer ids: :func:`freecat._neighbors` uncapped.
    ``sym_equal`` no longer calls it; ``perfbench/tracer.py`` counts it by name."""
    return freecat._neighbors(form, ctx)


def sym_equal(t1: SymTerm, t2: SymTerm, net: QNet) -> EqVerdict:
    """Equality in the freely symmetrized category on a word-marked net.

    ``Distinct`` comes only from invariants (endpoints, generator counts);
    the search certifies ``Equal`` and otherwise reports ``Unknown``.
    """
    if net.theory.ops.commutative:
        raise UnsupportedOperationError("symmetric terms need a word-marked net")
    return freecat._terms_equal(t1, t2, net, True)


def erase_symmetries(t: SymTerm) -> MorTerm:
    """Replace every permutation node by the identity on its word."""
    return freecat.fold_term(t, lambda leaf: Ident(leaf.word) if isinstance(leaf, Perm) else leaf,
                             Comp, _rebuild_oper)


def translate_term(arrow: TheoryArrow, t: MorTerm) -> MorTerm:
    """Push a process term along a catalog arrow (objects are translated,
    generators keep their names)."""

    def leaf(t: MorTerm) -> MorTerm:
        if isinstance(t, Gen):
            return t
        if isinstance(t, Ident):
            return Ident(translate(arrow, t.obj))
        raise IllTypedTermError(f"not a process term: {t!r}")

    return freecat.fold_term(t, leaf, Comp, _rebuild_oper)


def _distinct_orderings(letters: tuple) -> list[tuple]:
    """Sorted distinct permutations of a letter multiset, each found from the
    last by the next-permutation step: the work follows their number, not the
    factorial of the letter count."""
    word = sorted(letters)
    out = [tuple(word)]
    while True:
        j = next((j for j in range(len(word) - 2, -1, -1) if word[j] < word[j + 1]), None)
        if j is None:
            return out
        k = max(k for k in range(j + 1, len(word)) if word[k] > word[j])
        word[j], word[k] = word[k], word[j]
        word[j + 1:] = reversed(word[j + 1:])
        out.append(tuple(word))


def _payload_letters(x: FreeElem, target: Theory) -> tuple:
    """``x`` spelled one letter at a time in the word theory ``target``."""
    return target.ops.spell((p, 1 if c > 0 else -1)
                            for p, c in x.theory.ops.letters(x.payload) for _ in range(abs(c)))


def _abelianization(theory: Theory) -> TheoryArrow | None:
    """The catalog arrow that forgets a word theory's letter order onto
    ``theory``, if there is one."""
    for arrow in TheoryArrow:
        if (arrow.target is theory and theory.ops.commutative
                and not arrow.source.ops.commutative):
            return arrow
    return None


def linearizations(p: QNet) -> list[QNet]:
    """Every word-marked net in the abelianization preimage of ``p``.

    CMON nets yield MON nets (all orderings of every arc); ABGRP nets yield
    GRP nets over the fixed signed-letter spelling of each arc, positives
    before negatives, which truncates the infinite true preimage. More than
    :func:`default_budget` of them is an error, found from the binomials of
    :func:`linearization_count` before any is built.
    """
    arrow = _abelianization(p.theory)
    if arrow is None:
        raise UnsupportedOperationError(
            f"linearization applies to CMON or ABGRP nets, not {p.theory.value}")
    budget, total = default_budget(), 1
    for n, k in _binomials(p):
        # C(n, k) >= n for 0 < k < n, so a large n needs no slow huge binomial.
        total *= n if k < n and n > budget else math.comb(n, k)
        if total > budget:
            raise over_budget(budget, "the net has", "linearizations", UnsupportedOperationError)
    target = arrow.source
    names = sorted(p.transitions)
    per_transition = []
    for name in names:
        src, tgt = p.transitions[name]
        pairs = [(FreeElem(target, s), FreeElem(target, t))
                 for s in _distinct_orderings(_payload_letters(src, target))
                 for t in _distinct_orderings(_payload_letters(tgt, target))]
        per_transition.append(pairs)
    out = []
    for assignment in itertools.product(*per_transition):
        transitions = {name: arcs for name, arcs in zip(names, assignment)}
        out.append(QNet(target, p.places, transitions))
    return out


def _binomials(p: QNet) -> Iterator[tuple[int, int]]:
    """``(n, k)`` of each binomial C(n, k) in :func:`linearization_count`."""
    for src, tgt in p.transitions.values():
        for elem in (src, tgt):
            size = 0
            for _, c in elem.payload:
                size += abs(c)
                yield size, abs(c)


def linearization_count(p: QNet) -> int:
    """Closed form for ``len(linearizations(p))``: a product of multinomials,
    each taken as a product of binomials, so a large count on one place costs
    no large factorial."""
    return math.prod(math.comb(n, k) for n, k in _binomials(p))


def linearization_sum(p: QNet) -> QNet:
    """One word-marked net summing every linearization on transitions.

    The place set is shared; transition ``t`` of linearization ``i`` becomes
    ``"{i}.{t}"``.
    """
    if p.theory is not Theory.CMON:
        raise UnsupportedOperationError("the summed linearization net is for CMON nets")
    transitions = {}
    for i, lin in enumerate(linearizations(p)):
        for name, arcs in lin.transitions.items():
            transitions[f"{i}.{name}"] = arcs
    return QNet(Theory.MON, p.places, transitions)
