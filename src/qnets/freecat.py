"""Process terms over a net and the equational theory that identifies them.

A process term is built from transitions, identities, sequential composition,
and the net theory's operations on morphisms. Terms are normalized into
layered forms: sequences of firing layers, where a layer is itself a canonical
free-model element over the alphabet of transition names plus ``id.``-prefixed
place names (the held frame). Layer-level equalities of the theory hold
definitionally in that representation; the remaining equations (category
axioms and the requirement that composition is a model homomorphism) are
explored by a budgeted bidirectional rewrite search over layer merges and
splits. A symmetric term over a word-marked net may also hold :class:`Perm`
leaves, each of which is a layer of the same forms as it stands.

``Distinct`` verdicts are sound with respect to that rewrite closure: they are
issued when invariants differ or when one term's entire closure was
enumerated without meeting the other. ``Unknown`` means the search proved
nothing, and its reason says why: the node budget ran out, or, for GRP and
symmetric terms, whose move sets are not known complete, both closures were
exhausted without meeting.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Iterator, Mapping, Union

from . import jsonio
from .intlattice import IntLattice
from .net import ID_PREFIX, InvalidNetError, QNet, default_budget, over_budget, validate_net
from .theory import (
    FreeElem,
    QnetError,
    Theory,
    TheoryMismatchError,
    UnsupportedOperationError,
    _Record,
    _setattr,
    extend,
    invert,
    occurrences,
    unit,
)

class IllTypedTermError(QnetError):
    pass


# Gen, Comp and LayeredForm set their fields directly: built through _Record's
# shared constructor, they cost the homset workload 3-10% of its queries/s.
class Gen(_Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)


class Ident(_Record):
    __slots__ = _fields = ("obj",)


# ``Comp`` and ``Oper`` print as their fields would, by a fold with an explicit
# stack, so a deep term stays off the Python call stack. That text spells out
# the whole term, so ``==`` and ``hash`` read it: equality of process terms up
# to the theory's equations is ``mor_equal``'s job, not ``==``'s.


def _term_eq(self, other) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or repr(self) == repr(other)


def _term_repr(self) -> str:
    def oper(t: Oper, args: list) -> str:
        shown = ", ".join(args)
        if isinstance(t.args, list):
            shown = f"[{shown}]"
        else:
            shown = f"({shown},)" if len(args) == 1 else f"({shown})"
        return f"Oper(op={t.op!r}, args={shown})"

    return fold_term(self, repr, lambda after, before: f"Comp(after={after}, before={before})",
                     oper)


class Comp(_Record):
    __slots__ = _fields = ("after", "before")

    def __init__(self, after: "MorTerm", before: "MorTerm"):
        _setattr(self, "after", after)
        _setattr(self, "before", before)

    __eq__ = _term_eq
    __hash__ = lambda self: hash(repr(self))
    __repr__ = _term_repr


class Oper(_Record):
    __slots__ = _fields = ("op", "args")  # op: "combine" | "invert"

    __eq__ = _term_eq
    __hash__ = lambda self: hash(repr(self))
    __repr__ = _term_repr


class Perm(_Record):
    """Position permutation of a word marking: letter ``i`` of ``word`` moves
    to position ``mapping[i]`` of the target word."""

    __slots__ = _fields = ("word", "mapping")


MorTerm = Union[Gen, Ident, Comp, Oper]
SymTerm = Union[MorTerm, Perm]


class LayeredForm(_Record):
    """Sequential decomposition: ``layers[0]`` fires first. Layers are
    elements over transition names and ``id.`` place names, or, in a
    symmetric process, :class:`Perm` leaves, each its own layer; identity
    layers are never stored, so the empty tuple is the identity on ``start``.
    The equality decision and its search run on layer ids (see :class:`_Ctx`):
    a form is built only where one is returned."""

    __slots__ = _fields = ("start", "layers")

    def __init__(self, start: FreeElem, layers: tuple[FreeElem | Perm, ...]):
        _setattr(self, "start", start)
        _setattr(self, "layers", layers)


# EqVerdict and ReachResult stay dataclasses: ``perfbench/test_perfbench.py``
# builds altered results with ``dataclasses.replace``.
@dataclass(frozen=True)
class EqVerdict:
    status: str  # "equal" | "distinct" | "unknown"
    reason: str
    witness: tuple[str, ...] = ()

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.status == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


# ---------------------------------------------------------------------------
# Evaluation context: symbol images for the layer alphabet


class _Ctx(_Record):
    """A validated net, its symbol images and its move tables. :func:`_context`
    builds one per net object and keeps it on the net, so every
    :func:`mor_equal`, :func:`hom_enumerate` or ``symmetry.sym_equal`` call on
    that net shares it.

    ``net`` is a snapshot of the net it describes: the same theory, a tuple of
    its places and a shallow copy of its transitions. Keeping a copy instead
    of the net itself leaves no reference cycle, and lets :func:`_context`
    see a net whose ``transitions`` mapping was changed since.

    ``names`` holds the sorted transition names. Each distinct layer is
    numbered when first met, keyed by its payload (one context holds one
    theory; a :class:`Perm` is its own key): ``layers`` by id, ``ids`` by
    key, ``occ`` by id its occurrence vector over ``names`` (signed for
    groups, id letters left out, zeros for a permutation) and ``gens`` by id
    the sum of its absolute values, for the SEMILAT cap; every count of a
    layer's firings is read from these two. A form is the tuple of its layer
    ids from a start its caller keeps. Moves are pure functions of the net,
    computed once for its life: ``pairs`` maps two adjacent ids to the id
    tuples replacing them, ``splits`` an id to its id pairs, ``held`` a
    letter's end to its id letters. Nothing is ordered by ids.
    """

    __slots__ = ("net", "src_images", "tgt_images", "names",
                 "layers", "ids", "pairs", "splits", "occ", "gens", "held")
    _fields = __slots__[:4]

    def __init__(self, net: QNet, src_images: Mapping[str, FreeElem],
                 tgt_images: Mapping[str, FreeElem], names: tuple[str, ...]):
        super().__init__(net, src_images, tgt_images, names)
        for name, empty in zip(self.__slots__[4:], (list, dict, dict, dict, list, list, dict)):
            _setattr(self, name, empty())

    def caches(self) -> tuple:
        return self.layers, self.ids, self.pairs, self.splits, self.occ, self.gens, self.held

    def number(self, layers: Iterable) -> tuple[int, ...]:
        """The ids of ``layers`` (elements, their payloads or permutations),
        numbering each one not met before, a new payload as a checked element."""
        keys = []
        for layer in layers:
            keys.append(layer.payload if layer.__class__ is FreeElem else layer)
            if keys[-1] not in self.ids:
                self.ids[keys[-1]] = len(self.layers)
                layer = FreeElem(self.net.theory, layer) if layer.__class__ is tuple else layer
                self.layers.append(layer)
                counts = {} if isinstance(layer, Perm) else occurrences(layer)
                self.occ.append(tuple(map(counts.get, self.names, itertools.repeat(0))))
                self.gens.append(sum(map(abs, self.occ[-1])))
        return tuple(map(self.ids.__getitem__, keys))

    def form(self, start: FreeElem, ids: tuple[int, ...]) -> LayeredForm:
        return LayeredForm(start, tuple(map(self.layers.__getitem__, ids)))


def _context(net: QNet) -> _Ctx:
    """The context of ``net``, built and validated on first use and kept on
    the net while the net's theory, places and transitions still equal those
    it was built from; a net whose places or transitions changed is
    validated again. Memory is bounded: a call that finds more than
    :func:`default_budget` entries in all its tables, the numbering included
    (four entries per layer), clears them all, only here at its entry, where
    no search holds ids. Every call reads (and so checks) that bound."""
    bound = default_budget()
    ctx = getattr(net, "_ctx", None)
    if (ctx is not None and ctx.net.theory is net.theory
            and ctx.net.places == tuple(net.places)
            and ctx.net.transitions == net.transitions):
        if sum(map(len, ctx.caches())) > bound:
            for cache in ctx.caches():
                cache.clear()
        return ctx
    snap = QNet(net.theory, tuple(net.places), dict(net.transitions))
    diags = validate_net(snap)
    if diags:
        raise InvalidNetError("; ".join(diags))
    if any(t.startswith(ID_PREFIX) for t in snap.transitions):
        raise InvalidNetError(
            f"process semantics reserves the {ID_PREFIX!r} transition prefix")
    held = {ID_PREFIX + p: unit(snap.theory, p) for p in snap.places}
    ctx = _Ctx(snap, {name: arcs[0] for name, arcs in snap.transitions.items()} | held,
               {name: arcs[1] for name, arcs in snap.transitions.items()} | held,
               tuple(sorted(snap.transitions)))
    # QNet is frozen; the context is not part of its value (see QNet.__reduce__).
    object.__setattr__(net, "_ctx", ctx)
    return ctx


def _check_marking(ctx: _Ctx, *markings: FreeElem) -> None:
    for m in markings:
        if m.theory is not ctx.net.theory:
            raise TheoryMismatchError("marking theory differs from net theory")
        if m.atoms() - set(ctx.net.places):
            raise InvalidNetError("marking mentions undeclared places")


def _is_id_sym(name: str) -> bool:
    return name.startswith(ID_PREFIX)


def _pure_id(layer: FreeElem) -> bool:
    return all(_is_id_sym(a) for a in layer.atoms())


def _layer_src(layer: FreeElem, ctx: _Ctx) -> FreeElem:
    return extend(ctx.net.theory, ctx.src_images, layer)


def _layer_tgt(layer: FreeElem, ctx: _Ctx) -> FreeElem:
    return extend(ctx.net.theory, ctx.tgt_images, layer)


def form_tgt(form: LayeredForm, ctx: _Ctx) -> FreeElem:
    if not form.layers:
        return form.start
    last = form.layers[-1]
    return perm_tgt(last) if isinstance(last, Perm) else _layer_tgt(last, ctx)


def layered_repr(form: LayeredForm) -> str:
    """A form's start, then its layers in firing order; a permutation layer
    shows as ``perm[...]``, the target position of each letter."""
    return _shown(form.start, [range(len(form.layers))], form.layers)[0]


def _shown(start: FreeElem, forms: list | tuple, layers) -> tuple[str, ...]:
    """:func:`layered_repr` of each form from ``start``, a form given as
    indices into ``layers``; the start and each distinct layer render once."""
    head = jsonio.dumps(jsonio.elem_to_json(start))
    steps = {i: f"perm{list(l.mapping)}" if isinstance(l, Perm)
             else jsonio.dumps(jsonio.elem_to_json(l)) for i in set().union(*forms)
             for l in (layers[i],)}
    return tuple(f"{head} [{' ; '.join(map(steps.__getitem__, f))}]" for f in forms)


# ---------------------------------------------------------------------------
# Term endpoints and layering


def _trivial(layer) -> bool:
    """Whether a layer is an identity: held letters only, or a permutation
    that fixes every position."""
    if isinstance(layer, Perm):
        return layer.mapping == tuple(range(len(layer.mapping)))
    return _pure_id(layer)


def _apply_perm(payload: tuple, mapping: tuple[int, ...]) -> tuple:
    out: list = [None] * len(payload)
    for i, letter in enumerate(payload):
        out[mapping[i]] = letter
    return tuple(out)


def _check_perm(t: Perm, theory: Theory) -> None:
    if theory.ops.commutative:
        raise IllTypedTermError("permutations need a word theory")
    if not isinstance(t.word, FreeElem) or t.word.theory is not theory:
        raise IllTypedTermError("permutation word has the wrong theory")
    if not isinstance(t.mapping, tuple) or sorted(t.mapping) != list(range(len(t.word.payload))):
        raise IllTypedTermError("mapping is not a permutation of the letter positions")
    if not theory.ops.is_normal(_apply_perm(t.word.payload, t.mapping)):
        raise UnsupportedOperationError(
            "permutation target would cancel; not representable letterwise")


def perm_tgt(t: Perm) -> FreeElem:
    return FreeElem(t.word.theory, _apply_perm(t.word.payload, t.mapping))


def _pad(ops, prefix: tuple, layer, suffix: tuple):
    """``layer`` between identities on the payloads ``prefix`` and ``suffix``;
    a permutation whose word or target they cancel (GRP) is refused."""
    if isinstance(layer, Perm):
        m, n = len(prefix), len(layer.mapping)
        word = ops.product(prefix, layer.word.payload, suffix)
        if len(word) != m + n + len(suffix):
            raise UnsupportedOperationError(
                "a permutation beside a cancelling boundary is not representable letterwise")
        mapping = (*range(m), *(m + t for t in layer.mapping), *range(m + n, len(word)))
        padded = Perm(FreeElem(layer.word.theory, word), mapping)
        if ops.group:
            _check_perm(padded, layer.word.theory)
        return padded
    return ops.norm(itertools.chain(_id_letters(ops, prefix), ops.letters(layer),
                                    _id_letters(ops, suffix)))


def _endpoints(t: MorTerm, ctx: _Ctx) -> tuple[FreeElem, FreeElem]:
    return tuple(FreeElem(ctx.net.theory, end) for end in _layers_of(t, ctx)[:2])


def mor_src(t: MorTerm, net: QNet) -> FreeElem:
    return _endpoints(t, _context(net))[0]


def mor_tgt(t: MorTerm, net: QNet) -> FreeElem:
    return _endpoints(t, _context(net))[1]


def fold_term(t: SymTerm, leaf, comp, oper, before_first: bool = False, expand=None):
    """Fold a process term bottom-up with an explicit stack, so deep terms stay
    off the Python call stack. ``Comp`` and ``Oper`` are the inner nodes and
    fold as ``comp(after, before)`` and ``oper(node, args)``; every other node
    is a leaf, mapped by ``leaf``. ``expand`` sees each node when the walk
    first meets it and returns the node to fold, whose children it may leave
    to be expanded in turn. Children are walked as written (``after`` first),
    or with ``before_first`` in firing order."""
    done: list = []
    stack: list[tuple[SymTerm, bool]] = [(t, False)]
    while stack:
        t, fold = stack.pop()
        if fold:
            if isinstance(t, Comp):
                last, first = done.pop(), done.pop()
                done.append(comp(last, first) if before_first else comp(first, last))
            else:
                cut = len(done) - len(t.args)
                done[cut:] = [oper(t, done[cut:])]
            continue
        if expand is not None:
            t = expand(t)
        if isinstance(t, Comp):
            kids = (t.after, t.before) if before_first else (t.before, t.after)
            stack += [(t, True), (kids[0], False), (kids[1], False)]
        elif isinstance(t, Oper):
            stack += [(t, True)] + [(a, False) for a in reversed(t.args)]
        else:
            done.append(leaf(t))
    return done[0]


def _rebuild_oper(t: Oper, args: list) -> Oper:
    """The ``oper`` of a fold that rebuilds its term."""
    return Oper(t.op, tuple(args))


def _layers_of(t: SymTerm, ctx: _Ctx, symmetric: bool = False) -> tuple[tuple, tuple, tuple]:
    """Source, target and layers of a term as canonical payloads, and
    :class:`Perm` layers as they are; layers may be identities, dropped by
    callers, which build checked elements of what they keep. Each product
    normalises its arguments' letters once. Permutations are terms only when
    ``symmetric``; a combination holding one stacks its arguments' layers one
    after the other instead of side by side. The walk fires ``before`` first,
    and checks each operation when it first meets it."""
    th = ctx.net.theory
    ops = th.ops
    places = set(ctx.net.places)

    def leaf(t: SymTerm) -> tuple[tuple, tuple, tuple]:
        if isinstance(t, Gen):
            if not isinstance(t.name, str) or t.name not in ctx.net.transitions:
                raise IllTypedTermError(f"unknown transition {t.name!r}")
            src, tgt = ctx.net.transitions[t.name]
            return src.payload, tgt.payload, (ops.spell(((t.name, 1),)),)
        if isinstance(t, Ident):
            if not isinstance(t.obj, FreeElem):
                raise IllTypedTermError(f"identity object is not an element: {t.obj!r}")
            if t.obj.theory is not th:
                raise IllTypedTermError(
                    f"identity object has theory {t.obj.theory.value}, net is {th.value}")
            if t.obj.atoms() - places:
                raise IllTypedTermError("identity object mentions undeclared places")
            return t.obj.payload, t.obj.payload, ()
        if symmetric and isinstance(t, Perm):
            _check_perm(t, th)
            if t.word.atoms() - places:
                raise IllTypedTermError("permutation word mentions undeclared places")
            return t.word.payload, _apply_perm(t.word.payload, t.mapping), (t,)
        raise IllTypedTermError(f"not a process term: {t!r}")

    def comp(after: tuple, before: tuple) -> tuple[tuple, tuple, tuple]:
        if before[1] != after[0]:
            raise IllTypedTermError(
                f"composite mismatch: before ends at {before[1]}, after starts at {after[0]}")
        return before[0], after[1], before[2] + after[2]

    def expand(t: SymTerm) -> SymTerm:
        if not isinstance(t, Oper):
            return t
        if t.op == "combine":
            if len(t.args) < 2:
                raise IllTypedTermError("combine needs at least two arguments")
        elif t.op == "invert":
            if not ops.group:
                raise IllTypedTermError(f"{th.value} morphisms have no inverses")
            if len(t.args) != 1:
                raise IllTypedTermError("invert takes exactly one argument")
        else:
            raise IllTypedTermError(f"unknown operation {t.op!r}")
        return t

    def oper(t: Oper, args: list) -> tuple[tuple, tuple, tuple]:
        if t.op == "invert":
            # A permutation's inverse reads its word and its positions backwards.
            src, tgt, layers = args[0]
            return ops.inverse(src), ops.inverse(tgt), tuple(
                Perm(invert(l.word), tuple(len(l.mapping) - 1 - k for k in reversed(l.mapping)))
                if isinstance(l, Perm) else ops.inverse(l) for l in layers)
        srcs, tgts, stacks = zip(*args)
        if any(isinstance(l, Perm) for layers in stacks for l in layers):
            # One after the other: each argument fires beside the targets of
            # those before it and the sources of those after it.
            layers = tuple(_pad(ops, ops.product(*tgts[:i]), l, ops.product(*srcs[i + 1:]))
                           for i, ls in enumerate(stacks) for l in ls)
        else:
            # Side by side: each argument is padded in front by the id letters of its start.
            depth = max(map(len, stacks))
            padded = [(ops.spell(_id_letters(ops, s)),) * (depth - len(ls)) + ls if len(ls) < depth
                      else ls for s, ls in zip(srcs, stacks)]
            layers = tuple(ops.product(*column) for column in zip(*padded))
        return ops.product(*srcs), ops.product(*tgts), layers

    return fold_term(t, leaf, comp, oper, before_first=True, expand=expand)


def layered(t: MorTerm, net: QNet) -> LayeredForm:
    """Canonical-ish sequentialization of a term, read off its layer ids on the
    net's context (see :func:`_layered_ctx`); denotes the same morphism."""
    ctx = _context(net)
    return ctx.form(*_layered_ctx(t, ctx)[:2])


def _layered_ctx(t: SymTerm, ctx: _Ctx, symmetric: bool = False) -> tuple:
    """A term's start, the ids of its firing layers by :meth:`_Ctx.number`
    and its target, from one walk: identity layers are dropped unchecked, and
    the ends are checked elements."""
    th = ctx.net.theory
    src, tgt, layers = _layers_of(t, ctx, symmetric)
    ids = ctx.number(l for l in layers if not (
        _trivial(l) if isinstance(l, Perm) else all(map(_is_id_sym, th.ops.names(l)))))
    return FreeElem(th, src), ids, FreeElem(th, tgt)


# ---------------------------------------------------------------------------
# Rewrite moves: merging and splitting adjacent layers


def _merge_candidates(l1: FreeElem, l2: FreeElem, ctx: _Ctx) -> list[FreeElem]:
    """Every layer firing ``l1`` and then ``l2`` at once, the split read
    backwards: a commutative merge holds each residual of ``l1``'s id letters
    by those holding ``l2``'s source that ``l1``'s targets top up to ``l2``'s
    id letters. The ends of each generator letter come from :func:`_held`."""
    th = ctx.net.theory
    ops = th.ops
    if not ops.commutative:
        return _merge_words(l1, l2, ctx)

    def part(layer: FreeElem, ids: bool) -> tuple:
        """The id (or generator) entries of a sorted payload, a payload too."""
        return tuple(x for x, name in zip(layer.payload, ops.names(layer.payload))
                     if _is_id_sym(name) == ids)

    g1, g2 = part(l1, False), part(l2, False)
    src_g2 = ops.product(*(_held(x, 0, ctx) for x in g2))
    tgt_g1 = tuple(ops.letters(ops.product(*(_held(x, 1, ctx) for x in g1))))
    held2 = part(l2, True)
    gens = (*ops.letters(g1), *ops.letters(g2))
    merged = {ops.norm(itertools.chain(gens, ops.letters(rest)))
              for rest in ops.residuals(part(l1, True), src_g2)
              if ops.norm(itertools.chain(ops.letters(rest), tgt_g1)) == held2}
    return [FreeElem(th, p) for p in sorted(merged)]


def _framed(th: Theory, gens: Iterable[tuple[str, int]], rest: Iterable) -> FreeElem:
    """One layer: the generator letters ``gens``, then the id letters holding
    the marking payload ``rest``, normalised together."""
    return FreeElem(th, th.ops.norm(itertools.chain(gens, _id_letters(th.ops, rest))))


def _id_letters(ops, marking: Iterable) -> Iterator[tuple[str, int]]:
    """The id letters holding a marking payload."""
    return ((ID_PREFIX + p, c) for p, c in ops.letters(marking))


def _held(letter, end: int, ctx: _Ctx) -> tuple:
    """The id letters holding one layer letter's source (``end`` 0) or target
    (1), as a payload; cached on the context."""
    out = ctx.held.get((letter, end))
    if out is None:
        th = ctx.net.theory
        arc = _layer_tgt if end else _layer_src
        out = ctx.held[letter, end] = th.ops.norm(_id_letters(
            th.ops, arc(FreeElem(th, (letter,)), ctx).payload))
    return out


def _merge_words(l1: FreeElem, l2: FreeElem, ctx: _Ctx) -> list[FreeElem]:
    """Interleaved merges for word theories, by matching held blocks."""
    th = ctx.net.theory
    w1, w2 = l1.payload, l2.payload
    ids1, ids2 = ([_is_id_sym(n) for n in th.ops.names(w)] for w in (w1, w2))
    results: set[tuple] = set()
    # Worklist of (i, j, acc): letters w1[:i] and w2[:j] are merged into acc.
    stack = [(0, 0, ())]
    while stack:
        i, j, acc = stack.pop()
        if i == len(w1) and j == len(w2):
            results.add(acc)
            continue
        if i < len(w1) and j < len(w2) and ids1[i] and w1[i] == w2[j]:
            stack.append((i + 1, j + 1, acc + (w1[i],)))
        if i < len(w1) and not ids1[i]:
            held = _held(w1[i], 1, ctx)
            if w2[j:j + len(held)] == held:
                stack.append((i + 1, j + len(held), acc + (w1[i],)))
        if j < len(w2) and not ids2[j]:
            held = _held(w2[j], 0, ctx)
            if w1[i:i + len(held)] == held:
                stack.append((i + len(held), j + 1, acc + (w2[j],)))
    return [FreeElem(th, p) for p in sorted({th.ops.canon(acc) for acc in results})]


def _split_candidates(layer: FreeElem, ctx: _Ctx) -> list[tuple[FreeElem, FreeElem]]:
    """Every way to fire ``layer`` as two layers, one after the other: the law
    ``f ⊗ g = (f ⊗ id) ; (id ⊗ g)`` read letter by letter, the same for every
    theory. A held letter stays in both halves. A generator letter with
    coefficient ``c`` fires ``k`` times in the first half and ``c - k`` in the
    second: for counts ``k`` runs up from 0 to ``c`` (signed in ABGRP), a word
    letter fires wholly first or wholly second, in that order, and an
    idempotent letter may also fire in both. Each half holds the ends of what
    fires in the other, and both must fire something (only a group half can
    cancel down to id letters). Set splits come sorted and deduplicated."""
    th = ctx.net.theory
    ops = th.ops

    def held(name: str, k: int, end: int) -> Iterable[tuple[str, int]]:
        """The id letters holding one end of ``k`` firings of ``name``."""
        return ops.letters(_held(ops.spell(((name, k),))[0], end, ctx))

    letters = list(ops.letters(layer.payload))
    choices = []  # per letter, its (first-half, second-half) firing counts
    for name, c in letters:
        step = 1 if c > 0 else -1
        ks = range(0, c + step, step) if ops.commutative else (c, 0)
        choices.append([(0, 0)] if _is_id_sym(name) else
                       [(k, c - k) for k in ks] + ([(c, c)] if ops.idempotent else []))
    out = []
    for pick in itertools.product(*choices):
        if not (any(k1 for k1, _ in pick) and any(k2 for _, k2 in pick)):
            continue
        first, second = [], []
        for (name, c), (k1, k2) in zip(letters, pick):
            if _is_id_sym(name):
                first.append((name, c))
                second.append((name, c))
            if k1:
                first.append((name, k1))
                second += held(name, k1, 1)
            if k2:
                first += held(name, k2, 0)
                second.append((name, k2))
        pair = FreeElem(th, ops.norm(first)), FreeElem(th, ops.norm(second))
        if not (_pure_id(pair[0]) or _pure_id(pair[1])):
            out.append(pair)
    if ops.idempotent:
        out = sorted(set(out), key=lambda pair: (pair[0].payload, pair[1].payload))
    return out


def _pair_moves(key: tuple[int, int], ctx: _Ctx) -> list[tuple[int, ...]]:
    """The id tuples that may replace two adjacent layers, from the context's
    table: two permutations compose, two firing layers merge (in payload
    order), a firing layer slides across a permutation; every result drops
    its identity layers. ``_merge_candidates`` is looked up at call time, so a
    wrapper on it sees each miss."""
    out = ctx.pairs.get(key)
    if out is None:
        a, b = map(ctx.layers.__getitem__, key)
        perm_a = isinstance(a, Perm)
        if perm_a != isinstance(b, Perm):
            results = _slide(b if perm_a else a, a if perm_a else b, ctx, not perm_a)
        elif perm_a:
            results = [(Perm(a.word, tuple(b.mapping[k] for k in a.mapping)),)]
        else:
            results = [(m,) for m in _merge_candidates(a, b, ctx)]
        out = ctx.pairs[key] = [ctx.number(l for l in ls if not _trivial(l)) for ls in results]
    return out


def _blocks(lengths: list[int]) -> list[tuple[int, int]]:
    """(offset, length) of consecutive blocks of the given lengths."""
    return list(zip(itertools.accumulate(lengths, initial=0), lengths))


def _inverse(mapping) -> tuple[int, ...]:
    return _apply_perm(tuple(range(len(mapping))), mapping)


def _slide(layer: FreeElem, perm: Perm, ctx: _Ctx,
           before: bool) -> list[tuple]:
    """Slide a generator layer across an adjacent permutation that moves whole
    blocks of it: [layer, perm] becomes [perm', layer'] when the layer fires
    ``before`` the permutation, and [perm, layer] becomes [layer', perm']
    otherwise. The layer's end next to the permutation fixes the new letter
    order; its far end gives the blocks of the new permutation."""
    th = ctx.net.theory
    letters = layer.payload
    near = [_held(l, 1 if before else 0, ctx) for l in letters]
    far = [_held(l, 0 if before else 1, ctx) for l in letters]
    # A near end that cancels (GRP) does not spell the permuted word letterwise.
    if any(len(w) == 0 for w in near + far) or sum(map(len, near)) != len(perm.mapping):
        return []
    # Where each near-end position goes when read from the layer's side.
    moved = perm.mapping if before else _inverse(perm.mapping)
    starts = []
    for offset, size in _blocks([len(w) for w in near]):
        positions = [moved[offset + k] for k in range(size)]
        if any(positions[k + 1] != positions[k] + 1 for k in range(size - 1)):
            return []
        starts.append(positions[0])
    order = sorted(range(len(letters)), key=lambda j: starts[j])
    new_letters = tuple(letters[j] for j in order)
    # A Perm made directly may have a cancelling target (GRP); then so do these.
    if not th.ops.is_normal(new_letters):
        return []
    new_layer = FreeElem(th, new_letters)
    new_offsets = {j: off for j, (off, _) in zip(order, _blocks([len(far[j]) for j in order]))}
    # Far-end block positions of the old letter order -> the new order.
    forward = [0] * sum(map(len, far))
    for j, (off, size) in enumerate(_blocks([len(w) for w in far])):
        for k in range(size):
            forward[off + k] = new_offsets[j] + k
    new_mapping = tuple(forward) if before else _inverse(forward)
    word = _layer_src(layer, ctx) if before else _layer_tgt(new_layer, ctx)
    if len(word.payload) != len(new_mapping) or not th.ops.is_normal(
            _apply_perm(word.payload, new_mapping)):
        return []
    new_perm = Perm(word, new_mapping)
    return [(new_perm, new_layer) if before else (new_layer, new_perm)]


def _neighbors(form: tuple[int, ...], ctx: _Ctx,
               gens_cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """The one move relation, on forms as layer-id tuples (see :class:`_Ctx`).
    For each adjacent pair of layers in turn, its :func:`_pair_moves`; then
    each firing layer splits in two, by the context's table. Splits may not
    push the total generator count past ``gens_cap``, if given (idempotent
    duplication is otherwise unbounded)."""
    pairs, splits = ctx.pairs, ctx.splits
    for i in range(len(form) - 1):
        moves = pairs.get(form[i:i + 2])
        if moves is None:
            moves = _pair_moves(form[i:i + 2], ctx)
        for mid in moves:
            yield form[:i] + mid + form[i + 2:]
    if gens_cap is not None:
        gens = ctx.gens
        room = gens_cap - sum(map(gens.__getitem__, form))
    for i, l in enumerate(form):
        moves = splits.get(l)
        if moves is None:
            layer = ctx.layers[l]
            moves = splits[l] = [] if isinstance(layer, Perm) \
                else list(map(ctx.number, _split_candidates(layer, ctx)))
        for a, b in moves:
            if gens_cap is None or gens[a] + gens[b] - gens[l] <= room:
                yield form[:i] + (a, b) + form[i + 1:]


def _greedy(form: tuple[int, ...], ctx: _Ctx) -> tuple[int, ...]:
    """Earliest-firing prefilter: merge forward while possible, taking the
    first merge in payload order. Sound but not trusted as a complete
    canonical form."""
    layers = list(form)
    i = 0
    while i + 1 < len(layers):
        merges = _pair_moves(tuple(layers[i:i + 2]), ctx)
        if merges:
            layers[i:i + 2] = merges[0]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(layers)


# ---------------------------------------------------------------------------
# Equality search


def _search_connect(start: FreeElem, f1: tuple[int, ...], f2: tuple[int, ...], ctx: _Ctx,
                    cap: int | None, budget: int, exhausted: str | None) -> EqVerdict:
    """Bidirectional breadth-first search (Pohl 1971) between two distinct
    forms from ``start``, as layer ids.

    Moves are :func:`_neighbors` within the generator ``cap``, and the smaller
    frontier is expanded first. With ``exhausted`` None the move relation is
    symmetric, so a side whose queue empties has its whole class and proves
    ``Distinct``; otherwise exhaustion proves nothing, both sides run to the
    end and the verdict is ``Unknown`` with reason ``exhausted``. An ``Equal``
    witness is the full rewrite path from ``f1`` to ``f2``, each form shown
    by :func:`layered_repr`.
    """
    sides: tuple[dict, dict] = ({f1: None}, {f2: None})
    queues = (deque([f1]), deque([f2]))
    expansions = 0

    def chain(side: int, node) -> list:
        """``node``, then each form it was reached from on ``side``."""
        out = []
        while node is not None:
            out.append(node)
            node = sides[side][node]
        return out

    while queues[0] or queues[1]:
        side = 0 if (queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1]))) else 1
        node = queues[side].popleft()
        expansions += 1
        if expansions > budget:
            return EqVerdict("unknown", f"budget of {budget} nodes exhausted")
        for nxt in _neighbors(node, ctx, cap):
            if nxt in sides[side]:
                continue
            sides[side][nxt] = node
            if nxt in sides[1 - side]:
                path = chain(0, nxt)[::-1] + chain(1, nxt)[1:]
                return EqVerdict("equal", "rewrite path found", _shown(start, path, ctx.layers))
            queues[side].append(nxt)
        if exhausted is None and (not queues[0] or not queues[1]):
            return EqVerdict("distinct",
                             "one rewrite closure is complete and excludes the other term")
    return EqVerdict("unknown", exhausted)


def _closure(form: tuple[int, ...], ctx: _Ctx, gens_cap: int | None,
             budget: int) -> set[tuple[int, ...]] | None:
    """The rewrite class of ``form`` within ``gens_cap`` generators (no cap
    for None), or None once it holds more than ``budget`` forms."""
    seen = {form}
    queue = deque([form])
    while queue:
        for nxt in _neighbors(queue.popleft(), ctx, gens_cap):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > budget:
                    return None
                queue.append(nxt)
    return seen


def _forms_equal(start: FreeElem, f1: tuple[int, ...], f2: tuple[int, ...], ctx: _Ctx,
                 budget: int, symmetric: bool = False) -> EqVerdict:
    """Equality of two forms from ``start``, as layer ids, with the same
    target, which every caller has already checked, within a checked node
    ``budget``. Each form's occurrence vector is the sum of its layers' in
    ``ctx.occ``: outside SEMILAT no move changes it, so different sums prove
    ``Distinct``; in SEMILAT the larger total caps the search. A
    ``symmetric`` pair, whose forms may hold permutation layers, goes from
    the invariants straight to the uncapped search."""
    ops = ctx.net.theory.ops
    if f1 == f2:
        return EqVerdict("equal", "identical layered forms")
    zeros = (0,) * len(ctx.names)
    occ1, occ2 = (tuple(map(sum, zip(zeros, *map(ctx.occ.__getitem__, f)))) for f in (f1, f2))
    if not ops.idempotent and occ1 != occ2:
        return EqVerdict("distinct", "generator occurrence counts differ")
    cap, exhausted = None, "closures exhausted; symmetric move set is not known complete"
    if not symmetric:
        g1, g2 = _greedy(f1, ctx), _greedy(f2, ctx)
        if g1 == g2:
            return EqVerdict("equal", "greedy canonical forms agree",
                             _shown(start, (f1, g1, f2), ctx.layers))
        # Only an idempotent split may fire a letter in both halves, which
        # duplicates firings without bound. Elsewhere a split keeps or cancels
        # the letters it fires, so the class is finite without a cap.
        if ops.idempotent:
            cap = max(sum(occ1), sum(occ2))
        # Within the searched form space the move relation is symmetric for
        # theories without inverses (merge and split are mutual converses), so
        # exhausting one side enumerates its whole class. With inverses, merges
        # can cancel a layer away without a converse insertion move, and word
        # reduction can hide merge patterns, so exhaustion proves nothing.
        # ABGRP never gets here: all its adjacent layers merge, so its greedy
        # form is the source and the signed occurrence vector, which the checks
        # above compare.
        exhausted = "closure exhausted; GRP move set is not known complete" if ops.group else None
    return _search_connect(start, f1, f2, ctx, cap, budget, exhausted)


def _terms_equal(t1: SymTerm, t2: SymTerm, net: QNet, symmetric: bool) -> EqVerdict:
    """The one decision behind :func:`mor_equal` and ``symmetry.sym_equal``:
    layer both terms, compare their endpoints, then their forms within the
    :func:`default_budget`."""
    ctx = _context(net)
    start, f1, tgt = _layered_ctx(t1, ctx, symmetric)
    start2, f2, tgt2 = _layered_ctx(t2, ctx, symmetric)
    if (start, tgt) != (start2, tgt2):
        return EqVerdict("distinct", "source/target pairs differ")
    return _forms_equal(start, f1, f2, ctx, default_budget(), symmetric)


def mor_equal(t1: MorTerm, t2: MorTerm, net: QNet) -> EqVerdict:
    """Decide equality of two process terms in the free category on ``net``."""
    return _terms_equal(t1, t2, net, False)


# ---------------------------------------------------------------------------
# Layer enumeration, hom-sets, reachability


class _Packed:
    """The packed count format of a CMON net: a marking is one int, with the
    count of the j-th sorted place in the field of ``width`` bits at
    ``j * (width + 1)`` and a guard bit above each field, always set. An arc
    in ``arcs`` (by sorted name: the source, and target minus source) has no
    guards. Subtracting a source clears a field's guard iff the count falls
    short, and never borrows from the next field, so ``m`` funds ``take`` iff
    ``(m - take) & guards == guards``. Sums stay exact while counts stay below
    ``2 ** width``, which holds the largest arc, and ``tokens`` plus
    ``firings`` of it: no field carries while at most ``firings`` transitions
    fire from at most ``tokens`` tokens."""

    def __init__(self, net: QNet, tokens: int, firings: int):
        self.places = sorted(net.places)
        self.names = sorted(net.transitions)
        top = max((sum(c for _, c in arc.payload) for arcs in net.transitions.values()
                   for arc in arcs), default=0)
        self.mask = (1 << max(top, tokens + firings * top).bit_length()) - 1
        self.shift = {p: j * (self.mask.bit_length() + 1) for j, p in enumerate(self.places)}
        self.guards = sum(self.mask + 1 << s for s in self.shift.values())
        self.arcs = [(self.pack(src) ^ self.guards, self.pack(tgt) - self.pack(src))
                     for src, tgt in map(net.transitions.get, self.names)]

    def pack(self, elem: FreeElem) -> int:
        return sum(c << self.shift[p] for p, c in elem.payload) | self.guards

    def payload(self, m: int) -> tuple:
        counts = [m >> s & self.mask for s in self.shift.values()]
        return tuple(itertools.compress(zip(self.places, counts), counts))


def _firings(packed: _Packed, root: int, max_width: int) -> Iterator[tuple[tuple, int, int]]:
    """Nonempty transition multisets of at most ``max_width`` firings that
    the packed marking ``root`` funds, as ``(fired, room, out)``: ``(i, k)``
    pairs with k > 0 by transition index, ``root`` less the fired sources and
    that plus the fired targets, both packed. Where every source is nonempty,
    the root's token total bounds nothing more. The order is that of the
    count sequences ``(k_0, k_1, ...)``: sorted names, smallest count first.
    """
    # Room only shrinks down the tree, so only the transitions the root funds
    # are visited. A stack node is a multiset over live[:x], yielded when
    # popped; its children add k firings of one live[y], y >= x, one per
    # subtraction that keeps every guard, pushed for y ascending and k
    # descending so that the largest y, smallest k pops next.
    guards = packed.guards
    live = [(j, take, effect) for j, (take, effect) in enumerate(packed.arcs)
            if root - take & guards == guards]
    stack = [(0, root, root, (), max_width)]
    while stack:
        x, room, out, fired, left = stack.pop()
        if fired:
            yield fired, room, out
        for y in range(x, len(live)):
            j, take, effect = live[y]
            children = []
            k, r, o = 0, room - take, out
            while k != left and r & guards == guards:
                k += 1
                o += effect
                children.append((y + 1, r, o, fired + ((j, k),), left - k))
                r -= take
            stack += reversed(children)


def _step_layers(ctx: _Ctx, marking: FreeElem, max_width: int) -> list[FreeElem]:
    """All single firing layers of at most ``max_width`` firings whose source
    is exactly ``marking``. A commutative layer holds a residual of
    ``marking`` by what it fires; a word layer spells ``marking`` left to
    right. Theories without inverses and positive widths only:
    :func:`hom_enumerate` rejects the others first. CMON packs ``marking``
    for ``max_width`` firings and decodes each held frame from the room. A
    transition with an empty source fires up to ``max_width`` times, so more
    than :func:`default_budget` layers is a :class:`QnetError`, and so is a
    word step whose layers spell more than that many times the marking's
    length (at least 1) in letters."""
    th = ctx.net.theory
    ops = th.ops
    out: set[FreeElem] = set()
    names = ctx.names
    # A layer wider than this cap has sub-layers of every width up to it, so
    # ``add`` refuses before the cap drops any.
    budget = default_budget()
    max_width = min(max_width, budget + 1)

    def add(layer: FreeElem) -> None:
        out.add(layer)
        if len(out) > budget:
            raise over_budget(budget, "a hom-set layer step fires", "layers")

    if ops.commutative and not ops.idempotent:
        packed = _Packed(ctx.net, sum(c for _, c in marking.payload), max_width)
        for fired, room, _ in _firings(packed, packed.pack(marking), max_width):
            add(_framed(th, [(names[i], k) for i, k in fired], packed.payload(room)))
    elif ops.idempotent:
        for r in range(1, min(max_width, len(names)) + 1):
            for group in itertools.combinations(names, r):
                fired_src = ops.product(*[ctx.src_images[nm].payload for nm in group])
                gens = [(nm, 1) for nm in group]
                for rest in ops.residuals(marking.payload, fired_src):
                    add(_framed(th, gens, rest))
    else:
        letters = marking.payload
        # A layer has one letter per held letter or firing, so a step without
        # empty-source firings spells at most ``budget`` layers of at most
        # ``len(letters)`` letters. Past that, empty-source firings lengthen
        # each layer: the letters built are bounded too, not the layers alone.
        room, built = budget * max(1, len(letters)), 0
        # Worklist of (pos, width_left, acc): acc spells letters[:pos], and
        # has fired something once width_left is below max_width.
        stack = [(0, max_width, ())]
        while stack:
            pos, width_left, acc = stack.pop()
            if width_left == 0:
                # Nothing more can fire: the rest of the word is held at once.
                acc += tuple(ID_PREFIX + x for x in letters[pos:])
                pos = len(letters)
            if pos == len(letters) and width_left != max_width:
                add(FreeElem(th, acc))
                built += len(acc)
                if built > room:
                    raise over_budget(room, "a hom-set layer step builds layers of", "letters")
            if width_left != 0:
                for name in names:
                    src = ctx.net.transitions[name][0].payload
                    if letters[pos:pos + len(src)] == src:
                        stack.append((pos + len(src), width_left - 1, acc + (name,)))
            if pos < len(letters):
                stack.append((pos + 1, width_left, acc + (ID_PREFIX + letters[pos],)))
    return sorted(out, key=lambda e: e.payload)


def hom_enumerate(net: QNet, x: FreeElem, y: FreeElem, max_layers: int,
                  max_width: int) -> list[MorTerm]:
    """All process-term classes from ``x`` to ``y`` within the layer bounds.

    The layered forms are visited in lexicographic (layer count, serialized
    form) order and each joins the first earlier representative it equals,
    that is, whose rewrite closure holds it; representatives are returned in
    that order. Forms are searched as layer-id tuples on the net's kept
    context (see :class:`_Ctx`), and each path's occurrence vector is the
    sum of its layers' ``ctx.occ``. Outside SEMILAT, forms are bucketed by
    that vector, which no move changes, and a representative's closure,
    computed once a later form reaches its bucket, indexes its members: a
    form joins by one lookup. SEMILAT scans every representative, with the
    closure capped at the larger vector total of the two as in
    :func:`mor_equal` and cached per (representative, cap). The
    :func:`default_budget` is read once and bounds all of it: a closure of
    more than that many forms falls back to the pairwise :func:`mor_equal`
    decision, and more than that many nonempty layer paths from ``x``, or a
    layer step of more than that many layers, is a :class:`QnetError`. Both
    layer bounds must be ints of at least 1.
    """
    ops = net.theory.ops
    if ops.group:
        raise UnsupportedOperationError(
            f"hom-sets over {net.theory.value} are infinite whenever nonempty")
    if any(type(bound) is not int or bound < 1 for bound in (max_layers, max_width)):
        raise UnsupportedOperationError("layer and width bounds must be positive integers,"
                                        f" got {max_layers!r} and {max_width!r}")
    budget = default_budget()
    ctx = _context(net)
    _check_marking(ctx, x, y)
    forms: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # Each marking's layer ids and targets, built once.
    steps: dict[FreeElem, list[tuple[int, FreeElem]]] = {}
    # Worklist of (marking, layers fired from x to reach it, the sum of their
    # occurrence vectors); the forms are sorted below, so the visiting order
    # does not matter. Every path is kept or stepped from, so past
    # ``budget`` nonempty ones the answer is refused, not built.
    stack = [(x, (), (0,) * len(ctx.names))]
    paths = 0
    while stack:
        marking, acc, occ = stack.pop()
        if marking == y:
            forms.append((acc, occ))
        if len(acc) == max_layers:
            continue
        if marking not in steps:
            layers = _step_layers(ctx, marking, max_width)
            steps[marking] = [(i, _layer_tgt(layer, ctx))
                              for i, layer in zip(ctx.number(layers), layers)]
        paths += len(steps[marking])
        if paths > budget:
            raise over_budget(budget, "a hom-set has", "layer paths")
        stack += [(tgt, acc + (i,), tuple(map(add, occ, ctx.occ[i]))) for i, tgt in steps[marking]]
    forms.sort(key=lambda f: (len(f[0]), tuple(ctx.layers[i].payload for i in f[0])))
    # Merge and split are mutual converses within the searched space (the same
    # fact _search_connect's exhaustion rule rests on), so a class is the
    # closure of any member and pairwise equality is closure membership. A
    # closure of at most ``budget`` forms also bounds the pairwise search's
    # expansions, so that search would not have run out of budget either.
    reps: list[tuple[int, ...]] = []
    if ops.idempotent:
        closures: dict[tuple[tuple[int, ...], int], set[tuple[int, ...]] | None] = {}

        def same_class(form: tuple[int, ...], rep: tuple[int, ...], cap: int) -> bool:
            if (rep, cap) not in closures:
                closures[rep, cap] = _closure(rep, ctx, cap, budget)
            closure = closures[rep, cap]
            return _forms_equal(x, form, rep, ctx, budget).is_equal if closure is None \
                else form in closure

        capped: list[tuple[tuple[int, ...], int]] = []
        for form, occ in forms:
            gens = sum(occ)
            if not any(same_class(form, rep, max(gens, rep_gens)) for rep, rep_gens in capped):
                capped.append((form, gens))
                reps.append(form)
    else:
        # Buckets are unions of disjoint classes, so one set holds the members
        # of every closure enumerated; a closure waits in ``pending`` until a
        # later form needs it, and one past the budget goes to ``over``.
        members: set[tuple[int, ...]] = set()
        buckets: dict[tuple[int, ...], tuple[list, list]] = {}
        for form, occ in forms:
            pending, over = buckets.setdefault(occ, ([], []))
            for rep in pending:
                closure = _closure(rep, ctx, None, budget)
                if closure is None:
                    over.append(rep)
                else:
                    members |= closure
            pending.clear()
            if form not in members and not any(
                    _forms_equal(x, form, rep, ctx, budget).is_equal for rep in over):
                pending.append(form)
                reps.append(form)
    leaves: dict[str | FreeElem, MorTerm] = {}
    return [_form_term(ctx.form(x, rep), net.theory, leaves) for rep in reps]


def layered_to_term(form: LayeredForm, net: QNet) -> SymTerm:
    """Convert a layered form back into a process term, which must be
    well-typed on ``net`` and start at ``form.start``."""
    th, ctx = net.theory, _context(net)
    elems = [form.start, *(l for l in form.layers if not isinstance(l, Perm))]
    if not all(isinstance(l, FreeElem) for l in elems):
        raise IllTypedTermError("form has a start or layer that is not an element or a permutation")
    if any(l.theory is not th for l in elems):
        raise IllTypedTermError(f"form has elements outside the net's theory {th.value}")
    term = _form_term(form, th, {})
    start = _layers_of(term, ctx, True)[0]
    if start != form.start.payload:
        raise IllTypedTermError(f"form starts at {form.start.payload}, its layers at {start}")
    return term


def _form_term(form: LayeredForm, th: Theory, leaves: dict[str | FreeElem, MorTerm]) -> SymTerm:
    """The process term of ``form``; a permutation layer is its own leaf.
    ``leaves`` caches the term of each layer and the leaf of each letter, so
    a caller converting many forms builds each layer and identity once."""
    def layer_term(layer: FreeElem | Perm) -> SymTerm:
        if isinstance(layer, Perm) or layer in leaves:
            return leaves.get(layer, layer)
        items: list[MorTerm] = []
        for name, count in th.ops.letters(layer.payload):
            piece = leaves.get(name)
            if piece is None:
                piece = leaves[name] = Ident(unit(th, name[len(ID_PREFIX):])) \
                    if _is_id_sym(name) else Gen(name)
            if count < 0:
                piece = Oper("invert", (piece,))
            items.extend([piece] * abs(count))
        term = leaves[layer] = items[0] if len(items) == 1 else Oper("combine", tuple(items))
        return term

    if not form.layers:
        return Ident(form.start)
    term = layer_term(form.layers[0])
    for layer in form.layers[1:]:
        term = Comp(layer_term(layer), term)
    return term


# A dataclass for the reason given above EqVerdict.
@dataclass(frozen=True)
class ReachResult:
    start: FreeElem
    max_steps: int
    markings: tuple[FreeElem, ...]
    edges: tuple[tuple[FreeElem, str, FreeElem], ...]
    saturated: bool  # a round found no new marking, so max_steps did not cut it off
    frontier: tuple[int, ...] = field(default=(), compare=False)  # new markings per round


def reachable(net: QNet, m0: FreeElem, max_steps: int) -> ReachResult:
    """Breadth-first token game; the step rule is theory-specific.

    CMON fires any multiset of transitions whose combined source fits the
    marking, M - sum k*pre(t) + sum k*post(t), enumerated by :func:`_firings`
    on :class:`_Packed` ints. At most ``budget`` steps of at most
    ``budget + 1`` firings each are taken, so fields that hold the start's
    tokens plus ``(budget + 1) ** 2`` firings never carry before the budget
    refuses. MON rewrites one contiguous source factor. SEMILAT steps on
    bitsets of the sorted places: a transition fires from ``m`` iff
    ``m & src == src``, and each residual ``m & ~src | keep``, for every
    submask ``keep`` of ``src``, is joined with the target.

    Markings are keyed by their step value (packed int, word or bitset) and
    numbered when first seen; each is decoded and built once, through the
    checked :class:`FreeElem` constructor, and every edge into it shares that
    object. Edges between ids are sorted once, by the ranks of their payloads.
    Labels are the text of :func:`jsonio.dumps` on ``{"fire":{t:k,...}}`` for
    CMON, ``{"at":i,"fire":t}`` for MON (``t`` rewrites the factor at position
    ``i``) and ``{"fire":t,"keep":[...]}`` for SEMILAT (the residual that
    stays marked), each built once per call from names quoted once per call.
    ``saturated`` tells a fixpoint from a search cut off by ``max_steps``, and
    ``frontier`` counts the new markings of each round. ``max_steps`` is an
    int of at least 0; more than :func:`default_budget` firings in one call is
    a :class:`QnetError`: no partial graph is returned.
    """
    if type(max_steps) is not int or max_steps < 0:
        raise QnetError(f"max_steps must be a non-negative integer, got {max_steps!r}")
    th = net.theory
    ops = th.ops
    if ops.group:
        raise UnsupportedOperationError(
            f"reachability over {th.value} is not a token game; use the lattice test")
    ctx = _context(net)
    _check_marking(ctx, m0)
    vectors = ops.commutative and not ops.idempotent  # CMON steps on packed counts
    if vectors and any(src.is_neutral() for src, _ in net.transitions.values()):
        raise UnsupportedOperationError(
            "a transition with empty source makes the step relation infinitely branching")
    names = ctx.names
    quoted = {x: jsonio.dumps(x) for x in itertools.chain(names, net.places)}
    arcs = [(name, *(arc.payload for arc in net.transitions[name])) for name in names]
    budget = default_budget()
    firings = 0
    start = m0.payload
    decode = tuple

    if vectors:
        packed = _Packed(net, sum(c for _, c in start), (budget + 1) ** 2)
        start, decode = packed.pack(m0), packed.payload

        def steps(m: int) -> Iterator[tuple[tuple, int]]:
            # A fundable multiset wider than this cap has a fundable
            # sub-multiset of every width up to it, one more than the bound
            # has left, so the count below refuses before the cap drops any.
            for fired, _, out in _firings(packed, m, budget - firings + 1):
                yield fired, out

        def encode(fired: tuple) -> str:
            return '{"fire":{%s}}' % ",".join([f"{quoted[names[i]]}:{k}" for i, k in fired])
    elif not ops.commutative:
        def steps(m: tuple) -> Iterator[tuple[tuple, tuple]]:
            for name, src, tgt in arcs:
                n = len(src)
                for pos in range(len(m) - n + 1):
                    if m[pos:pos + n] == src:
                        yield (pos, name), m[:pos] + tgt + m[pos + n:]

        def encode(key: tuple) -> str:
            return '{"at":%d,"fire":%s}' % (key[0], quoted[key[1]])
    else:
        places = sorted(net.places)
        bits = {p: 1 << j for j, p in enumerate(places)}

        def decode(m: int) -> tuple:
            return tuple([p for p in places if m & bits[p]])

        bitsets = [(name, sum(map(bits.get, src)), [(0, bits[p]) for p in src],
                    sum(map(bits.get, tgt))) for name, src, tgt in arcs]
        start = sum(map(bits.get, start))

        def steps(m: int) -> Iterator[tuple[tuple, int]]:
            for name, src, choices, tgt in bitsets:
                if m & src == src:
                    # Submasks one at a time: a wide source has 2 ** |src|.
                    for keep in itertools.product(*choices):
                        rest = m ^ src | sum(keep)
                        yield (name, rest), rest | tgt

        def encode(key: tuple) -> str:
            return '{"fire":%s,"keep":[%s]}' % (quoted[key[0]],
                                                 ",".join([quoted[p] for p in decode(key[1])]))

    labels: dict[tuple, str] = {}
    ids = {start: 0}
    found = [m0]
    frontier = [start]
    edges, sizes = [], []  # (id, label, id) triples; new markings per round
    for _ in range(max_steps):
        nxt = []
        for m in frontier:
            a = ids[m]
            for key, m2 in steps(m):
                firings += 1
                if firings > budget:
                    raise over_budget(budget, "the token game fires", "transitions")
                text = labels.get(key) or labels.setdefault(key, encode(key))
                b = ids.get(m2)
                if b is None:
                    b = ids[m2] = len(found)
                    found.append(FreeElem(th, decode(m2)))
                    nxt.append(m2)
                edges.append((a, text, b))
        sizes.append(len(nxt))
        if not nxt:
            break
        frontier = nxt
    order = sorted(range(len(found)), key=[m.payload for m in found].__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    markings = tuple([found[i] for i in order])
    ranked = sorted([(rank[a], text, rank[b]) for a, text, b in edges])
    return ReachResult(
        m0, max_steps, markings,
        tuple([(markings[a], text, markings[b]) for a, text, b in ranked]),
        bool(sizes) and not sizes[-1], tuple(sizes))


def reachability_dot(result: ReachResult) -> str:
    """Graphviz rendering: nodes are canonical markings, edges fired layers."""

    def quote(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = ["digraph reachability {"]
    node = {m: quote(jsonio.dumps(jsonio.elem_to_json(m))) for m in result.markings}
    for m, text in node.items():
        shape = "doublecircle" if m == result.start else "box"
        lines.append(f"  {text} [shape={shape}];")
    for src, label, tgt in result.edges:
        lines.append(f"  {node[src]} -> {node[tgt]} [label={quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hom_nonempty_group(net: QNet, x: FreeElem, y: FreeElem) -> bool:
    """Whether some process connects ``x`` to ``y`` in an ABGRP net.

    Decided exactly: the difference must lie in the integer lattice spanned by
    the transition effects.
    """
    if net.theory is not Theory.ABGRP:
        raise UnsupportedOperationError(
            "the lattice test answers hom-nonemptiness for ABGRP nets only")
    ctx = _context(net)
    _check_marking(ctx, x, y)
    places = list(net.places)

    def difference(a: FreeElem, b: FreeElem) -> list[int]:
        """The integer vector b - a over the places."""
        counts_a, counts_b = dict(a.payload), dict(b.payload)
        return [counts_b.get(p, 0) - counts_a.get(p, 0) for p in places]

    lattice = IntLattice(len(places))
    for src, tgt in net.transitions.values():
        lattice.add(difference(src, tgt))
    return difference(x, y) in lattice


class UnderlyingNet(_Record):
    """Finite truncation of the net underlying the free category."""

    __slots__ = _fields = ("net", "objects", "reps")


def underlying_net(net: QNet, bound: int) -> UnderlyingNet:
    """Truncate the free category on ``net`` back to a net.

    Objects are the arc markings plus the place units; transitions are the
    process classes found by :func:`hom_enumerate` with ``bound`` as both the
    layer and width limit.
    """
    if type(bound) is not int or bound < 1:
        raise UnsupportedOperationError(f"enumeration bound must be positive, got {bound!r}")
    if net.theory.ops.group:
        raise UnsupportedOperationError(
            f"underlying-net truncation is not available over {net.theory.value}")
    _context(net)  # validates the net: sorting a mixed-theory net's objects would raise
    objects = {end for arcs in net.transitions.values() for end in arcs}
    objects |= {unit(net.theory, p) for p in net.places}
    ordered = tuple(sorted(objects, key=lambda e: e.payload))
    transitions, reps = {}, {}
    for x, y in itertools.product(ordered, repeat=2):
        for term in hom_enumerate(net, x, y, bound, bound):
            name = f"mor{len(reps)}"
            transitions[name], reps[name] = (x, y), term
    return UnderlyingNet(QNet(net.theory, net.places, transitions), ordered, reps)


def unit_into_truncation(net: QNet, truncation: UnderlyingNet):
    """The canonical morphism from a net into its free-category truncation."""
    from .net import NetMorphism

    f = {}
    for name in net.transitions:
        for rep_name, rep_term in truncation.reps.items():
            if truncation.net.transitions[rep_name] != net.transitions[name]:
                continue
            if mor_equal(Gen(name), rep_term, net).is_equal:
                f[name] = rep_name
                break
        else:
            raise QnetError(f"truncation bound too small to contain {name!r}")
    return NetMorphism(net, truncation.net, f, {p: p for p in net.places})
