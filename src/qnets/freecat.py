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
enumerated without meeting the other. ``Unknown`` is reserved for genuine
budget exhaustion.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from . import jsonio
from .intlattice import IntLattice
from .net import ID_PREFIX, InvalidNetError, QNet, validate_net
from .theory import (
    FreeElem,
    QnetError,
    Theory,
    TheoryMismatchError,
    UnsupportedOperationError,
    combine,
    extend,
    invert,
    lift,
    neutral,
    occurrences,
    unit,
)

DEFAULT_BUDGET = 10_000


def default_budget() -> int:
    """Rewrite-search node budget; the QNET_BUDGET env var overrides it."""
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


class IllTypedTermError(QnetError):
    pass


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Ident:
    obj: FreeElem


@dataclass(frozen=True)
class Comp:
    after: "MorTerm"
    before: "MorTerm"


@dataclass(frozen=True)
class Oper:
    op: str  # "combine" | "invert"
    args: tuple["MorTerm", ...]


@dataclass(frozen=True)
class Perm:
    """Position permutation of a word marking: letter ``i`` of ``word`` moves
    to position ``mapping[i]`` of the target word."""

    word: FreeElem
    mapping: tuple[int, ...]


MorTerm = Union[Gen, Ident, Comp, Oper]
SymTerm = Union[MorTerm, Perm]


@dataclass(frozen=True)
class LayeredForm:
    """Sequential decomposition: ``layers[0]`` fires first. Layers are
    elements over transition names and ``id.`` place names, or, in a
    symmetric process, :class:`Perm` leaves, each its own layer; identity
    layers are never stored, so the empty tuple is the identity on ``start``."""

    start: FreeElem
    layers: tuple[FreeElem | Perm, ...]

    def __post_init__(self):
        # Hashed once, by the dataclass formula, as :class:`FreeElem` is.
        object.__setattr__(self, "_hash", hash((self.start, self.layers)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return LayeredForm, (self.start, self.layers)


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


def _equal(reason: str, witness: tuple[str, ...] = ()) -> EqVerdict:
    return EqVerdict("equal", reason, witness)


def _distinct(reason: str) -> EqVerdict:
    return EqVerdict("distinct", reason)


def _unknown(reason: str) -> EqVerdict:
    return EqVerdict("unknown", reason)


# ---------------------------------------------------------------------------
# Evaluation context: symbol images for the layer alphabet


@dataclass(frozen=True)
class _Ctx:
    """A validated net and its symbol images, built once per call of
    :func:`mor_equal`, :func:`hom_enumerate` or ``symmetry.sym_equal``.

    The move caches live only as long as the context, so for that one call.
    Merge and split moves and layer generator counts are pure functions of
    the net, so each distinct input is computed once and every repeat gets
    the same, already checked, elements back.
    """

    net: QNet
    src_images: Mapping[str, FreeElem]
    tgt_images: Mapping[str, FreeElem]
    merges: dict = field(default_factory=dict, repr=False, compare=False)
    splits: dict = field(default_factory=dict, repr=False, compare=False)
    gens_totals: dict = field(default_factory=dict, repr=False, compare=False)


def _context(net: QNet) -> _Ctx:
    diags = validate_net(net)
    if diags:
        raise InvalidNetError("; ".join(diags))
    if any(t.startswith(ID_PREFIX) for t in net.transitions):
        raise InvalidNetError(
            f"process semantics reserves the {ID_PREFIX!r} transition prefix")
    held = {ID_PREFIX + p: unit(net.theory, p) for p in net.places}
    return _Ctx(net, {name: arcs[0] for name, arcs in net.transitions.items()} | held,
                {name: arcs[1] for name, arcs in net.transitions.items()} | held)


def _check_marking(ctx: _Ctx, m: FreeElem) -> None:
    if m.theory is not ctx.net.theory:
        raise TheoryMismatchError("marking theory differs from net theory")
    if m.atoms() - set(ctx.net.places):
        raise InvalidNetError("marking mentions undeclared places")


def _is_id_sym(name: str) -> bool:
    return name.startswith(ID_PREFIX)


def _pure_id(layer: FreeElem) -> bool:
    return all(_is_id_sym(a) for a in layer.atoms())


def _identity_layer(th: Theory, marking: FreeElem) -> FreeElem:
    return lift(th, {p: ID_PREFIX + p for p in marking.atoms()}, marking)


def _ids_marking(th: Theory, layer: FreeElem) -> FreeElem:
    """Marking held by the id letters of a layer (gens are dropped)."""
    ops = th.ops
    return FreeElem(th, ops.spell((p[len(ID_PREFIX):], c)
                                  for p, c in ops.letters(layer.payload) if _is_id_sym(p)))


def _gens_part(th: Theory, layer: FreeElem) -> FreeElem:
    ops = th.ops
    return FreeElem(th, ops.spell((p, c) for p, c in ops.letters(layer.payload)
                                  if not _is_id_sym(p)))


def _layer_src(layer: FreeElem, ctx: _Ctx) -> FreeElem:
    return extend(ctx.net.theory, ctx.src_images, layer)


def _layer_tgt(layer: FreeElem, ctx: _Ctx) -> FreeElem:
    return extend(ctx.net.theory, ctx.tgt_images, layer)


def form_tgt(form: LayeredForm, ctx: _Ctx) -> FreeElem:
    return _layer_tgt(form.layers[-1], ctx) if form.layers else form.start


def layered_repr(form: LayeredForm) -> str:
    start = jsonio.dumps(jsonio.elem_to_json(form.start))
    steps = " ; ".join(jsonio.dumps(jsonio.elem_to_json(l)) for l in form.layers)
    return f"{start} [{steps}]"


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
    if t.word.theory is not theory:
        raise IllTypedTermError("permutation word has the wrong theory")
    if sorted(t.mapping) != list(range(len(t.word.payload))):
        raise IllTypedTermError("mapping is not a permutation of the letter positions")
    if not theory.ops.is_normal(_apply_perm(t.word.payload, t.mapping)):
        raise UnsupportedOperationError(
            "permutation target would cancel; not representable letterwise")


def perm_tgt(t: Perm) -> FreeElem:
    return FreeElem(t.word.theory, _apply_perm(t.word.payload, t.mapping))


def _pad(prefix: FreeElem, layer, suffix: FreeElem):
    """``layer`` between identities on ``prefix`` and ``suffix``."""
    th = prefix.theory
    if isinstance(layer, Perm):
        m, n = len(prefix.payload), len(layer.mapping)
        word = combine(th, combine(th, prefix, layer.word), suffix)
        if len(word.payload) != m + n + len(suffix.payload):
            raise UnsupportedOperationError(
                "a permutation beside a cancelling boundary is not representable letterwise")
        mapping = (tuple(range(m)) + tuple(m + t for t in layer.mapping)
                   + tuple(range(m + n, m + n + len(suffix.payload))))
        return Perm(word, mapping)
    return combine(th, combine(th, _identity_layer(th, prefix), layer),
                   _identity_layer(th, suffix))


def _invert_layer(layer):
    if isinstance(layer, Perm):
        n = len(layer.word.payload)
        mapping = tuple(n - 1 - layer.mapping[n - 1 - i] for i in range(n))
        return Perm(invert(layer.word), mapping)
    return invert(layer)


def _endpoints(t: MorTerm, ctx: _Ctx) -> tuple[FreeElem, FreeElem]:
    return _layers_of(t, ctx)[:2]


def mor_src(t: MorTerm, net: QNet) -> FreeElem:
    return _endpoints(t, _context(net))[0]


def mor_tgt(t: MorTerm, net: QNet) -> FreeElem:
    return _endpoints(t, _context(net))[1]


def fold_term(t: SymTerm, leaf, comp, oper, before_first: bool = False, enter=None):
    """Fold a process term bottom-up with an explicit stack, so deep terms stay
    off the Python call stack. ``Comp`` and ``Oper`` are the inner nodes and
    fold as ``comp(after, before)`` and ``oper(node, args)``; every other node
    is a leaf, mapped by ``leaf``. ``enter`` sees each ``Oper`` when first met.
    Children are walked as written (``after`` first), or with ``before_first``
    in firing order."""
    done: list = []
    stack: list[tuple[SymTerm, bool]] = [(t, False)]
    while stack:
        t, fold = stack.pop()
        if isinstance(t, Comp) and fold:
            last, first = done.pop(), done.pop()
            done.append(comp(last, first) if before_first else comp(first, last))
        elif isinstance(t, Comp):
            kids = (t.after, t.before) if before_first else (t.before, t.after)
            stack += [(t, True), (kids[0], False), (kids[1], False)]
        elif isinstance(t, Oper) and fold:
            cut = len(done) - len(t.args)
            done[cut:] = [oper(t, done[cut:])]
        elif isinstance(t, Oper):
            if enter is not None:
                enter(t)
            stack += [(t, True)] + [(a, False) for a in reversed(t.args)]
        else:
            done.append(leaf(t))
    return done[0]


def _layers_of(t: SymTerm, ctx: _Ctx,
               symmetric: bool = False) -> tuple[FreeElem, FreeElem, tuple]:
    """Source, target and layers of a term; layers may be identities, dropped
    by callers. :class:`Perm` leaves are terms only when ``symmetric``; a
    combination holding a permutation layer stacks its arguments' layers
    one after the other instead of side by side. The walk fires ``before``
    first, and checks each operation when it first meets it."""
    th = ctx.net.theory

    def leaf(t: SymTerm) -> tuple[FreeElem, FreeElem, tuple]:
        if isinstance(t, Gen):
            if t.name not in ctx.net.transitions:
                raise IllTypedTermError(f"unknown transition {t.name!r}")
            return (*ctx.net.transitions[t.name], (unit(th, t.name),))
        if isinstance(t, Ident):
            if t.obj.theory is not th:
                raise IllTypedTermError(
                    f"identity object has theory {t.obj.theory.value}, net is {th.value}")
            if t.obj.atoms() - set(ctx.net.places):
                raise IllTypedTermError("identity object mentions undeclared places")
            return t.obj, t.obj, ()
        if symmetric and isinstance(t, Perm):
            _check_perm(t, th)
            if t.word.atoms() - set(ctx.net.places):
                raise IllTypedTermError("permutation word mentions undeclared places")
            return t.word, perm_tgt(t), (t,)
        raise IllTypedTermError(f"not a process term: {t!r}")

    def comp(after: tuple, before: tuple) -> tuple[FreeElem, FreeElem, tuple]:
        if before[1] != after[0]:
            raise IllTypedTermError(
                f"composite mismatch: before ends at {before[1].payload}, after starts at"
                f" {after[0].payload}")
        return before[0], after[1], before[2] + after[2]

    def enter(t: Oper) -> None:
        if t.op == "combine":
            if len(t.args) < 2:
                raise IllTypedTermError("combine needs at least two arguments")
        elif t.op == "invert":
            if not th.ops.group:
                raise IllTypedTermError(f"{th.value} morphisms have no inverses")
            if len(t.args) != 1:
                raise IllTypedTermError("invert takes exactly one argument")
        else:
            raise IllTypedTermError(f"unknown operation {t.op!r}")

    def oper(t: Oper, args: list) -> tuple[FreeElem, FreeElem, tuple]:
        src, tgt, layers = args[0]
        if t.op == "invert":
            return invert(src), invert(tgt), tuple(map(_invert_layer, layers))
        for src_b, tgt_b, layers_b in args[1:]:
            if any(isinstance(l, Perm) for l in layers + layers_b):
                layers = tuple(_pad(neutral(th), l, src_b) for l in layers) + \
                    tuple(_pad(tgt, l, neutral(th)) for l in layers_b)
            else:
                layers = _zip_layers(th, (src, layers), (src_b, layers_b))
            src = combine(th, src, src_b)
            tgt = combine(th, tgt, tgt_b)
        return src, tgt, layers

    return fold_term(t, leaf, comp, oper, before_first=True, enter=enter)


def _zip_layers(th: Theory,
                a: tuple[FreeElem, tuple[FreeElem, ...]],
                b: tuple[FreeElem, tuple[FreeElem, ...]]) -> tuple[FreeElem, ...]:
    """Parallel combination: pad the shorter side in front with held frames."""
    start_a, layers_a = a
    start_b, layers_b = b
    depth = max(len(layers_a), len(layers_b))
    pad_a = (_identity_layer(th, start_a),) * (depth - len(layers_a)) + layers_a
    pad_b = (_identity_layer(th, start_b),) * (depth - len(layers_b)) + layers_b
    return tuple(combine(th, x, y) for x, y in zip(pad_a, pad_b))


def layered(t: MorTerm, net: QNet) -> LayeredForm:
    """Canonical-ish sequentialization of a term; denotes the same morphism."""
    return _layered_ctx(t, _context(net))[0]


def _layered_ctx(t: SymTerm, ctx: _Ctx,
                 symmetric: bool = False) -> tuple[LayeredForm, FreeElem]:
    """The layered form of a term and the term's target, from one walk."""
    src, tgt, layers = _layers_of(t, ctx, symmetric)
    return LayeredForm(src, tuple(l for l in layers if not _trivial(l))), tgt


# ---------------------------------------------------------------------------
# Rewrite moves: merging and splitting adjacent layers


def _merge_candidates(l1: FreeElem, l2: FreeElem, ctx: _Ctx) -> list[FreeElem]:
    """Every layer firing ``l1`` and then ``l2`` at once, the split read
    backwards: a commutative merge holds each residual of ``l1``'s held marking
    by ``l2``'s source that ``l1``'s targets top up to ``l2``'s held marking."""
    th = ctx.net.theory
    ops = th.ops
    if not ops.commutative:
        return _merge_words(l1, l2, ctx)
    g1, g2 = _gens_part(th, l1), _gens_part(th, l2)
    rests = ops.residuals(_ids_marking(th, l1).payload, _layer_src(g2, ctx).payload)
    tgt_g1 = tuple(ops.letters(_layer_tgt(g1, ctx).payload))
    held2 = _ids_marking(th, l2).payload
    gens = (*ops.letters(g1.payload), *ops.letters(g2.payload))
    out = {_framed(th, gens, rest) for rest in rests
           if ops.norm(itertools.chain(ops.letters(rest), tgt_g1)) == held2}
    return sorted(out, key=lambda e: e.payload)


def _framed(th: Theory, gens: Iterable[tuple[str, int]], rest: Iterable) -> FreeElem:
    """One layer of a commutative theory: the generator letters ``gens``
    beside the id letters holding the marking payload ``rest``."""
    ops = th.ops
    return FreeElem(th, ops.norm(itertools.chain(
        gens, ((ID_PREFIX + p, c) for p, c in ops.letters(rest)))))


def _held(letter, end: int, ctx: _Ctx) -> tuple:
    """The id letters holding one layer letter's source (``end`` 0) or target (1)."""
    th = ctx.net.theory
    arc = _layer_tgt if end else _layer_src
    return _identity_layer(th, arc(FreeElem(th, (letter,)), ctx)).payload


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
    out = {FreeElem(th, th.ops.canon(acc)) for acc in results}
    return sorted(out, key=lambda e: e.payload)


def _split_candidates(layer: FreeElem, ctx: _Ctx) -> list[tuple[FreeElem, FreeElem]]:
    """Every way to fire ``layer`` as two layers, one after the other: the law
    ``f ⊗ g = (f ⊗ id) ; (id ⊗ g)`` read letter by letter, the same for every
    theory. A held letter stays in both halves. A generator letter with
    coefficient ``c`` fires ``k`` times in the first half and ``c - k`` in the
    second: for counts ``k`` runs up from 0 to ``c`` (signed in ABGRP), a word
    letter fires wholly first or wholly second, in that order, and an
    idempotent letter may also fire in both. Each half holds the ends of what
    fires in the other, and both must fire something. Set splits come sorted
    and deduplicated."""
    th = ctx.net.theory
    ops = th.ops

    @functools.cache
    def held(name: str, k: int, end: int) -> tuple:
        """The id letters holding one end of ``k`` firings of ``name``."""
        return tuple(ops.letters(_held(ops.spell(((name, k),))[0], end, ctx)))

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
        out.append((FreeElem(th, ops.norm(first)), FreeElem(th, ops.norm(second))))
    if ops.idempotent:
        out = sorted(set(out), key=lambda pair: (pair[0].payload, pair[1].payload))
    return out


def _layer_gens_total(layer: FreeElem) -> int:
    return sum(abs(c) for name, c in occurrences(layer).items()
               if not _is_id_sym(name))


def _form_gens_total(form: LayeredForm) -> int:
    return sum(_layer_gens_total(layer) for layer in form.layers)


# The moves through the per-call caches of ``ctx``. The uncached functions
# are looked up at call time, so a wrapper installed on them sees each miss.


def _merges(l1: FreeElem, l2: FreeElem, ctx: _Ctx) -> list[FreeElem]:
    out = ctx.merges.get((l1, l2))
    if out is None:
        out = ctx.merges[l1, l2] = _merge_candidates(l1, l2, ctx)
    return out


def _splits(layer: FreeElem, ctx: _Ctx) -> list[tuple[FreeElem, FreeElem]]:
    out = ctx.splits.get(layer)
    if out is None:
        out = ctx.splits[layer] = _split_candidates(layer, ctx)
    return out


def _gens_total(layer: FreeElem, ctx: _Ctx) -> int:
    out = ctx.gens_totals.get(layer)
    if out is None:
        out = ctx.gens_totals[layer] = _layer_gens_total(layer)
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
    if len(word.payload) != len(new_mapping):
        return []
    if not th.ops.is_normal(_apply_perm(word.payload, new_mapping)):
        return []
    new_perm = Perm(word, new_mapping)
    return [(new_perm, new_layer) if before else (new_layer, new_perm)]


def _neighbors(form: LayeredForm, ctx: _Ctx,
               gens_cap: int | None = None) -> Iterator[LayeredForm]:
    """The one move relation on layered forms. For each adjacent pair of
    layers in turn: two permutations compose, two firing layers merge, and a
    firing layer slides across a permutation. Then each firing layer splits
    in two; splits may not push the total generator count past ``gens_cap``
    (idempotent duplication is otherwise unbounded)."""
    layers = form.layers
    for i in range(len(layers) - 1):
        a, b = layers[i], layers[i + 1]
        perm_a = isinstance(a, Perm)
        if perm_a != isinstance(b, Perm):
            for pair in _slide(b if perm_a else a, a if perm_a else b, ctx, not perm_a):
                yield LayeredForm(form.start, layers[:i] + pair + layers[i + 2:])
            continue
        merges = [Perm(a.word, tuple(b.mapping[k] for k in a.mapping))] if perm_a \
            else _merges(a, b, ctx)
        for merged in merges:
            mid = () if _trivial(merged) else (merged,)
            yield LayeredForm(form.start, layers[:i] + mid + layers[i + 2:])
    if gens_cap is not None:
        gens = [_gens_total(layer, ctx) for layer in layers]
        total = sum(gens)
    for i, layer in enumerate(layers):
        if isinstance(layer, Perm):
            continue
        for a, b in _splits(layer, ctx):
            if gens_cap is not None:
                grown = total - gens[i] + _gens_total(a, ctx) + _gens_total(b, ctx)
                if grown > gens_cap:
                    continue
            yield LayeredForm(form.start, layers[:i] + (a, b) + layers[i + 1:])


def _greedy(form: LayeredForm, ctx: _Ctx) -> LayeredForm:
    """Earliest-firing prefilter: merge forward while possible. Sound but not
    trusted as a complete canonical form."""
    layers = list(form.layers)
    i = 0
    while i + 1 < len(layers):
        cands = _merges(layers[i], layers[i + 1], ctx)
        if cands:
            merged = min(cands, key=lambda e: e.payload)
            layers[i:i + 2] = [] if _pure_id(merged) else [merged]
            i = max(i - 1, 0)
        else:
            i += 1
    return LayeredForm(form.start, tuple(layers))


# ---------------------------------------------------------------------------
# Equality search


def _form_occurrences(form: LayeredForm) -> dict[str, int]:
    totals: dict[str, int] = {}
    for layer in form.layers:
        if isinstance(layer, Perm):
            continue
        for name, count in occurrences(layer).items():
            if not _is_id_sym(name):
                totals[name] = totals.get(name, 0) + count
    return {n: c for n, c in totals.items() if c != 0}


def _search_connect(f1, f2, neighbors, budget: int, early_exhaust: bool,
                    render) -> EqVerdict:
    """Bidirectional breadth-first search (Pohl 1971) between two forms.

    ``neighbors`` gives one form's moves, and the smaller frontier is expanded
    first. With ``early_exhaust``, a side whose queue empties proves the
    closures disjoint. An ``Equal`` witness is the full rewrite path from
    ``f1`` to ``f2``, each form shown by ``render``.
    """
    sides: tuple[dict, dict] = ({f1: None}, {f2: None})
    queues = (deque([f1]), deque([f2]))
    expansions = 0

    def witness(meet) -> tuple[str, ...]:
        chains = []
        for side in (0, 1):
            chain = []
            node = meet
            while node is not None:
                chain.append(node)
                node = sides[side][node]
            chains.append(chain)
        path = list(reversed(chains[0])) + chains[1][1:]
        return tuple(render(f) for f in path)

    if f2 in sides[0]:
        return _equal("identical layered forms")
    while queues[0] or queues[1]:
        side = 0 if (queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1]))) else 1
        node = queues[side].popleft()
        expansions += 1
        if expansions > budget:
            return _unknown(f"budget of {budget} nodes exhausted")
        for nxt in neighbors(node):
            if nxt in sides[side]:
                continue
            sides[side][nxt] = node
            if nxt in sides[1 - side]:
                return _equal("rewrite path found", witness(nxt))
            queues[side].append(nxt)
        if early_exhaust and (not queues[0] or not queues[1]):
            return _distinct("one rewrite closure is complete and excludes the other term")
    return _distinct("rewrite closures are disjoint")


def _closure(form: LayeredForm, ctx: _Ctx, gens_cap: int,
             budget: int) -> set[LayeredForm] | None:
    """The rewrite class of ``form`` within ``gens_cap`` generators, or None
    once it holds more than ``budget`` forms."""
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


def _forms_equal(f1: LayeredForm, f2: LayeredForm, ctx: _Ctx,
                 budget: int | None = None) -> EqVerdict:
    """Equality of two forms with the same endpoints, which every caller
    has already checked."""
    th = ctx.net.theory
    ops = th.ops
    if budget is None:
        budget = default_budget()
    if f1 == f2:
        return _equal("identical layered forms")
    if not ops.idempotent and _form_occurrences(f1) != _form_occurrences(f2):
        return _distinct("generator occurrence counts differ")
    g1 = _greedy(f1, ctx)
    g2 = _greedy(f2, ctx)
    if g1 == g2:
        return _equal("greedy canonical forms agree",
                      (layered_repr(f1), layered_repr(g1), layered_repr(f2)))
    cap = max(_form_gens_total(f1), _form_gens_total(f2))
    # Within the capped form space the move relation is symmetric for theories
    # without inverses (merge and split are mutual converses), so exhausting
    # one side enumerates its whole class. With inverses, merges can cancel a
    # layer away without a converse insertion move, so both sides must be
    # exhausted; equal ABGRP forms still always meet at their full merge.
    verdict = _search_connect(f1, f2, lambda f: _neighbors(f, ctx, cap), budget,
                              not ops.group, layered_repr)
    if verdict.is_distinct and th is Theory.GRP:
        # Word reduction can hide merge patterns for GRP, so exhaustion of the
        # explored closure is not a proof there.
        return _unknown("closure exhausted; GRP move set is not known complete")
    return verdict


def mor_equal(t1: MorTerm, t2: MorTerm, net: QNet,
              budget: int | None = None) -> EqVerdict:
    """Decide equality of two process terms in the free category on ``net``."""
    ctx = _context(net)
    f1, tgt1 = _layered_ctx(t1, ctx)
    f2, tgt2 = _layered_ctx(t2, ctx)
    if (f1.start, tgt1) != (f2.start, tgt2):
        return _distinct("source/target pairs differ")
    return _forms_equal(f1, f2, ctx, budget)


# ---------------------------------------------------------------------------
# Layer enumeration, hom-sets, reachability


def _vector_net(net: QNet, places: list[str]) -> tuple[list[str], list, list]:
    """Name-sorted transitions, each with its source counts (``need``) and its
    target minus source counts (``effect``) as (index into ``places``, count)
    pairs, for stepping on place-indexed count vectors."""
    index = {p: j for j, p in enumerate(places)}
    names = sorted(net.transitions)
    need, effect = [], []
    for name in names:
        src, tgt = (occurrences(arc) for arc in net.transitions[name])
        need.append(tuple((index[p], c) for p, c in src.items()))
        effect.append(tuple((index[p], tgt.get(p, 0) - src.get(p, 0))
                            for p in sorted(src.keys() | tgt.keys()) if tgt.get(p) != src.get(p)))
    return names, need, effect


def _firings(need: list, effect: list, counts: list[int],
             max_width: int | None) -> Iterator[tuple[tuple, list[int], list[int]]]:
    """Nonempty transition multisets of at most ``max_width`` firings (no bound
    for None, which needs nonempty sources) that fit the count vector
    ``counts``, as ``(fired, room, out)``: ``(i, k)`` pairs with k > 0 by
    transition index, ``counts`` less the fired sources, and ``counts`` plus
    the fired effects (tables from :func:`_vector_net`). The order is that of
    the count sequences ``(k_0, k_1, ...)``: sorted names, smallest count first.
    """
    # A stack node is a multiset over transitions below i, yielded when
    # popped; its children add k firings of one j >= i, pushed for j
    # ascending and k descending so that the largest j, smallest k pops next.
    stack = [(0, counts, counts, (), max_width)]
    while stack:
        i, room, out, fired, left = stack.pop()
        if fired:
            yield fired, room, out
        for j in range(i, len(need)):
            top = min([room[p] // c for p, c in need[j]], default=left)
            if left is not None and top > left:
                top = left
            if not top:
                continue
            children = []
            r, o = room, out
            for k in range(1, top + 1):
                r, o = r[:], o[:]
                for p, c in need[j]:
                    r[p] -= c
                for p, d in effect[j]:
                    o[p] += d
                children.append((j + 1, r, o, fired + ((j, k),),
                                 None if left is None else left - k))
            stack += reversed(children)


def _step_layers(ctx: _Ctx, marking: FreeElem,
                 max_width: int | None) -> list[FreeElem]:
    """All single firing layers whose source is exactly ``marking``. A
    commutative layer holds a residual of ``marking`` by what it fires; a
    word layer spells ``marking`` left to right."""
    th = ctx.net.theory
    ops = th.ops
    if ops.group:
        raise UnsupportedOperationError(
            f"single-layer enumeration is not finite over {th.value}")
    out: set[FreeElem] = set()
    names = sorted(ctx.net.transitions)
    if ops.commutative and not ops.idempotent:
        counts = dict(marking.payload)
        places = sorted(counts.keys() | set(ctx.net.places))
        names, need, effect = _vector_net(ctx.net, places)
        for fired, room, _ in _firings(need, effect, [counts.get(p, 0) for p in places],
                                       max_width):
            # The room is the residual; its zero counts drop out in the norm.
            out.add(_framed(th, [(names[i], k) for i, k in fired], zip(places, room)))
    elif ops.idempotent:
        widest = len(names) if max_width is None else min(max_width, len(names))
        for r in range(1, widest + 1):
            for group in itertools.combinations(names, r):
                fired_src = ops.norm(itertools.chain.from_iterable(
                    ops.letters(ctx.src_images[nm].payload) for nm in group))
                gens = [(nm, 1) for nm in group]
                for rest in ops.residuals(marking.payload, fired_src):
                    out.add(_framed(th, gens, rest))
    else:
        letters = marking.payload
        width = max_width if max_width is not None else len(letters) + 1
        # Worklist of (pos, width_left, acc): acc spells letters[:pos], and
        # has fired something once width_left is below width.
        stack = [(0, width, ())]
        while stack:
            pos, width_left, acc = stack.pop()
            if width_left == 0:
                # Nothing more can fire: the rest of the word is held at once.
                acc += tuple(ID_PREFIX + x for x in letters[pos:])
                pos = len(letters)
            if pos == len(letters) and width_left != width:
                out.add(FreeElem(th, acc))
            if width_left != 0:
                for name in names:
                    src = ctx.net.transitions[name][0].payload
                    if letters[pos:pos + len(src)] == src:
                        stack.append((pos + len(src), width_left - 1, acc + (name,)))
            if pos < len(letters):
                stack.append((pos + 1, width_left, acc + (ID_PREFIX + letters[pos],)))
    return sorted(out, key=lambda e: e.payload)


def hom_enumerate(net: QNet, x: FreeElem, y: FreeElem, max_layers: int,
                  max_width: int, budget: int | None = None) -> list[MorTerm]:
    """All process-term classes from ``x`` to ``y`` within the layer bounds.

    The layered forms are visited in lexicographic (layer count, serialized
    form) order and each joins the first earlier representative it equals;
    representatives are returned in that order. Forms are bucketed by
    generator occurrence counts (one bucket for SEMILAT, where counts are not
    invariant), and a form equals a representative in its bucket iff it lies
    in the representative's rewrite closure, capped at the larger generator
    count of the two as in :func:`mor_equal`. Each closure is computed once
    and cached. A closure of more than ``budget`` forms falls back to the
    pairwise :func:`mor_equal` decision for that pair. ``budget`` defaults to
    :func:`default_budget`, which raises :class:`QnetError` for a
    ``QNET_BUDGET`` that is not a positive integer.
    """
    ops = net.theory.ops
    if ops.group:
        raise UnsupportedOperationError(
            f"hom-sets over {net.theory.value} are infinite whenever nonempty")
    if max_layers <= 0 or max_width <= 0:
        raise UnsupportedOperationError("layer and width bounds must be positive")
    if budget is None:
        budget = default_budget()
    ctx = _context(net)
    _check_marking(ctx, x)
    _check_marking(ctx, y)
    forms: list[LayeredForm] = []
    # Each marking's layers and their targets, built once for all paths.
    steps: dict[FreeElem, list[tuple[FreeElem, FreeElem]]] = {}

    # Worklist of (marking, layers fired from x to reach it); the forms are
    # sorted below, so the visiting order does not matter.
    stack = [(x, ())]
    while stack:
        marking, acc = stack.pop()
        if marking == y:
            forms.append(LayeredForm(x, acc))
        if len(acc) == max_layers:
            continue
        if marking not in steps:
            steps[marking] = [(layer, _layer_tgt(layer, ctx))
                              for layer in _step_layers(ctx, marking, max_width)]
        stack += [(tgt, acc + (layer,)) for layer, tgt in steps[marking]]
    forms.sort(key=lambda f: (len(f.layers), tuple(l.payload for l in f.layers)))
    # Merge and split are mutual converses within a generator cap (the same
    # fact _search_connect's early exhaustion rests on), so a class is the
    # closure of any member and pairwise equality is closure membership. A
    # closure of at most ``budget`` forms also bounds the pairwise search's
    # expansions, so that search would not have run out of budget either.
    closures: dict[tuple[LayeredForm, int], set[LayeredForm] | None] = {}

    def same_class(form: LayeredForm, rep: LayeredForm, cap: int) -> bool:
        if (rep, cap) not in closures:
            closures[rep, cap] = _closure(rep, ctx, cap, budget)
        closure = closures[rep, cap]
        if closure is None:
            return _forms_equal(form, rep, ctx, budget).is_equal
        return form in closure

    buckets: dict[frozenset | None, list[tuple[LayeredForm, int]]] = {}
    reps: list[LayeredForm] = []
    for form in forms:
        key = None if ops.idempotent else frozenset(_form_occurrences(form).items())
        gens = _form_gens_total(form)
        bucket = buckets.setdefault(key, [])
        if not any(same_class(form, rep, max(gens, rep_gens))
                   for rep, rep_gens in bucket):
            bucket.append((form, gens))
            reps.append(form)
    leaves: dict[str, MorTerm] = {}
    return [_form_term(rep, net.theory, leaves) for rep in reps]


def layered_to_term(form: LayeredForm, net: QNet) -> MorTerm:
    """Convert a layered form back into a process term."""
    _context(net)  # validates the net
    return _form_term(form, net.theory, {})


def _form_term(form: LayeredForm, th: Theory, leaves: dict[str, MorTerm]) -> MorTerm:
    """The process term of ``form``. ``leaves`` caches the leaf of each layer
    letter, so a caller converting many forms builds each identity once."""
    def layer_term(layer: FreeElem) -> MorTerm:
        items: list[MorTerm] = []
        for name, count in th.ops.letters(layer.payload):
            piece = leaves.get(name)
            if piece is None:
                piece = leaves[name] = Ident(unit(th, name[len(ID_PREFIX):])) \
                    if _is_id_sym(name) else Gen(name)
            if count < 0:
                piece = Oper("invert", (piece,))
            items.extend([piece] * abs(count))
        if len(items) == 1:
            return items[0]
        return Oper("combine", tuple(items))

    if not form.layers:
        return Ident(form.start)
    term = layer_term(form.layers[0])
    for layer in form.layers[1:]:
        term = Comp(layer_term(layer), term)
    return term


@dataclass(frozen=True)
class ReachResult:
    start: FreeElem
    max_steps: int
    markings: tuple[FreeElem, ...]
    edges: tuple[tuple[FreeElem, str, FreeElem], ...]
    saturated: bool  # a round found no new marking, so max_steps did not cut it off


def reachable(net: QNet, m0: FreeElem, max_steps: int) -> ReachResult:
    """Breadth-first token game; the step rule is theory-specific.

    CMON fires any multiset of transitions whose combined source fits the
    marking, on count vectors indexed by the sorted places: M - sum k*pre(t)
    + sum k*post(t), enumerated by :func:`_firings` as for
    :func:`_step_layers`; MON rewrites one contiguous source factor; SEMILAT
    fires one transition and keeps each residual of the marking by its source.

    Each distinct marking is built once, through the checked
    :class:`FreeElem` constructor, and every edge into it shares that object.
    Edge labels are the text of :func:`jsonio.dumps` on ``{"fire":{t:k,...}}``
    for CMON, ``{"at":i,"fire":t}`` for MON (``t`` rewrites the factor at
    position ``i``) and ``{"fire":t,"keep":[...]}`` for SEMILAT (the residual
    that stays marked), joined from names quoted once per call; each distinct
    label is built once per call. ``saturated`` tells a fixpoint from a search
    cut off by ``max_steps``.
    """
    th = net.theory
    ops = th.ops
    if ops.group:
        raise UnsupportedOperationError(
            f"reachability over {th.value} is not a token game; use the lattice test")
    _check_marking(_context(net), m0)
    vectors = ops.commutative and not ops.idempotent  # CMON steps on count vectors
    if vectors and any(src.is_neutral() for src, _ in net.transitions.values()):
        raise UnsupportedOperationError(
            "a transition with empty source makes the step relation infinitely branching")
    names = sorted(net.transitions)
    quoted = {x: jsonio.dumps(x) for x in itertools.chain(names, net.places)}

    if vectors:
        places = sorted(net.places)
        _, need, effect = _vector_net(net, places)

        def steps(m: tuple) -> Iterator[tuple[tuple, tuple]]:
            counts = dict(m)
            for fired, _, out in _firings(need, effect, [counts.get(p, 0) for p in places],
                                          None):
                yield fired, tuple(itertools.compress(zip(places, out), out))

        def encode(fired: tuple) -> str:
            return '{"fire":{%s}}' % ",".join(f"{quoted[names[i]]}:{k}" for i, k in fired)
    elif not ops.commutative:
        def steps(m: tuple) -> Iterator[tuple[tuple, tuple]]:
            for name in names:
                src, tgt = (arc.payload for arc in net.transitions[name])
                for pos in range(len(m) - len(src) + 1):
                    if m[pos:pos + len(src)] == src:
                        yield (pos, name), m[:pos] + tgt + m[pos + len(src):]

        def encode(key: tuple) -> str:
            return '{"at":%d,"fire":%s}' % (key[0], quoted[key[1]])
    else:
        def steps(m: tuple) -> Iterator[tuple[tuple, tuple]]:
            for name in names:
                src, tgt = (arc.payload for arc in net.transitions[name])
                for keep in ops.residuals(m, src):
                    yield (name, keep), tuple(sorted(set(keep).union(tgt)))

        def encode(key: tuple) -> str:
            return '{"fire":%s,"keep":[%s]}' % (quoted[key[0]],
                                                 ",".join(quoted[p] for p in key[1]))

    labels: dict[tuple, str] = {}
    # Markings by payload: a payload seen before gets its checked object back.
    seen = {m0.payload: m0}
    frontier = [m0]
    edges: set[tuple[tuple, str, tuple]] = set()
    saturated = False
    for _ in range(max_steps):
        nxt = []
        for m in frontier:
            for key, payload in steps(m.payload):
                text = labels.get(key) or labels.setdefault(key, encode(key))
                edges.add((m.payload, text, payload))
                if payload not in seen:
                    seen[payload] = FreeElem(th, payload)
                    nxt.append(seen[payload])
        if not nxt:
            saturated = True
            break
        frontier = nxt
    return ReachResult(
        m0, max_steps,
        tuple(seen[p] for p in sorted(seen)),
        tuple((seen[a], text, seen[b]) for a, text, b in sorted(edges)),
        saturated)


def reachability_dot(result: ReachResult) -> str:
    """Graphviz rendering: nodes are canonical markings, edges fired layers."""

    def quote(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = ["digraph reachability {"]
    for m in result.markings:
        label = jsonio.dumps(jsonio.elem_to_json(m))
        shape = "doublecircle" if m == result.start else "box"
        lines.append(f"  {quote(label)} [shape={shape}];")
    for src, label, tgt in result.edges:
        lines.append("  {} -> {} [label={}];".format(
            quote(jsonio.dumps(jsonio.elem_to_json(src))),
            quote(jsonio.dumps(jsonio.elem_to_json(tgt))),
            quote(label)))
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
    _check_marking(ctx, x)
    _check_marking(ctx, y)
    places = list(net.places)
    index = {p: i for i, p in enumerate(places)}

    def difference(a: FreeElem, b: FreeElem) -> list[int]:
        """The integer vector b - a over the places."""
        out = [0] * len(places)
        for p, c in b.payload:
            out[index[p]] += c
        for p, c in a.payload:
            out[index[p]] -= c
        return out

    lattice = IntLattice(len(places))
    for src, tgt in net.transitions.values():
        lattice.add(difference(src, tgt))
    return difference(x, y) in lattice


@dataclass(frozen=True)
class UnderlyingNet:
    """Finite truncation of the net underlying the free category."""

    net: QNet
    objects: tuple[FreeElem, ...]
    reps: Mapping[str, MorTerm]
    truncated: bool = True


def underlying_net(net: QNet, bound: int) -> UnderlyingNet:
    """Truncate the free category on ``net`` back to a net.

    Objects are the arc markings plus the place units; transitions are the
    process classes found by :func:`hom_enumerate` with ``bound`` as both the
    layer and width limit.
    """
    if bound <= 0:
        raise UnsupportedOperationError("enumeration bound must be positive")
    if net.theory.ops.group:
        raise UnsupportedOperationError(
            f"underlying-net truncation is not available over {net.theory.value}")
    _context(net)  # validates the net: sorting a mixed-theory net's objects would raise
    objects: set[FreeElem] = set()
    for src, tgt in net.transitions.values():
        objects.add(src)
        objects.add(tgt)
    for p in net.places:
        objects.add(unit(net.theory, p))
    ordered = tuple(sorted(objects, key=lambda e: e.payload))
    transitions = {}
    reps = {}
    counter = 0
    for x in ordered:
        for y in ordered:
            for term in hom_enumerate(net, x, y, bound, bound):
                name = f"mor{counter}"
                counter += 1
                transitions[name] = (x, y)
                reps[name] = term
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
