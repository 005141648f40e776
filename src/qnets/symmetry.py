"""Freely added symmetries for word-marked nets, and linearizations.

Symmetries are represented extensionally as position permutations of a word
marking, so permutation composition and the braid axioms hold definitionally;
the interesting interaction is sliding a firing layer past a permutation,
which the equality search performs in both directions.

Linearization sends a multiset-marked net to the word-marked nets in its
abelianization preimage: every ordering of every arc payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

from . import freecat
from .freecat import (
    Comp,
    EqVerdict,
    Gen,
    Ident,
    IllTypedTermError,
    LayeredForm,
    MorTerm,
    Oper,
    _context,
    _distinct,
    _equal,
    _unknown,
    default_budget,
)
from .net import QNet
from .theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    UnsupportedOperationError,
    combine,
    invert,
    neutral,
    translate,
)


@dataclass(frozen=True)
class Perm:
    """Position permutation of a word marking: letter ``i`` of ``word`` moves
    to position ``mapping[i]`` of the target word."""

    word: FreeElem
    mapping: tuple[int, ...]


SymTerm = Union[MorTerm, Perm]


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
    n = len(t.word.payload)
    if sorted(t.mapping) != list(range(n)):
        raise IllTypedTermError("mapping is not a permutation of the letter positions")
    if not theory.ops.is_normal(_apply_perm(t.word.payload, t.mapping)):
        raise UnsupportedOperationError(
            "permutation target would cancel; not representable letterwise")


def perm_tgt(t: Perm) -> FreeElem:
    return FreeElem(t.word.theory, _apply_perm(t.word.payload, t.mapping))


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


@dataclass(frozen=True)
class _PermLayer:
    word: FreeElem
    mapping: tuple[int, ...]


SymLayer = Union[FreeElem, _PermLayer]


@dataclass(frozen=True)
class SymForm:
    start: FreeElem
    layers: tuple[SymLayer, ...]


def _is_perm_layer(layer: SymLayer) -> bool:
    return isinstance(layer, _PermLayer)


def _sym_layer_src(layer: SymLayer, ctx) -> FreeElem:
    if _is_perm_layer(layer):
        return layer.word
    return freecat._layer_src(layer, ctx)


def _sym_layer_tgt(layer: SymLayer, ctx) -> FreeElem:
    if _is_perm_layer(layer):
        return FreeElem(layer.word.theory, _apply_perm(layer.word.payload, layer.mapping))
    return freecat._layer_tgt(layer, ctx)


def _identity_mapping(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _drop_trivial(layers: tuple[SymLayer, ...]) -> tuple[SymLayer, ...]:
    out = []
    for layer in layers:
        if _is_perm_layer(layer):
            if layer.mapping != _identity_mapping(len(layer.mapping)):
                out.append(layer)
        elif not freecat._pure_id(layer):
            out.append(layer)
    return tuple(out)


def _pad(prefix: FreeElem, layer: SymLayer, suffix: FreeElem) -> SymLayer:
    """``layer`` between identities on ``prefix`` and ``suffix``."""
    th = prefix.theory
    if _is_perm_layer(layer):
        m, n = len(prefix.payload), len(layer.mapping)
        word = combine(th, combine(th, prefix, layer.word), suffix)
        mapping = (tuple(range(m)) + tuple(m + t for t in layer.mapping)
                   + tuple(range(m + n, m + n + len(suffix.payload))))
        return _PermLayer(word, mapping)
    return combine(th, combine(th, freecat._identity_layer(th, prefix), layer),
                   freecat._identity_layer(th, suffix))


def _sym_layers(t: SymTerm, ctx) -> tuple[FreeElem, FreeElem, tuple[SymLayer, ...]]:
    """Source, target and layers of a symmetric term. Like
    :func:`freecat._layers_of`, it walks with an explicit stack: each node is
    checked when first popped, and folded from its children's results, left
    to right, when popped again."""
    th = ctx.net.theory
    done: list[tuple[FreeElem, FreeElem, tuple[SymLayer, ...]]] = []
    stack: list[tuple[SymTerm, bool]] = [(t, False)]
    while stack:
        t, fold = stack.pop()
        if fold and isinstance(t, Comp):
            src_a, tgt_a, layers_a = done.pop()
            src_b, tgt_b, layers_b = done.pop()
            if tgt_b != src_a:
                raise IllTypedTermError("composite mismatch in symmetric term")
            done.append((src_b, tgt_a, layers_b + layers_a))
        elif fold and t.op == "invert":
            src, tgt, layers = done.pop()
            done.append((invert(src), invert(tgt), tuple(_invert_layer(l) for l in layers)))
        elif fold:
            args = done[-len(t.args):]
            del done[-len(t.args):]
            src, tgt, layers = args[0]
            for src_b, tgt_b, layers_b in args[1:]:
                if (all(not _is_perm_layer(l) for l in layers)
                        and all(not _is_perm_layer(l) for l in layers_b)):
                    layers = freecat._zip_layers(th, (src, layers), (src_b, layers_b))
                else:
                    layers = tuple(_pad(neutral(th), l, src_b) for l in layers) + \
                        tuple(_pad(tgt, l, neutral(th)) for l in layers_b)
                src = combine(th, src, src_b)
                tgt = combine(th, tgt, tgt_b)
            done.append((src, tgt, layers))
        elif isinstance(t, Perm):
            _check_perm(t, th)
            if t.word.atoms() - set(ctx.net.places):
                raise IllTypedTermError("permutation word mentions undeclared places")
            done.append((t.word, perm_tgt(t), (_PermLayer(t.word, t.mapping),)))
        elif isinstance(t, (Gen, Ident)):
            done.append(freecat._layers_of(t, ctx))
        elif isinstance(t, Comp):
            stack += [(t, True), (t.after, False), (t.before, False)]
        elif isinstance(t, Oper) and t.op == "combine":
            if len(t.args) < 2:
                raise IllTypedTermError("combine needs at least two arguments")
            stack.append((t, True))
            stack += [(a, False) for a in reversed(t.args)]
        elif isinstance(t, Oper) and t.op == "invert":
            if th is not Theory.GRP:
                raise IllTypedTermError("invert needs the GRP theory")
            if len(t.args) != 1:
                raise IllTypedTermError("invert takes exactly one argument")
            stack += [(t, True), (t.args[0], False)]
        else:
            raise IllTypedTermError(f"not a symmetric process term: {t!r}")
    return done[0]


def _invert_layer(layer: SymLayer) -> SymLayer:
    if _is_perm_layer(layer):
        n = len(layer.word.payload)
        mapping = tuple(n - 1 - layer.mapping[n - 1 - i] for i in range(n))
        return _PermLayer(invert(layer.word), mapping)
    return invert(layer)


def sym_layered(t: SymTerm, net: QNet) -> SymForm:
    ctx = _context(net)
    src, _tgt, layers = _sym_layers(t, ctx)
    return SymForm(src, _drop_trivial(layers))


def _blocks(lengths: list[int]) -> list[tuple[int, int]]:
    out = []
    offset = 0
    for n in lengths:
        out.append((offset, n))
        offset += n
    return out


def _inverse(mapping) -> tuple[int, ...]:
    out = [0] * len(mapping)
    for i, target in enumerate(mapping):
        out[target] = i
    return tuple(out)


def _slide(layer: FreeElem, perm: _PermLayer, ctx,
           before: bool) -> list[tuple[SymLayer, SymLayer]]:
    """Slide a generator layer across an adjacent permutation that moves whole
    blocks of it: [layer, perm] becomes [perm', layer'] when the layer fires
    ``before`` the permutation, and [perm, layer] becomes [layer', perm']
    otherwise. The layer's end next to the permutation fixes the new letter
    order; its far end gives the blocks of the new permutation."""
    th = ctx.net.theory
    letters = layer.payload
    near = [freecat._held(l, 1 if before else 0, ctx) for l in letters]
    far = [freecat._held(l, 0 if before else 1, ctx) for l in letters]
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
    new_offsets = {}
    offset = 0
    for j in order:
        new_offsets[j] = offset
        offset += len(far[j])
    # Far-end block positions of the old letter order -> the new order.
    forward = [0] * offset
    for j, (off, size) in enumerate(_blocks([len(w) for w in far])):
        for k in range(size):
            forward[off + k] = new_offsets[j] + k
    new_mapping = tuple(forward) if before else _inverse(forward)
    word = _sym_layer_src(layer, ctx) if before else _sym_layer_tgt(new_layer, ctx)
    if len(word.payload) != len(new_mapping):
        return []
    if not th.ops.is_normal(_apply_perm(word.payload, new_mapping)):
        return []
    new_perm = _PermLayer(word, new_mapping)
    return [(new_perm, new_layer) if before else (new_layer, new_perm)]


def _sym_neighbors(form: SymForm, ctx) -> Iterator[SymForm]:
    layers = form.layers
    for i in range(len(layers) - 1):
        a, b = layers[i], layers[i + 1]
        if _is_perm_layer(a) and _is_perm_layer(b):
            composed = tuple(b.mapping[a.mapping[k]] for k in range(len(a.mapping)))
            merged: tuple[SymLayer, ...]
            if composed == _identity_mapping(len(composed)):
                merged = ()
            else:
                merged = (_PermLayer(a.word, composed),)
            yield SymForm(form.start, layers[:i] + merged + layers[i + 2:])
        elif not _is_perm_layer(a) and not _is_perm_layer(b):
            for n in freecat._merges(a, b, ctx):
                mid = () if freecat._pure_id(n) else (n,)
                yield SymForm(form.start, layers[:i] + mid + layers[i + 2:])
        else:
            before = not _is_perm_layer(a)
            for pair in _slide(a if before else b, b if before else a, ctx, before):
                yield SymForm(form.start, layers[:i] + pair + layers[i + 2:])
    for i, layer in enumerate(layers):
        if not _is_perm_layer(layer):
            for x, y in freecat._splits(layer, ctx):
                yield SymForm(form.start, layers[:i] + (x, y) + layers[i + 1:])


def _sym_occurrences(form: SymForm) -> dict[str, int]:
    totals: dict[str, int] = {}
    for layer in form.layers:
        if _is_perm_layer(layer):
            continue
        for name, count in freecat._form_occurrences(
                LayeredForm(form.start, (layer,))).items():
            totals[name] = totals.get(name, 0) + count
    return {n: c for n, c in totals.items() if c != 0}


def sym_repr(form: SymForm) -> str:
    parts = []
    for layer in form.layers:
        if _is_perm_layer(layer):
            parts.append(f"perm{list(layer.mapping)}")
        else:
            parts.append(freecat.layered_repr(LayeredForm(form.start, (layer,))))
    return " ; ".join(parts) if parts else "identity"


def sym_equal(t1: SymTerm, t2: SymTerm, net: QNet,
              budget: int | None = None) -> EqVerdict:
    """Equality in the freely symmetrized category on a word-marked net.

    ``Distinct`` comes only from invariants (endpoints, generator counts);
    the search certifies ``Equal`` and otherwise reports ``Unknown``.
    """
    if net.theory.ops.commutative:
        raise UnsupportedOperationError("symmetric terms need a word-marked net")
    if budget is None:
        budget = default_budget()
    ctx = _context(net)
    src1, tgt1, layers1 = _sym_layers(t1, ctx)
    src2, tgt2, layers2 = _sym_layers(t2, ctx)
    if (src1, tgt1) != (src2, tgt2):
        return _distinct("source/target pairs differ")
    f1 = SymForm(src1, _drop_trivial(layers1))
    f2 = SymForm(src2, _drop_trivial(layers2))
    if f1 == f2:
        return _equal("identical layered forms")
    if _sym_occurrences(f1) != _sym_occurrences(f2):
        return _distinct("generator occurrence counts differ")
    verdict = freecat._search_connect(f1, f2, lambda f: _sym_neighbors(f, ctx), budget,
                                      False, sym_repr)
    if verdict.is_distinct:
        return _unknown("closures exhausted; symmetric move set is not known complete")
    return verdict


def _map_leaves(t: SymTerm, leaf) -> SymTerm:
    """Rebuild ``t`` with every node other than ``Comp`` and ``Oper`` replaced
    by ``leaf(node)``. Leaves are visited in written order (a ``Comp``'s
    ``after`` first), with an explicit stack so deep terms stay off the Python
    call stack."""
    done: list[SymTerm] = []
    stack: list[tuple[SymTerm, bool]] = [(t, False)]
    while stack:
        t, fold = stack.pop()
        if fold and isinstance(t, Comp):
            before = done.pop()
            done.append(Comp(done.pop(), before))
        elif fold:
            cut = len(done) - len(t.args)
            args = tuple(done[cut:])
            del done[cut:]
            done.append(Oper(t.op, args))
        elif isinstance(t, Comp):
            stack += [(t, True), (t.before, False), (t.after, False)]
        elif isinstance(t, Oper):
            stack.append((t, True))
            stack += [(a, False) for a in reversed(t.args)]
        else:
            done.append(leaf(t))
    return done[0]


def erase_symmetries(t: SymTerm) -> MorTerm:
    """Replace every permutation node by the identity on its word."""
    return _map_leaves(t, lambda leaf: Ident(leaf.word) if isinstance(leaf, Perm) else leaf)


def translate_term(arrow: TheoryArrow, t: MorTerm) -> MorTerm:
    """Push a process term along a catalog arrow (objects are translated,
    generators keep their names)."""

    def leaf(t: MorTerm) -> MorTerm:
        if isinstance(t, Gen):
            return t
        if isinstance(t, Ident):
            return Ident(translate(arrow, t.obj))
        raise IllTypedTermError(f"not a process term: {t!r}")

    return _map_leaves(t, leaf)


def _distinct_orderings(letters: list) -> list[tuple]:
    """Sorted distinct permutations of a letter multiset."""
    return sorted(set(itertools.permutations(letters)))


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
    before negatives, which truncates the infinite true preimage.
    """
    arrow = _abelianization(p.theory)
    if arrow is None:
        raise UnsupportedOperationError(
            f"linearization applies to CMON or ABGRP nets, not {p.theory.value}")
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


def linearization_count(p: QNet) -> int:
    """Closed form for ``len(linearizations(p))``: a product of multinomials."""
    import math

    total = 1
    for src, tgt in p.transitions.values():
        for elem in (src, tgt):
            ways = math.factorial(elem.size())
            for _, c in elem.payload:
                ways //= math.factorial(abs(c))
            total *= ways
    return total


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
