"""Canonical arithmetic for free models of the five supported algebraic theories.

A marking over a set of places is an element of the free model of one of five
theories: commutative monoids (multisets), monoids (words), abelian groups
(integer combinations), groups (reduced signed words), and semilattices
(finite sets). Elements are kept in a canonical normal form at all times so
that structural equality coincides with semantic equality; every operation
below returns canonical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping


class QnetError(Exception):
    """Base class for domain errors (mapped to CLI exit code 1)."""


class TheoryMismatchError(QnetError):
    pass


class UnsupportedOperationError(QnetError):
    pass


class UnmappedNameError(QnetError):
    pass


class CanonicalFormError(QnetError):
    pass


class Theory(Enum):
    CMON = "CMON"
    MON = "MON"
    ABGRP = "ABGRP"
    GRP = "GRP"
    SEMILAT = "SEMILAT"


COUNT_THEORIES = frozenset({Theory.CMON, Theory.ABGRP})
GROUP_THEORIES = frozenset({Theory.ABGRP, Theory.GRP})
COMMUTATIVE_THEORIES = frozenset({Theory.CMON, Theory.ABGRP, Theory.SEMILAT})


class TheoryArrow(Enum):
    """The five catalog translations; the enum value doubles as the CLI tag."""

    SUPPORT = "a"       # CMON -> SEMILAT: forget multiplicities
    SIGNED = "b"        # CMON -> ABGRP: multisets as nonnegative integer vectors
    ABELIANIZE = "c"    # MON -> CMON: count letters, forget order
    FREE_GROUP = "d"    # MON -> GRP: words as all-positive group words
    GROUP_SIGNED = "e"  # GRP -> ABGRP: signed letter counts

    @property
    def source(self) -> Theory:
        return _ARROW_ENDS[self][0]

    @property
    def target(self) -> Theory:
        return _ARROW_ENDS[self][1]


_ARROW_ENDS = {
    TheoryArrow.SUPPORT: (Theory.CMON, Theory.SEMILAT),
    TheoryArrow.SIGNED: (Theory.CMON, Theory.ABGRP),
    TheoryArrow.ABELIANIZE: (Theory.MON, Theory.CMON),
    TheoryArrow.FREE_GROUP: (Theory.MON, Theory.GRP),
    TheoryArrow.GROUP_SIGNED: (Theory.GRP, Theory.ABGRP),
}


def _reduce_word(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    # Free-group reduction is confluent, so one stack pass is canonical.
    out: list[tuple[str, int]] = []
    for place, sign in pairs:
        if out and out[-1][0] == place and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((place, sign))
    return tuple(out)


@dataclass(frozen=True)
class FreeElem:
    """A canonical element of the free model of ``theory`` on a set of names.

    Payload shapes: CMON/ABGRP sorted ``(name, count)`` pairs with nonzero
    counts (CMON strictly positive); MON a tuple of names; GRP a reduced tuple
    of ``(name, +1 | -1)`` letters; SEMILAT a strictly sorted tuple of names.
    """

    theory: Theory
    payload: tuple

    def __post_init__(self):
        check_canonical(self.theory, self.payload)
        # Elements are set and dict keys throughout the layer search, so the
        # hash is computed once, by the formula the dataclass would use.
        object.__setattr__(self, "_hash", hash((self.theory, self.payload)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: pickle and copy rebuild the
        # element through the checked constructor instead of carrying _hash.
        return FreeElem, (self.theory, self.payload)

    def atoms(self) -> frozenset[str]:
        """Every name mentioned by the payload."""
        if self.theory in COUNT_THEORIES or self.theory is Theory.GRP:
            return frozenset(p for p, _ in self.payload)
        return frozenset(self.payload)

    def size(self) -> int:
        """Total number of letter occurrences (absolute for signed theories)."""
        if self.theory in COUNT_THEORIES:
            return sum(abs(c) for _, c in self.payload)
        return len(self.payload)

    def is_neutral(self) -> bool:
        return not self.payload


def check_canonical(theory: Theory, payload: tuple) -> None:
    """Raise CanonicalFormError unless ``payload`` is in normal form."""
    if not isinstance(payload, tuple):
        raise CanonicalFormError(f"payload must be a tuple, got {type(payload).__name__}")
    if theory in COUNT_THEORIES:
        names = [p for p, _ in payload]
        if names != sorted(names) or len(set(names)) != len(names):
            raise CanonicalFormError(f"{theory.value} payload must be sorted with unique names")
        for p, c in payload:
            # type(), not isinstance(): a bool is an int but not a count.
            if not isinstance(p, str) or type(c) is not int:
                raise CanonicalFormError("count payload entries must be (str, int)")
            if c == 0 or (theory is Theory.CMON and c < 0):
                raise CanonicalFormError(f"invalid count {c} for {p!r} in {theory.value}")
    elif theory is Theory.MON:
        if not all(isinstance(p, str) for p in payload):
            raise CanonicalFormError("MON payload must be a tuple of names")
    elif theory is Theory.GRP:
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[0], str) and type(entry[1]) is int
                    and entry[1] in (1, -1)):
                raise CanonicalFormError("GRP letters must be (name, +1|-1)")
        if _reduce_word(payload) != payload:
            raise CanonicalFormError("GRP payload must be a reduced word")
    elif theory is Theory.SEMILAT:
        if not all(isinstance(p, str) for p in payload):
            raise CanonicalFormError("SEMILAT payload must be a tuple of names")
        if list(payload) != sorted(set(payload)):
            raise CanonicalFormError("SEMILAT payload must be sorted and duplicate-free")
    else:  # pragma: no cover - closed enumeration
        raise CanonicalFormError(f"unknown theory {theory}")


def _from_counts(theory: Theory, counts: Mapping[str, int]) -> FreeElem:
    payload = tuple(sorted((p, c) for p, c in counts.items() if c != 0))
    return FreeElem(theory, payload)


def multiset(theory: Theory, counts: Mapping[str, int]) -> FreeElem:
    """Build a CMON or ABGRP element from a name-to-count mapping."""
    if theory not in COUNT_THEORIES:
        raise TheoryMismatchError(f"{theory.value} elements are not count vectors")
    return _from_counts(theory, counts)


def word(letters: Iterable[str]) -> FreeElem:
    """Build a MON word from a sequence of names."""
    return FreeElem(Theory.MON, tuple(letters))


def signed_word(letters: Iterable[tuple[str, int]]) -> FreeElem:
    """Build a GRP element; the input is reduced to canonical form."""
    return FreeElem(Theory.GRP, _reduce_word(letters))


def finset(names: Iterable[str]) -> FreeElem:
    """Build a SEMILAT element (sorted, deduplicated)."""
    return FreeElem(Theory.SEMILAT, tuple(sorted(set(names))))


def unit(theory: Theory, place: str) -> FreeElem:
    """The canonical singleton image of one name."""
    if theory in COUNT_THEORIES:
        return FreeElem(theory, ((place, 1),))
    if theory is Theory.GRP:
        return FreeElem(theory, ((place, 1),))
    return FreeElem(theory, (place,))


def neutral(theory: Theory) -> FreeElem:
    """The empty element; two-sided identity for :func:`combine`."""
    return FreeElem(theory, ())


def combine(theory: Theory, x: FreeElem, y: FreeElem) -> FreeElem:
    """The theory's binary operation, in canonical form."""
    if x.theory is not theory or y.theory is not theory:
        raise TheoryMismatchError(
            f"combine over {theory.value} got {x.theory.value} and {y.theory.value}")
    if theory in COUNT_THEORIES:
        counts = dict(x.payload)
        for p, c in y.payload:
            counts[p] = counts.get(p, 0) + c
        return _from_counts(theory, counts)
    if theory is Theory.MON:
        return FreeElem(theory, x.payload + y.payload)
    if theory is Theory.GRP:
        return FreeElem(theory, _reduce_word(x.payload + y.payload))
    return FreeElem(theory, tuple(sorted(set(x.payload) | set(y.payload))))


def combine_all(theory: Theory, elems: Iterable[FreeElem]) -> FreeElem:
    out = neutral(theory)
    for e in elems:
        out = combine(theory, out, e)
    return out


def invert(x: FreeElem) -> FreeElem:
    """Group inverse; rejected for theories without an inverse operation."""
    if x.theory is Theory.ABGRP:
        return FreeElem(x.theory, tuple((p, -c) for p, c in x.payload))
    if x.theory is Theory.GRP:
        return FreeElem(x.theory, tuple((p, -s) for p, s in reversed(x.payload)))
    raise UnsupportedOperationError(f"{x.theory.value} has no inverse operation")


def lift(theory: Theory, mapping: Mapping[str, str], x: FreeElem) -> FreeElem:
    """Apply the homomorphic extension of a renaming of places, recanonicalizing."""
    if x.theory is not theory:
        raise TheoryMismatchError(f"lift over {theory.value} got {x.theory.value}")
    missing = x.atoms() - mapping.keys()
    if missing:
        raise UnmappedNameError(f"unmapped names: {sorted(missing)}")
    if theory in COUNT_THEORIES:
        counts: dict[str, int] = {}
        for p, c in x.payload:
            q = mapping[p]
            counts[q] = counts.get(q, 0) + c
        return _from_counts(theory, counts)
    if theory is Theory.MON:
        return FreeElem(theory, tuple(mapping[p] for p in x.payload))
    if theory is Theory.GRP:
        return FreeElem(theory, _reduce_word((mapping[p], s) for p, s in x.payload))
    return FreeElem(theory, tuple(sorted({mapping[p] for p in x.payload})))


def extend(theory: Theory, images: Mapping[str, FreeElem], x: FreeElem) -> FreeElem:
    """Evaluate the unique homomorphism sending each generator to ``images[g]``.

    This is the universal property of the free model: a generator-image map
    extends to every element, so homomorphisms are stored as finite data.
    """
    if x.theory is not theory:
        raise TheoryMismatchError(f"extend over {theory.value} got {x.theory.value}")
    missing = x.atoms() - images.keys()
    if missing:
        raise UnmappedNameError(f"unmapped generators: {sorted(missing)}")
    if theory in COUNT_THEORIES:
        counts: dict[str, int] = {}
        for p, c in x.payload:
            image = images[p]
            if image.theory is not theory:
                raise TheoryMismatchError(
                    f"extend over {theory.value} got a {image.theory.value} image for {p!r}")
            for q, d in image.payload:
                counts[q] = counts.get(q, 0) + c * d
        return _from_counts(theory, counts)
    out = neutral(theory)
    if theory is Theory.MON:
        for p in x.payload:
            out = combine(theory, out, images[p])
    elif theory is Theory.GRP:
        for p, s in x.payload:
            img = images[p] if s > 0 else invert(images[p])
            out = combine(theory, out, img)
    else:
        for p in x.payload:
            out = combine(theory, out, images[p])
    return out


def translate(arrow: TheoryArrow, x: FreeElem) -> FreeElem:
    """Move an element along a catalog arrow (the monad-morphism component)."""
    if x.theory is not arrow.source:
        raise TheoryMismatchError(
            f"arrow {arrow.value} starts at {arrow.source.value}, got {x.theory.value}")
    if arrow is TheoryArrow.SUPPORT:
        return FreeElem(Theory.SEMILAT, tuple(sorted(p for p, _ in x.payload)))
    if arrow is TheoryArrow.SIGNED:
        return FreeElem(Theory.ABGRP, x.payload)
    if arrow is TheoryArrow.ABELIANIZE:
        counts: dict[str, int] = {}
        for p in x.payload:
            counts[p] = counts.get(p, 0) + 1
        return _from_counts(Theory.CMON, counts)
    if arrow is TheoryArrow.FREE_GROUP:
        return FreeElem(Theory.GRP, tuple((p, 1) for p in x.payload))
    counts = {}
    for p, s in x.payload:
        counts[p] = counts.get(p, 0) + s
    return _from_counts(Theory.ABGRP, counts)


def occurrences(x: FreeElem) -> dict[str, int]:
    """Name-to-count view of any element (signed for group theories)."""
    if x.theory in COUNT_THEORIES:
        return dict(x.payload)
    counts: dict[str, int] = {}
    if x.theory is Theory.GRP:
        for p, s in x.payload:
            counts[p] = counts.get(p, 0) + s
        return {p: c for p, c in counts.items() if c != 0}
    for p in x.payload:
        counts[p] = counts.get(p, 0) + 1
    return counts
