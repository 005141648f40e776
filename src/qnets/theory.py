"""Canonical arithmetic for free models of the five supported algebraic theories.

A marking over a set of places is an element of the free model of one of five
theories: commutative monoids (multisets), monoids (words), abelian groups
(integer combinations), groups (reduced signed words), and semilattices
(finite sets). Elements are kept in a canonical normal form at all times so
that structural equality coincides with semantic equality; every operation
below returns canonical output.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping


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

    @cached_property
    def ops(self) -> "_Family":
        """How this theory's free model stores and combines its elements."""
        return _OPS[self]


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


_setattr = object.__setattr__


class _Record:
    """Base of the package's value classes. ``==``, ``hash``, ``repr`` and
    pickling read the fields named in ``_fields``, in order, by the formulas
    of a frozen dataclass: ``==`` holds only between objects of one class,
    and assignment raises AttributeError. A subclass stores its fields in
    ``__slots__`` unless it keeps a ``__dict__``, and sets them in its
    ``__init__`` through :meth:`_init` or ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        # Pickle and copy rebuild the object through its constructor, from
        # the fields alone: slots carry no __dict__, and assignment is refused.
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FreeElem(_Record):
    """A canonical element of the free model of ``theory`` on a set of names.

    Payload shapes (see the theory table below): CMON/ABGRP sorted ``(name,
    count)`` pairs with nonzero counts (CMON strictly positive); MON a tuple
    of names; GRP a reduced tuple of ``(name, +1 | -1)`` letters; SEMILAT a
    strictly sorted tuple of names.
    """

    __slots__ = ("theory", "payload", "_hash")
    _fields = ("theory", "payload")

    def __init__(self, theory: Theory, payload: tuple):
        check_canonical(theory, payload)
        _setattr(self, "theory", theory)
        _setattr(self, "payload", payload)
        # Elements are set and dict keys throughout the layer search, so the
        # hash is computed once, by the formula of the fields' tuple. String
        # hashes differ between processes, so pickle and copy do not carry it.
        _setattr(self, "_hash", hash((theory, payload)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.theory is other.theory and self.payload == other.payload

    def __hash__(self) -> int:
        return self._hash

    def atoms(self) -> frozenset[str]:
        """Every name mentioned by the payload."""
        return frozenset(self.theory.ops.names(self.payload))

    def size(self) -> int:
        """Total number of letter occurrences (absolute for signed theories)."""
        return sum(abs(c) for _, c in self.theory.ops.letters(self.payload))

    def is_neutral(self) -> bool:
        return not self.payload


# ---------------------------------------------------------------------------
# The theory table: one payload format per family of free models


class _Family:
    """The payload format of one family of free models.

    ``letters`` reads a payload as ``(name, coefficient)`` pairs, coefficient
    1 where the theory has no counts or signs, and ``names`` as the names
    alone. Only group words are read backwards, so the other families may
    return one-pass iterators. ``norm`` gives the canonical payload of the
    product of any letters, and ``spell`` writes letters back as a payload
    without normalising them. The JSON decode does not normalise either, so
    that :class:`FreeElem` rejects a non-canonical input. The commutative
    families also divide: ``residuals`` gives every frame left beside a part.
    """

    group = False        # every element has an inverse
    commutative = False  # letter order is forgotten
    idempotent = False   # x.x = x

    def letters(self, payload: tuple) -> Iterable[tuple[str, int]]:
        return payload

    def names(self, payload: tuple) -> Iterable[str]:
        return map(itemgetter(0), payload)

    def spell(self, letters: Iterable[tuple[str, int]]) -> tuple:
        return tuple(letters)

    def canon(self, payload: tuple) -> tuple:
        """The normal form of a payload-shaped tuple."""
        return self.norm(self.letters(payload))

    def is_normal(self, payload: tuple) -> bool:
        return self.canon(payload) == payload

    def product(self, *payloads: tuple) -> tuple:
        """The normal form of the product of canonical payloads."""
        return self.norm(chain.from_iterable(map(self.letters, payloads)))

    def inverse(self, payload: tuple) -> tuple:
        """The group inverse of a canonical payload: every letter negated,
        and a word read backwards."""
        letters = self.letters(payload)
        return self.spell((p, -c) for p, c in (letters if self.commutative else reversed(letters)))

    def to_json(self, payload: tuple) -> Any:
        return list(payload)

    def from_json(self, theory: Theory, data: Any) -> tuple:
        if not isinstance(data, list):
            raise CanonicalFormError(f"{theory.value} element must be an array")
        return tuple(data)


class _Counts(_Family):
    """CMON and ABGRP: sorted ``(name, count)`` pairs, counts nonzero, and
    positive unless ``group``."""

    commutative = True

    def __init__(self, group: bool):
        self.group = group

    def norm(self, letters: Iterable[tuple[str, int]]) -> tuple:
        counts: dict = {}
        for p, c in letters:
            # A name's first count is kept as given: a bool is not coerced
            # into an int here, so that ``check`` rejects it.
            counts[p] = counts[p] + c if p in counts else c
        return tuple(sorted((p, c) for p, c in counts.items() if c != 0))

    def residuals(self, whole: tuple, part: tuple) -> Iterator[tuple]:
        """Every ``rest`` with ``rest . part == whole``: ``whole - part``,
        unless a count would go negative without inverses."""
        rest = self.norm(chain(whole, ((p, -c) for p, c in part)))
        if self.group or all(c > 0 for _, c in rest):
            yield rest

    def check(self, theory: Theory, payload: tuple) -> None:
        names = [p for p, _ in payload]
        if names != sorted(names) or len(set(names)) != len(names):
            raise CanonicalFormError(f"{theory.value} payload must be sorted with unique names")
        for p, c in payload:
            # type(), not isinstance(): a bool is an int but not a count.
            if not isinstance(p, str) or type(c) is not int:
                raise CanonicalFormError("count payload entries must be (str, int)")
            if c == 0 or (not self.group and c < 0):
                raise CanonicalFormError(f"invalid count {c} for {p!r} in {theory.value}")

    def to_json(self, payload: tuple) -> Any:
        return dict(payload)

    def from_json(self, theory: Theory, data: Any) -> tuple:
        if not isinstance(data, dict):
            raise CanonicalFormError(f"{theory.value} element must be an object")
        return tuple(sorted(data.items()))


class _Words(_Family):
    """MON: a tuple of names."""

    def letters(self, payload: tuple) -> Iterable[tuple[str, int]]:
        return zip(payload, repeat(1))

    def names(self, payload: tuple) -> Iterable[str]:
        return payload

    def spell(self, letters: Iterable[tuple[str, int]]) -> tuple:
        return tuple(map(itemgetter(0), letters))

    norm = spell

    def check(self, theory: Theory, payload: tuple) -> None:
        if not all(isinstance(p, str) for p in payload):
            raise CanonicalFormError(f"{theory.value} payload must be a tuple of names")


class _Sets(_Words):
    """SEMILAT: a strictly sorted tuple of names."""

    commutative = idempotent = True

    def norm(self, letters: Iterable[tuple[str, int]]) -> tuple:
        return tuple(sorted({p for p, _ in letters}))

    def residuals(self, whole: tuple, part: tuple) -> Iterator[tuple]:
        """Every ``rest`` with ``rest . part == whole``: none unless ``part``
        lies in ``whole``, else ``whole - part`` keeping any subset of ``part``,
        in ``product((False, True))`` order over ``part``, smallest first."""
        base = set(whole).difference(part)
        if len(base) + len(part) != len(whole):
            return
        for bits in product((False, True), repeat=len(part)):
            yield tuple(sorted(base.union(compress(part, bits))))

    def check(self, theory: Theory, payload: tuple) -> None:
        super().check(theory, payload)
        if list(payload) != sorted(set(payload)):
            raise CanonicalFormError(f"{theory.value} payload must be sorted and duplicate-free")


class _SignedWords(_Family):
    """GRP: a freely reduced tuple of ``(name, +1 | -1)`` letters."""

    group = True

    def norm(self, letters: Iterable[tuple[str, int]]) -> tuple:
        # Free-group reduction is confluent, so one stack pass is canonical.
        out: list[tuple[str, int]] = []
        for place, sign in letters:
            if out and out[-1][0] == place and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((place, sign))
        return tuple(out)

    def check(self, theory: Theory, payload: tuple) -> None:
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[0], str) and type(entry[1]) is int
                    and entry[1] in (1, -1)):
                raise CanonicalFormError("GRP letters must be (name, +1|-1)")
        if not self.is_normal(payload):
            raise CanonicalFormError("GRP payload must be a reduced word")

    def to_json(self, payload: tuple) -> Any:
        return [[p, "+" if s > 0 else "-"] for p, s in payload]

    def from_json(self, theory: Theory, data: Any) -> tuple:
        letters = []
        for entry in super().from_json(theory, data):
            if (not isinstance(entry, list)) or len(entry) != 2 or entry[1] not in ("+", "-"):
                raise CanonicalFormError("GRP letters must look like [\"a\",\"+\"]")
            letters.append((entry[0], 1 if entry[1] == "+" else -1))
        return tuple(letters)


_OPS = {
    Theory.CMON: _Counts(group=False),
    Theory.ABGRP: _Counts(group=True),
    Theory.MON: _Words(),
    Theory.GRP: _SignedWords(),
    Theory.SEMILAT: _Sets(),
}


def check_canonical(theory: Theory, payload: tuple) -> None:
    """Raise CanonicalFormError unless ``payload`` is in normal form."""
    if not isinstance(payload, tuple):
        raise CanonicalFormError(f"payload must be a tuple, got {type(payload).__name__}")
    if not isinstance(theory, Theory):  # pragma: no cover - not a Theory member
        raise CanonicalFormError(f"unknown theory {theory}")
    theory.ops.check(theory, payload)


def multiset(theory: Theory, counts: Mapping[str, int]) -> FreeElem:
    """Build a CMON or ABGRP element from a name-to-count mapping."""
    ops = theory.ops
    if ops.idempotent or not ops.commutative:
        raise TheoryMismatchError(f"{theory.value} elements are not count vectors")
    return FreeElem(theory, ops.norm(counts.items()))


def word(letters: Iterable[str]) -> FreeElem:
    """Build a MON word from a sequence of names."""
    return FreeElem(Theory.MON, tuple(letters))


def signed_word(letters: Iterable[tuple[str, int]]) -> FreeElem:
    """Build a GRP element; the input is reduced to canonical form."""
    return FreeElem(Theory.GRP, _OPS[Theory.GRP].norm(letters))


def finset(names: Iterable[str]) -> FreeElem:
    """Build a SEMILAT element (sorted, deduplicated)."""
    return FreeElem(Theory.SEMILAT, tuple(sorted(set(names))))


def unit(theory: Theory, place: str) -> FreeElem:
    """The canonical singleton image of one name."""
    return FreeElem(theory, theory.ops.spell(((place, 1),)))


def neutral(theory: Theory) -> FreeElem:
    """The empty element; two-sided identity for :func:`combine`."""
    return FreeElem(theory, ())


def combine(theory: Theory, *elems: FreeElem) -> FreeElem:
    """The theory's operation on any number of elements, normalised once:
    the product of a list flattens in one step, as the monad's
    multiplication does. No elements give the neutral element."""
    for e in elems:
        if e.theory is not theory:
            raise TheoryMismatchError(
                f"combine over {theory.value} got {' and '.join(e.theory.value for e in elems)}")
    return FreeElem(theory, theory.ops.product(*[e.payload for e in elems]))


def invert(x: FreeElem) -> FreeElem:
    """Group inverse; rejected for theories without an inverse operation."""
    if not x.theory.ops.group:
        raise UnsupportedOperationError(f"{x.theory.value} has no inverse operation")
    return FreeElem(x.theory, x.theory.ops.inverse(x.payload))


def lift(theory: Theory, mapping: Mapping[str, str], x: FreeElem) -> FreeElem:
    """Apply the homomorphic extension of a renaming of places, recanonicalizing."""
    if x.theory is not theory:
        raise TheoryMismatchError(f"lift over {theory.value} got {x.theory.value}")
    missing = x.atoms() - mapping.keys()
    if missing:
        raise UnmappedNameError(f"unmapped names: {sorted(missing)}")
    ops = theory.ops
    return FreeElem(theory, ops.norm((mapping[p], c) for p, c in ops.letters(x.payload)))


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
    ops = theory.ops
    out: list[tuple[str, int]] = []
    for p, c in ops.letters(x.payload):
        image = images[p]
        if image.theory is not theory:
            raise TheoryMismatchError(
                f"extend over {theory.value} got a {image.theory.value} image for {p!r}")
        letters = ops.letters(image.payload)
        if c < 0 and not ops.commutative:
            letters = reversed(letters)  # an inverse word reads backwards
        out.extend((q, c * d) for q, d in letters)
    return FreeElem(theory, ops.norm(out))


def translate(arrow: TheoryArrow, x: FreeElem) -> FreeElem:
    """Move an element along a catalog arrow (the monad-morphism component).

    Every catalog arrow sends each generator to a generator, so an element
    moves by reading its letters in the target theory.
    """
    if x.theory is not arrow.source:
        raise TheoryMismatchError(
            f"arrow {arrow.value} starts at {arrow.source.value}, got {x.theory.value}")
    return FreeElem(arrow.target, arrow.target.ops.norm(x.theory.ops.letters(x.payload)))


def occurrences(x: FreeElem) -> dict[str, int]:
    """Name-to-count view of any element (signed for group theories)."""
    counts: dict[str, int] = {}
    for p, c in x.theory.ops.letters(x.payload):
        counts[p] = counts.get(p, 0) + c
    return {p: c for p, c in counts.items() if c != 0}
