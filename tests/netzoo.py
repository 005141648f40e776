"""Shared fixture nets for the unit and acceptance tests."""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager

from qnets import QNet, Theory, finset, multiset, signed_word, word


@contextmanager
def shallow_stack(frames: int = 100):
    """Lower the recursion limit to ``frames`` above the caller's depth, so
    code whose recursion follows its input fails on a small input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def cmon(counts) -> object:
    return multiset(Theory.CMON, counts)


def intvec(counts) -> object:
    return multiset(Theory.ABGRP, counts)


def petri(places, arcs) -> QNet:
    return QNet(Theory.CMON, tuple(places),
                {name: (cmon(src), cmon(tgt)) for name, (src, tgt) in arcs.items()})


def prenet(places, arcs) -> QNet:
    return QNet(Theory.MON, tuple(places),
                {name: (word(src), word(tgt)) for name, (src, tgt) in arcs.items()})


def elementary(places, arcs) -> QNet:
    return QNet(Theory.SEMILAT, tuple(places),
                {name: (finset(src), finset(tgt)) for name, (src, tgt) in arcs.items()})


def integer_net(places, arcs) -> QNet:
    return QNet(Theory.ABGRP, tuple(places),
                {name: (intvec(src), intvec(tgt)) for name, (src, tgt) in arcs.items()})


def signed(letters: str) -> object:
    """A GRP word: a lower-case letter is a place, an upper-case one its inverse."""
    return signed_word([(c.lower(), 1 if c.islower() else -1) for c in letters])


def group_net(places, arcs) -> QNet:
    return QNet(Theory.GRP, tuple(places),
                {name: (signed(src), signed(tgt)) for name, (src, tgt) in arcs.items()})


def words_up_to(places, max_len: int) -> list:
    """Every word over ``places`` of at most ``max_len`` letters, shortest
    first and in lexicographic order within one length."""
    return [word(letters) for length in range(max_len + 1)
            for letters in itertools.product(places, repeat=length)]


TOKEN_GAME_NETS = [
    petri("ab", {"t": ({"a": 1}, {"b": 1})}),
    petri("ab", {"t": ({"a": 2}, {"b": 1})}),
    petri("abc", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"c": 1})}),
    petri("abc", {"t": ({"a": 1, "b": 1}, {"c": 2})}),
    petri("ab", {"t": ({"a": 1}, {"a": 1, "b": 1})}),
    petri("abcd", {"t": ({"a": 1}, {"b": 1}), "u": ({"c": 1}, {"d": 1}),
                   "v": ({"b": 1, "d": 1}, {"a": 1})}),
    petri("ab", {"t": ({"a": 1}, {"b": 2}), "u": ({"b": 2}, {"a": 1})}),
    petri("abc", {"t": ({"a": 2}, {"b": 1}), "u": ({"b": 1}, {"c": 1}),
                  "v": ({"c": 1}, {"a": 2})}),
    petri("a", {"t": ({"a": 1}, {})}),
    petri("abcd", {"t": ({"a": 1, "c": 1}, {"b": 1}), "u": ({"b": 1}, {"c": 1, "d": 1}),
                   "v": ({"d": 2}, {"a": 1}), "w": ({"b": 1}, {"b": 1})}),
]

PRE_NETS = [
    prenet("abc", {"t": ("aa", "c")}),
    prenet("ab", {"t": ("a", "b")}),
    prenet("ab", {"t": ("ab", "ba")}),
    prenet("abc", {"t": ("a", "b"), "u": ("b", "c")}),
    prenet("ab", {"t": ("a", "ab")}),
    prenet("abc", {"t": ("ab", "c"), "u": ("c", "ab")}),
    prenet("ab", {"t": ("aa", "b"), "u": ("b", "aa")}),
    prenet("abc", {"t": ("abc", "")}),
    prenet("ab", {"t": ("a", ""), "u": ("b", "a")}),
    prenet("abcd", {"t": ("ab", "cd"), "u": ("dc", "ba")}),
]

INTEGER_NETS = [
    integer_net("a", {"t": ({"a": 2}, {})}),
    integer_net("ab", {"t": ({"a": 1}, {"b": 1})}),
    integer_net("ab", {"t": ({"a": 2}, {"b": 1})}),
    integer_net("abc", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 2}, {"c": 1})}),
    integer_net("ab", {"t": ({"a": 1, "b": -1}, {})}),
    integer_net("abc", {"t": ({"a": 2}, {"b": 2}), "u": ({"b": 1}, {"c": 2})}),
    integer_net("a", {"t": ({"a": 1}, {"a": -1})}),
    integer_net("abc", {"t": ({"a": 1, "b": 1}, {"c": 1}), "u": ({"c": 2}, {"a": 1})}),
    integer_net("ab", {}),
    integer_net("abc", {"t": ({"a": 2, "b": -2}, {"c": 2})}),
]

GROUP_NETS = [
    group_net("ab", {"t": ("a", "b"), "u": ("bA", "")}),
]

ELEMENTARY_NETS = [
    elementary("ab", {"t": ("a", "b")}),
    elementary("ab", {"t": ("a", "ab")}),
    elementary("abc", {"t": ("ab", "c"), "u": ("c", "a")}),
    elementary("a", {"t": ("a", "a")}),
    elementary("abc", {"t": ("a", "bc"), "u": ("bc", "a")}),
]

# Equality fixtures for the rewrite-oracle comparison: one per flavor, kept
# tiny so the exhaustive closure stays enumerable.
EQUALITY_NETS = [
    petri("abc", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 1}, {"c": 1})}),
    petri("a", {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})}),
    prenet("ab", {"t": ("a", "b"), "u": ("b", "a")}),
    elementary("ab", {"t": ("a", "b"), "u": ("ab", "a")}),
    integer_net("ab", {"t": ({"a": 1}, {"b": 1}), "u": ({"b": 2}, {"a": 1})}),
]

SYMMETRY_NETS = [
    prenet("ab", {"t": ("a", "b")}),
    prenet("ab", {"t": ("ab", "a")}),
    prenet("abc", {"t": ("a", "bc"), "u": ("cb", "a")}),
]
