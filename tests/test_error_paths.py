"""Refusals of the library API: each call raises the named error with a stable
part of its message."""

import pytest

import qnets
from qnets import QNet, jsonio, symmetry
from qnets.freecat import (
    Gen,
    Ident,
    IllTypedTermError,
    LayeredForm,
    Perm,
    layered_to_term,
    mor_equal,
    underlying_net,
    unit_into_truncation,
)
from qnets.intlattice import IntLattice
from qnets.theory import (
    CanonicalFormError,
    FreeElem,
    QnetError,
    Theory,
    TheoryMismatchError,
    UnsupportedOperationError,
    combine,
    extend,
    lift,
    multiset,
    word,
)

from netzoo import GROUP_NETS, cmon, elementary, integer_net, petri, prenet, signed

_PETRI = petri("ab", {"t": ({"a": 1}, {"b": 1})})
_PRENET = prenet("ab", {"t": ("a", "b")})
_NOT_A_FORM = "form has a start or layer that is not an element or a permutation"


@pytest.mark.parametrize("call,error,message", [
    (lambda: symmetry.linearizations(prenet("a", {"t": ("a", "a")})),
     UnsupportedOperationError, "linearization applies to CMON or ABGRP nets, not MON"),
    (lambda: symmetry.linearizations(elementary("a", {"t": ("a", "a")})),
     UnsupportedOperationError, "linearization applies to CMON or ABGRP nets, not SEMILAT"),
    (lambda: symmetry.linearizations(GROUP_NETS[0]),
     UnsupportedOperationError, "linearization applies to CMON or ABGRP nets, not GRP"),
    (lambda: symmetry.linearization_sum(integer_net("a", {"t": ({"a": 1}, {"a": -1})})),
     UnsupportedOperationError, "the summed linearization net is for CMON nets"),
    (lambda: symmetry.braiding(signed("a"), signed("A")),
     UnsupportedOperationError, "braiding across a cancelling boundary"),
    (lambda: symmetry.sym_equal(Gen("t"), Gen("t"), _PETRI),
     UnsupportedOperationError, "symmetric terms need a word-marked net"),
    (lambda: underlying_net(_PETRI, 0),
     UnsupportedOperationError, "enumeration bound must be positive"),
    # A bound that is not an int is refused, not read as one.
    (lambda: underlying_net(QNet(Theory.CMON, (), {}), True),
     UnsupportedOperationError, "enumeration bound must be positive, got True"),
    (lambda: underlying_net(_PETRI, "x"),
     UnsupportedOperationError, "enumeration bound must be positive, got 'x'"),
    (lambda: underlying_net(_PETRI, None),
     UnsupportedOperationError, "enumeration bound must be positive, got None"),
    (lambda: underlying_net(_PETRI, 2.5),
     UnsupportedOperationError, "enumeration bound must be positive, got 2.5"),
    (lambda: underlying_net(integer_net("a", {"t": ({"a": 1}, {"a": -1})}), 1),
     UnsupportedOperationError, "underlying-net truncation is not available over ABGRP"),
    (lambda: underlying_net(GROUP_NETS[0], 1),
     UnsupportedOperationError, "underlying-net truncation is not available over GRP"),
    # The truncation of a net without transitions holds no class for t.
    (lambda: unit_into_truncation(_PETRI, underlying_net(petri("ab", {}), 1)),
     QnetError, "truncation bound too small to contain 't'"),
    (lambda: multiset(Theory.MON, {"a": 1}),
     TheoryMismatchError, "MON elements are not count vectors"),
    (lambda: combine(Theory.CMON, word("a"), cmon({"a": 1})),
     TheoryMismatchError, "combine over CMON got MON and CMON"),
    (lambda: combine(Theory.MON, word("a"), word("b"), cmon({"a": 1})),
     TheoryMismatchError, "combine over MON got MON and MON and CMON"),
    (lambda: lift(Theory.CMON, {"a": "b"}, word("a")),
     TheoryMismatchError, "lift over CMON got MON"),
    (lambda: extend(Theory.CMON, {"a": word("a")}, cmon({"a": 1})),
     TheoryMismatchError, "extend over CMON got a MON image for 'a'"),
    (lambda: extend(Theory.CMON, {}, word("a")),
     TheoryMismatchError, "extend over CMON got MON"),
    (lambda: FreeElem(Theory.CMON, [("a", 1)]),
     CanonicalFormError, "payload must be a tuple, got list"),
    (lambda: jsonio.elem_from_json(Theory.GRP, [["a", 2]]),
     CanonicalFormError, 'GRP letters must look like ["a","+"]'),
    # Names that do not sort together fail inside with a TypeError.
    (lambda: jsonio.elem_from_json(Theory.CMON, {1: 1, "a": 1}),
     CanonicalFormError, "'<' not supported between instances of"),
    (lambda: IntLattice(2).add([1, 2, 3]), ValueError, "dimension mismatch"),
    (lambda: [1, 2, 3] in IntLattice(2), ValueError, "dimension mismatch"),
    # A layered form holds elements and permutations only: a term, a bare
    # name or a string is refused before its theory is read.
    (lambda: layered_to_term(LayeredForm(word("a"), (Gen("t"),)), _PRENET),
     IllTypedTermError, _NOT_A_FORM),
    (lambda: layered_to_term(LayeredForm("x", ()), _PRENET), IllTypedTermError, _NOT_A_FORM),
    (lambda: layered_to_term(LayeredForm(word("a"), ("junk",)), _PRENET),
     IllTypedTermError, _NOT_A_FORM),
    # A leaf whose field has the wrong type is refused as ill-typed, before
    # the field is read as a name, an element or a word.
    (lambda: mor_equal(None, Gen("t"), _PRENET), IllTypedTermError, "not a process term: None"),
    (lambda: mor_equal(Gen(3), Gen("t"), _PRENET), IllTypedTermError, "unknown transition 3"),
    (lambda: mor_equal(Gen(["x"]), Gen("t"), _PRENET),
     IllTypedTermError, "unknown transition ['x']"),
    (lambda: mor_equal(Ident("a"), Gen("t"), _PRENET),
     IllTypedTermError, "identity object is not an element: 'a'"),
    (lambda: symmetry.sym_equal(Perm("ab", (1, 0)), Gen("t"), _PRENET),
     IllTypedTermError, "permutation word has the wrong theory"),
    # A mapping is a tuple: a list is refused before it is used as a key.
    (lambda: symmetry.sym_equal(Perm(word("ab"), [1, 0]), Ident(word("ba")), _PRENET),
     IllTypedTermError, "mapping is not a permutation of the letter positions"),
])
def test_refusals_name_their_reason(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


def test_dir_lists_every_public_name():
    assert set(qnets.__all__) <= set(dir(qnets))
