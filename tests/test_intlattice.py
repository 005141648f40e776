"""Membership in ``intlattice.IntLattice`` against independent references.

One coordinate: an integer lies in the lattice spanned by some integers iff
their gcd divides it (only 0 when the gcd is 0). Two or three coordinates:
every integer combination of the generators with coefficients in the box
[-3, 3] must be a member, and membership must agree with the determinantal
divisors. If ``M`` has rank ``r`` and ``d_r`` is the gcd of its r x r
minors, then ``d_r(M)`` is the index of the column lattice in its
saturation, so ``t`` is a member iff ``[M | t]`` has rank ``r`` and the same
``d_r``.
"""

import itertools
import math

from hypothesis import example, given, settings, strategies as st

from qnets.intlattice import IntLattice

BOX = range(-3, 4)


def _lattice(dimension, generators):
    lattice = IntLattice(dimension)
    for vec in generators:
        lattice.add(vec)
    return lattice


@settings(max_examples=300)
@given(st.lists(st.integers(-12, 12), max_size=4), st.integers(-40, 40))
@example([2, 3], 1)
@example([2, 4], 1)
@example([2, 4], 6)
@example([0, 0], 0)
@example([-4, 6], -2)
def test_one_coordinate_membership_is_divisibility_by_the_gcd(generators, target):
    g = math.gcd(*generators) if generators else 0
    expected = target == 0 if g == 0 else target % g == 0
    assert ([target] in _lattice(1, [[v] for v in generators])) == expected


def _det(rows):
    """Determinant of a square integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _rank_and_divisor(columns, dimension):
    """The rank of the matrix with these columns and the gcd of its minors
    of that size."""
    for k in range(min(dimension, len(columns)), 0, -1):
        d = 0
        for rows in itertools.combinations(range(dimension), k):
            for cols in itertools.combinations(columns, k):
                d = math.gcd(d, _det([[c[i] for c in cols] for i in rows]))
        if d:
            return k, d
    return 0, 1


def _member_by_minors(generators, target, dimension):
    return (_rank_and_divisor(generators, dimension)
            == _rank_and_divisor(generators + [target], dimension))


def _vectors(dimension, bound):
    return st.lists(st.integers(-bound, bound), min_size=dimension, max_size=dimension)


@st.composite
def _cases(draw):
    dimension = draw(st.sampled_from([2, 3]))
    generators = draw(st.lists(_vectors(dimension, 3), max_size=3))
    return dimension, generators, draw(_vectors(dimension, 4))


@settings(max_examples=300)
@given(_cases())
@example((2, [[2, 0], [3, 0]], [1, 0]))
@example((2, [[2, 1], [1, 2]], [1, -1]))
@example((2, [[2, 1], [1, 2]], [1, 0]))
@example((3, [[0, 2, 0], [0, 3, 3], [0, 0, 0]], [0, 1, 0]))
@example((3, [[1, 1, 0], [2, 2, 0]], [3, 3, 0]))
def test_membership_matches_box_combinations_and_minors(case):
    dimension, generators, target = case
    lattice = _lattice(dimension, generators)
    for coefficients in itertools.product(BOX, repeat=len(generators)):
        combination = [sum(c * g[i] for c, g in zip(coefficients, generators))
                       for i in range(dimension)]
        assert combination in lattice
    assert (target in lattice) == _member_by_minors(generators, target, dimension)
