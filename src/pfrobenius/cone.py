"""Rational cone geometry: extremal rays and the finiteness criterion.

The finiteness of the p-Frobenius vector (for p >= 1, any graded order) is
equivalent to every extremal ray of the rational cone spanned by the
generators containing at least two minimal generators.  A direction is
extremal exactly when a linear form separates it from the other directions
(Farkas' lemma); the form's existence is decided by Fourier-Motzkin
elimination over its q coefficients, in integer arithmetic, so no floating
point is involved anywhere.
"""
from __future__ import annotations

import itertools
from math import gcd

from .core import Semigroup, ValidationError


def primitive_direction(v) -> tuple[int, ...]:
    """v divided by the gcd of its coordinates."""
    v = tuple(int(c) for c in v)
    g = gcd(*v) if len(v) > 1 else v[0]
    if g == 0:
        raise ValidationError("zero vector has no direction")
    return tuple(c // g for c in v)


def _separable(d: tuple[int, ...], others: list[tuple[int, ...]]) -> bool:
    """Is there a rational c with c.e >= 0 for every e in others and c.d <= -1?

    Fourier-Motzkin over the q unknowns of c, on integer rows (a, b) for
    a.c <= b: each pair of rows of opposite sign in the eliminated unknown
    combines with positive integer factors, then divides by its content.
    """
    rows = {(tuple(-x for x in e), 0) for e in others} | {(d, -1)}
    for j in range(len(d)):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        rows = {r for r in rows if r[0][j] == 0}
        for (ap, bp), (an, bn) in itertools.product(pos, neg):
            a = tuple(-an[j] * x + ap[j] * y for x, y in zip(ap, an))
            b = -an[j] * bp + ap[j] * bn
            g = gcd(*a, b) or 1  # 0 only for the trivial row 0 <= 0
            rows.add((tuple(x // g for x in a), b // g))
    return all(b >= 0 for _, b in rows)


def extremal_ray_directions(S: Semigroup) -> frozenset[tuple[int, ...]]:
    """Primitive directions spanning the extremal rays of the generator cone.

    A generator direction d is extremal iff it is not a non-negative rational
    combination of the other distinct generator directions, that is (Farkas'
    lemma) iff some linear form is >= 0 on all of them and negative on d.
    """
    directions = sorted({primitive_direction(g) for g in S.generators})
    extremal = set()
    for d in directions:
        others = [e for e in directions if e != d]
        if _separable(d, others):
            extremal.add(d)
    return frozenset(extremal)


def is_fp_finite(S: Semigroup) -> bool:
    """True iff F_p(S) is finite for every p >= 1 and every graded order.

    Holds exactly when each extremal ray direction is shared by at least two
    distinct minimal generators.
    """
    dir_count: dict[tuple[int, ...], int] = {}
    for g in S.generators:
        d = primitive_direction(g)
        dir_count[d] = dir_count.get(d, 0) + 1
    return all(dir_count[d] >= 2 for d in extremal_ray_directions(S))
