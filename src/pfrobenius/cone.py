"""Rational cone geometry: extremal rays and the finiteness criterion.

The finiteness of the p-Frobenius vector (for p >= 1, any graded order) is
equivalent to every extremal ray of the rational cone spanned by the
generators containing at least two minimal generators.  A direction is
extremal exactly when a linear form separates it from the other directions
(Farkas' lemma).  For q <= 2 that is one sign test per pair of directions:
distinct primitive vectors of N^2 are never parallel, so det[d e] != 0 for
e != d, and d is extremal exactly when every det[d e] has the same sign
(d is the first or the last direction by angle; at q = 1 the one direction
is extremal).  For q >= 3 the form's existence is decided by Fourier-Motzkin
elimination over its q coefficients.  Both run in integer arithmetic, so no
floating point is involved anywhere.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

from .core import Semigroup, ValidationError, _as_point


def primitive_direction(v) -> tuple[int, ...]:
    """v divided by the gcd of its coordinates."""
    v = _as_point(v)
    if not any(v):
        raise ValidationError("zero vector has no direction")
    return _direction(v)


def _direction(v: tuple[int, ...]) -> tuple[int, ...]:
    """The nonzero point v divided by the gcd of its coordinates, unchecked:
    for points that passed ``_as_point`` already, such as generators."""
    g = gcd(*v)
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


def _planar_extremal(d: tuple[int, ...], others: list[tuple[int, ...]]) -> bool:
    """``_separable`` for q <= 2: every det[d e] has one sign (none at q = 1,
    where others is empty)."""
    return len({d[0] * e[1] > d[1] * e[0] for e in others}) < 2


@lru_cache(maxsize=256)
def ray_generators(S: Semigroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The minimal generators on each extremal ray of the generator cone, by
    ascending degree, the rays sorted by primitive direction.

    A generator direction d is extremal iff it is not a non-negative rational
    combination of the other distinct generator directions, that is (Farkas'
    lemma) iff some linear form is >= 0 on all of them and negative on d.
    For q <= 2 that holds iff det[d e] has one sign over the other directions
    e, none of them parallel to d, so det[d e] != 0; for q >= 3 Fourier-Motzkin
    decides it.  Cached per semigroup: the finiteness gate and the p-Apery F_p
    route both read it.
    """
    extremal = _planar_extremal if S.q <= 2 else _separable
    on_direction: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for g in S.generators:
        on_direction.setdefault(_direction(g), []).append(g)
    return tuple(
        tuple(sorted(gens, key=sum))
        for d, gens in sorted(on_direction.items())
        if extremal(d, [e for e in on_direction if e != d])
    )


def extremal_ray_directions(S: Semigroup) -> frozenset[tuple[int, ...]]:
    """Primitive directions spanning the extremal rays of the generator cone."""
    return frozenset(_direction(gens[0]) for gens in ray_generators(S))


def unpaired_rays(S: Semigroup) -> list[tuple[int, ...]]:
    """The extremal ray directions, sorted, that carry only one of the
    minimal generators (each extremal direction carries at least one)."""
    return [_direction(gens[0]) for gens in ray_generators(S) if len(gens) < 2]


def is_fp_finite(S: Semigroup) -> bool:
    """True iff F_p(S) is finite for every p >= 1 and every graded order.

    Holds exactly when each extremal ray direction is shared by at least two
    distinct minimal generators.
    """
    return not unpaired_rays(S)
