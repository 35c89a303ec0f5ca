"""Rational cone geometry: extremal rays and the finiteness criterion, in
integer arithmetic only.

- ``ray_generators`` picks the minimal generators on each extremal ray,
  cached per semigroup; its docstring proves the pick, with
  ``_separable`` deciding it for q >= 3.
- ``is_fp_finite`` is the finiteness criterion of F_p, and
  ``extremal_ray_directions`` and ``unpaired_rays`` read the rays too.
- ``primitive_direction`` divides a vector by the gcd of its coordinates.
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


@lru_cache(maxsize=256)
def ray_generators(S: Semigroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The minimal generators on each extremal ray of the generator cone, by
    ascending degree, the rays sorted by primitive direction.

    A generator direction d is extremal iff it is not a non-negative rational
    combination of the other distinct generator directions, that is (Farkas'
    lemma) iff some linear form is >= 0 on all of them and negative on d;
    for q >= 3 Fourier-Motzkin decides it.  For q <= 2 the directions of N^2
    lie within a right angle, so det[d e] > 0 exactly when e comes after d
    by angle: the first direction and the last, kept in one pass over the
    generators, span the cone and every direction strictly between them is a
    positive combination of the two.  A ray's generators are those collinear
    with its first one.  Cached per semigroup: the finiteness gate and the
    p-Apery F_p route both read it.
    """
    gens = S.generators
    if S.q == 1:
        return (tuple(sorted(gens)),)
    if S.q == 2:
        first = last = gens[0]
        for g in gens:
            if g[0] * first[1] > g[1] * first[0]:
                first = g
            elif g[0] * last[1] < g[1] * last[0]:
                last = g
        rays = {_direction(first): first, _direction(last): last}  # one key when they are parallel
        return tuple(
            tuple(sorted((g for g in gens if g[0] * e[1] == g[1] * e[0]), key=sum))
            for _, e in sorted(rays.items())
        )
    on_direction: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for g in gens:
        on_direction.setdefault(_direction(g), []).append(g)
    return tuple(
        tuple(sorted(ray, key=sum))
        for d, ray in sorted(on_direction.items())
        if _separable(d, [e for e in on_direction if e != d])
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
    return min(map(len, ray_generators(S))) > 1
