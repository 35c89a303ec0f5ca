from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import pfrobenius as pf


def test_primitive_direction():
    assert pf.primitive_direction((4, 0)) == (1, 0)
    assert pf.primitive_direction((6, 4)) == (3, 2)
    assert pf.primitive_direction((0, 7)) == (0, 1)
    with pytest.raises(pf.ValidationError):
        pf.primitive_direction((0, 0))


def test_extremal_rays_example(example_S):
    assert set(pf.extremal_ray_directions(example_S)) == {(1, 0), (0, 1)}


def test_extremal_rays_deficient():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    assert set(pf.extremal_ray_directions(S)) == {(1, 0), (0, 1)}
    assert not pf.is_fp_finite(S)


def test_single_ray():
    S = pf.Semigroup(2, ((1, 1),))
    assert set(pf.extremal_ray_directions(S)) == {(1, 1)}
    assert not pf.is_fp_finite(S)


def test_finiteness_examples(example_S):
    assert pf.is_fp_finite(example_S)
    assert pf.is_fp_finite(pf.numerical(2, 3))
    assert not pf.is_fp_finite(pf.Semigroup(1, ((2,),)))


def test_rays_come_from_generators(example_S):
    prim = {pf.primitive_direction(g) for g in example_S.generators}
    assert set(pf.extremal_ray_directions(example_S)) <= prim


def test_finiteness_invariance_under_permutation_and_scaling():
    rng = random.Random(3)
    gens = [(3, 0), (4, 0), (0, 5), (0, 6), (1, 1)]
    base = pf.is_fp_finite(pf.minimalize_generators(gens))
    for _ in range(5):
        perm = gens[:]
        rng.shuffle(perm)
        assert pf.is_fp_finite(pf.minimalize_generators(perm)) == base
    scaled = [(3 * a, 3 * b) for a, b in gens]
    assert pf.is_fp_finite(pf.minimalize_generators(scaled)) == base


def test_degenerate_parallel_generators():
    # all generators on one ray: a single extremal ray with >= 2 generators
    S = pf.minimalize_generators([(2, 2), (3, 3)])
    assert set(pf.extremal_ray_directions(S)) == {(1, 1)}
    assert pf.is_fp_finite(S)


def test_finiteness_matches_own_free_multiples():
    # cross-validation: finiteness iff every generator has a multiple
    # expressible without itself
    cases = [
        pf.numerical(2, 3),
        pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)]),
        pf.minimalize_generators([(2, 0), (3, 0), (0, 2), (0, 3)]),
    ]
    for S in cases:
        expected = pf.is_fp_finite(S)
        found_all = True
        for k in range(S.h):
            others = pf.Semigroup(S.q, tuple(g for i, g in enumerate(S.generators) if i != k))
            a = S.generators[k]
            if not any(
                pf.contains(others, tuple(lam * c for c in a)) for lam in range(1, 40)
            ):
                found_all = False
        assert found_all == expected


def _solve(cols, d):
    """The x with sum x_i cols_i = d over the rationals, or None when the cols
    are linearly dependent or no such x exists (fraction-free Gauss-Jordan)."""
    k = len(cols)
    rows = [[c[r] for c in cols] + [d[r]] for r in range(len(d))]
    for c in range(k):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        rows = [row if i == c else [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)] for i, row in enumerate(rows)]
    if any(row[k] for row in rows[k:]):
        return None
    return [Fraction(rows[i][k], rows[i][i]) for i in range(k)]


def in_cone_reference(d, others) -> bool:
    """Caratheodory: d lies in the cone of others iff it is a non-negative
    combination of some linearly independent subset of at most q of them."""
    return any(
        x is not None and min(x) >= 0
        for k in range(1, len(d) + 1)
        for sub in itertools.combinations(others, k)
        for x in [_solve(sub, d)]
    )


def test_extremal_rays_match_caratheodory_reference():
    rng = random.Random(8)
    for _ in range(320):
        q, h = rng.randint(1, 4), rng.randint(2, 8)
        gens = {tuple(rng.randint(0, 5) for _ in range(q)) for _ in range(h)} - {(0,) * q}
        if not gens:
            continue
        S = pf.Semigroup(q, tuple(sorted(gens)))
        directions = {pf.primitive_direction(g) for g in gens}
        expected = {d for d in directions if not in_cone_reference(d, sorted(directions - {d}))}
        assert set(pf.extremal_ray_directions(S)) == expected, S


def test_all_directions_extremal_q4():
    # eight directions in general position in 4-D, every one extremal; an
    # elimination over the seven multipliers of the other directions ran for
    # more than a minute here
    gens = ((3, 1, 0, 2), (1, 4, 2, 0), (0, 2, 5, 1), (2, 0, 1, 3), (4, 4, 1, 1), (1, 1, 3, 3), (5, 0, 2, 2), (2, 3, 3, 0))
    S = pf.Semigroup(4, gens)
    assert pf.extremal_ray_directions(S) == frozenset(gens)
    assert not pf.is_fp_finite(S)
