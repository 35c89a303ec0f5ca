from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import pfrobenius as pf
from conftest import Q3, random_finite_semigroup, random_semigroup, rays_by_fourier_motzkin


def test_primitive_direction():
    assert pf.primitive_direction((4, 0)) == (1, 0)
    assert pf.primitive_direction((6, 4)) == (3, 2)
    assert pf.primitive_direction((0, 7)) == (0, 1)
    with pytest.raises(pf.ValidationError):
        pf.primitive_direction((0, 0))


@pytest.mark.parametrize("v", [(2.0, 4), (True, 2), (3, -6), (-4,)])
def test_primitive_direction_checks_its_point(v):
    # the public function checks its input; the cone code divides the
    # generators of a Semigroup, checked when it was built, with no check
    with pytest.raises(pf.ValidationError):
        pf.primitive_direction(v)


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


def test_unpaired_rays_are_the_extremal_rays_with_one_generator():
    # the rays that decide the cone gate and name the oracle's certificate of
    # an infinite F_p, on seeded draws with q = 1-3, finite and infinite
    rng = random.Random(35)
    finite = Counter()
    for i in range(90):
        q = i % 3 + 1
        S = random_finite_semigroup(rng, q) if i % 2 else random_semigroup(rng, q)
        on_ray = Counter(map(pf.primitive_direction, S.generators))
        rays = pf.cone.unpaired_rays(S)
        assert rays == sorted(d for d in pf.extremal_ray_directions(S) if on_ray[d] == 1), S
        assert pf.is_fp_finite(S) == (not rays), S
        if rays:
            assert f"the extremal ray {rays[0]} " in pf.oracle_fp(S, 1).certificate, S
        finite[q, not rays] += 1
    assert len(finite) == 6, finite  # both outcomes at every q


def _planar_draw(rng: random.Random, kind: str, top: int) -> set[tuple[int, int]]:
    """Distinct nonzero points of N^2 of one kind, with coordinates up to
    top (up to 6 * max(top // 8, 5) for "off-axis")."""

    def point(lo, hi):
        while not any(v := (rng.randint(lo, hi), rng.randint(lo, hi))):
            pass
        return v

    if kind == "one direction":
        return {point(0, top)}
    if kind == "collinear":
        d = pf.primitive_direction(point(0, top // 4))
        return {(m * d[0], m * d[1]) for m in rng.sample(range(1, 5), rng.randint(2, 4))}
    if kind == "axis":
        nx = rng.randint(0, 3)
        return ({(rng.randint(1, top), 0) for _ in range(nx)}
                | {(0, rng.randint(1, top)) for _ in range(rng.randint(0 if nx else 1, 3))})
    if kind == "off-axis":
        # two positive directions, one multiple or two of each, and up to two
        # interior combinations of them (the pair may be parallel)
        u, v = (pf.primitive_direction(point(1, max(top // 8, 5))) for _ in range(2))
        gens = {(m * d[0], m * d[1]) for d in (u, v) for m in rng.sample((1, 2), rng.randint(1, 2))}
        for _ in range(rng.randint(0, 2)):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            gens.add((s * u[0] + t * v[0], s * u[1] + t * v[1]))
        return gens
    return {point(0, top) for _ in range(rng.randint(2, 7))}


def test_planar_rays_match_fourier_motzkin():
    # the q = 2 sign test against Fourier-Motzkin on 2000 seeded generator
    # sets of five kinds, coordinates up to 5, 2^8, 2^31 and 2^62 - 1
    rng = random.Random(38)
    kinds = ("one direction", "collinear", "axis", "off-axis", "scattered")
    tops = (5, 2**8, 2**31, 2**62 - 1)
    rays = Counter()
    for i in range(2000):
        kind, top = kinds[i % 5], tops[i // 5 % 4]
        S = pf.Semigroup(2, tuple(sorted(_planar_draw(rng, kind, top))))
        got = pf.cone.ray_generators.__wrapped__(S)
        assert got == rays_by_fourier_motzkin(S), S
        rays[kind, len(got), any(all(ray[0]) for ray in got)] += 1
    assert {n for (kind, n, _) in rays if kind in ("one direction", "collinear")} == {1}, rays
    assert min(rays["axis", 1, False], rays["axis", 2, False]) >= 100, rays
    assert min(rays["off-axis", 2, True], rays["scattered", 2, True]) >= 300, rays


@pytest.mark.parametrize("gens, rays", [
    # both extreme directions listed last, after interior ones
    (((1, 1), (2, 3), (3, 2), (4, 1), (0, 7), (8, 2), (0, 5)), (((0, 5), (0, 7)), ((4, 1), (8, 2)))),
    (((2, 2), (1, 2), (3, 1), (2, 5), (5, 1)), (((2, 5),), ((5, 1),))),
    # one direction, listed by descending degree
    (((6, 9), (4, 6)), (((4, 6), (6, 9)),)),
    (((9, 0), (7, 0), (5, 0)), (((5, 0), (7, 0), (9, 0)),)),
])
def test_planar_rays_in_any_listing(gens, rays):
    # the one-pass pick does not depend on where the extreme directions are
    # listed, and sorts each ray by degree
    for listing in (gens, gens[::-1]):
        S = pf.Semigroup(2, listing)
        assert pf.cone.ray_generators.__wrapped__(S) == rays == rays_by_fourier_motzkin(S), listing


def test_cone_route_by_rank(monkeypatch):
    # q <= 2 decides every direction by the sign test alone; q = 3 needs
    # Fourier-Motzkin
    calls = Counter()
    separable = pf.cone._separable

    def spy(d, others):
        calls[len(d)] += 1
        return separable(d, others)

    monkeypatch.setattr(pf.cone, "_separable", spy)
    for S in (pf.Semigroup(2, ((3, 0), (4, 0), (0, 5), (0, 6), (1, 1), (2, 7))), pf.numerical(3, 5), pf.Semigroup(3, Q3)):
        pf.cone.ray_generators.__wrapped__(S)
    assert calls[1] == calls[2] == 0 and calls[3] >= 1, calls
