from __future__ import annotations

import random
from collections import Counter
from math import gcd, prod

import pytest

import pfrobenius as pf
from pfrobenius.oracle import _Budget, _count_grid

# the worked 5-generator example used throughout: generator order is part of
# the contract (it fixes the variable order of the polynomial ring)
EXAMPLE_GENS = [(3, 0), (4, 0), (0, 5), (0, 6), (1, 1)]
# a q = 3 semigroup with finite F_p: two generators on each axis and (4,1,1)
Q3 = ((4, 0, 0), (7, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (4, 1, 1))
# a q = 3 semigroup of rank 2: two rays, each with two generators, and (1,1,1)
RANK2_Q3 = ((2, 0, 0), (3, 0, 0), (0, 2, 2), (0, 3, 3), (1, 1, 1))


@pytest.fixture(scope="session")
def example_S() -> pf.Semigroup:
    return pf.minimalize_generators(EXAMPLE_GENS)


@pytest.fixture(scope="session")
def grlex() -> pf.OrderSpec:
    return pf.OrderSpec("grlex")


@pytest.fixture(scope="session")
def grevlex() -> pf.OrderSpec:
    return pf.OrderSpec("grevlex")


def rays_by_fourier_motzkin(S: pf.Semigroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``cone.ray_generators(S)`` with every direction decided by the
    Fourier-Motzkin test ``cone._separable``, at any q: the reference for
    the q <= 2 sign test."""
    on_direction: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for g in S.generators:
        on_direction.setdefault(pf.primitive_direction(g), []).append(g)
    return tuple(
        tuple(sorted(gens, key=sum))
        for d, gens in sorted(on_direction.items())
        if pf.cone._separable(d, [e for e in on_direction if e != d])
    )


def random_generators(rng: random.Random, q: int, h_max: int = 5, coord_max: int = 12) -> list[tuple[int, ...]]:
    """2 to h_max random nonzero points of [0, coord_max]^q, not minimalized."""
    h = rng.randint(2, h_max)
    gens = []
    while len(gens) < h:
        g = tuple(rng.randint(0, coord_max) for _ in range(q))
        if any(g):
            gens.append(g)
    return gens


def random_semigroup(rng: random.Random, q: int, h_max: int = 5, coord_max: int = 12) -> pf.Semigroup:
    """A random minimalized semigroup; generators may collapse under minimalization."""
    return pf.minimalize_generators(random_generators(rng, q, h_max, coord_max), q)


def random_dense_planar_semigroup(rng: random.Random) -> pf.Semigroup:
    """A ``random_semigroup`` draw at q = 2 whose generators span the plane
    and whose F_p is finite.  About one draw in 4000 is; a draw with fewer
    than two directions that carry two generators each cannot be, so it is
    dropped before it is minimalized."""
    while True:
        gens = random_generators(rng, 2)
        on_direction = Counter(tuple(c // gcd(*g) for c in g) for g in gens)
        if sum(n >= 2 for n in on_direction.values()) < 2:
            continue
        S = pf.minimalize_generators(gens, 2)
        if len(pf.cone.ray_generators(S)) == 2 and pf.is_fp_finite(S):
            return S


def random_finite_semigroup(rng: random.Random, q: int) -> pf.Semigroup:
    """A random semigroup with finite F_p: every extremal ray carries two generators."""
    if q == 1:
        while True:
            S = random_semigroup(rng, 1, h_max=4, coord_max=11)
            if S.h >= 2:
                return S
    if q == 3:
        # two generators on each axis and one interior generator in [1,3]^3
        while True:
            gens = [
                tuple(v if i == j else 0 for i in range(3))
                for j in range(3)
                for v in rng.sample(range(2, 6), 2)
            ]
            gens.append(tuple(rng.randint(1, 3) for _ in range(3)))
            S = pf.minimalize_generators(gens, 3)
            if pf.is_fp_finite(S):
                return S
    # q == 2: anchor both axes with two generators each, then add interior noise
    while True:
        a, b = rng.sample(range(2, 8), 2)
        c, d = rng.sample(range(2, 8), 2)
        gens = [(a, 0), (b, 0), (0, c), (0, d)]
        for _ in range(rng.randint(0, 2)):
            gens.append((rng.randint(1, 5), rng.randint(1, 5)))
        S = pf.minimalize_generators(gens, 2)
        if pf.is_fp_finite(S):
            return S


def random_offaxis_semigroup(rng: random.Random) -> pf.Semigroup:
    """A random q = 2 semigroup with finite F_p whose rays need not lie on the
    axes: two multiples of each of two random primitive directions, and up
    to two interior combinations of them."""
    while True:
        d1, d2 = (
            tuple(c // gcd(*v) for c in v)
            for v in ((rng.randint(0, 4), rng.randint(1, 4)), (rng.randint(1, 4), rng.randint(0, 4)))
        )
        if d1[0] * d2[1] == d1[1] * d2[0]:
            continue
        gens = [tuple(m * c for c in d) for d in (d1, d2) for m in rng.sample(range(1, 5), 2)]
        for _ in range(rng.randint(0, 2)):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            gens.append(tuple(s * a + t * b for a, b in zip(d1, d2)))
        S = pf.minimalize_generators(gens, 2)
        if pf.is_fp_finite(S):
            return S


def random_rank2_semigroup(rng: random.Random, q: int) -> pf.Semigroup:
    """A random semigroup of rank 2 in N^q with finite F_p: two multiples
    (from 1-5) of each of two non-parallel primitive directions in [0, 3]^q,
    and up to two positive combinations of them.  A draw whose minimal
    generators leave a ray with one generator is dropped."""
    while True:
        d1, d2 = (tuple(rng.randint(0, 3) for _ in range(q)) for _ in range(2))
        if not (any(d1) and any(d2)):
            continue
        d1, d2 = pf.primitive_direction(d1), pf.primitive_direction(d2)
        if d1 == d2:
            continue
        gens = [tuple(m * c for c in d) for d in (d1, d2) for m in rng.sample(range(1, 6), 2)]
        for _ in range(rng.randint(0, 2)):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            gens.append(tuple(s * a + t * b for a, b in zip(d1, d2)))
        S = pf.minimalize_generators(gens, q)
        if len(pf.cone.ray_generators(S)) == 2 and pf.is_fp_finite(S):
            return S


def unstepped_factor_tuples(gens, n, cap: int | None) -> list[tuple[int, ...]]:
    """``factorization.factor_tuples`` with no periods: the same plan, built
    here on its own, with every multiplicity of a free step tried from 0 up.
    The stepped search must return the same list, in the same order."""
    if any(c and not any(g[j] for g in gens) for j, c in enumerate(n)):
        return []
    support = [tuple(j for j, a in enumerate(g) if a) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (-len(support[i]), support[i], -sum(gens[i])))
    last = {j: step for step, i in enumerate(order) for j in support[i]}
    closes = [[] for _ in order]
    for j, step in last.items():
        closes[step].append(j)
    ordered = [gens[i] for i in order]
    out = []

    def search(idx, residual, prefix):
        if idx == len(ordered):
            out.append(tuple(prefix))
            return
        g, closed = ordered[idx], closes[idx]
        top = min(r // a for r, a in zip(residual, g) if a)
        if closed:
            k, left = divmod(residual[closed[0]], g[closed[0]])
            if left or k > top or any(residual[j] != k * g[j] for j in closed[1:]):
                return
            ks = (k,)
        else:
            ks = range(top + 1)
        for k in ks:
            search(idx + 1, tuple(r - k * a for r, a in zip(residual, g)), prefix + [k])
            if cap is not None and len(out) >= cap:
                return

    search(0, tuple(n), [])
    position = sorted(range(len(order)), key=order.__getitem__)
    return [tuple(lam[s] for s in position) for lam in out]


def unpack_rows(rows, bits: int, width: int) -> list[int]:
    """The counts of packed rows of width fields of bits bits, field i of a
    row at bit bits * i, as one flat list in row-major order."""
    cell = (1 << bits) - 1
    return [row >> bits * i & cell for row in rows for i in range(width)]


def pack_rows(counts, bits: int, width: int) -> list[int]:
    """The inverse of unpack_rows: each run of width counts as one row."""
    return [
        sum(c << bits * i for i, c in enumerate(counts[r : r + width]))
        for r in range(0, len(counts), width)
    ]


def grid_counts(generators, maxes, budget=_Budget(None)) -> tuple[list[int], tuple[int, ...]]:
    """The oracle's grid over [0, maxes], decoded from its packed rows: every
    count in row-major order, n at sum(n_j * strides[j]), and the strides.
    It binds the oracle's own _count_grid, so a test that patches the
    oracle's name does not see these calls."""
    rows, bits, _ = _count_grid(generators, maxes, budget)
    strides = tuple(prod(m + 1 for m in maxes[j + 1 :]) for j in range(len(maxes)))
    return unpack_rows(rows, bits, maxes[-1] + 1), strides


def f0_certified(gens, f: int) -> bool:
    """F_0 = f for the numerical semigroup on gens, by plain reachability:
    f is not a sum of generators, and f+1, ..., f+min(gens) all are."""
    reach = [True] + [False] * (f + min(gens))
    for n in range(1, len(reach)):
        reach[n] = any(n >= a and reach[n - a] for a in gens)
    return not reach[f] and all(reach[f + 1 :])


def criterion6_gluings(rng: random.Random):
    """30 valid gluing instances, 20 numerical and 10 two-dimensional;
    acceptance criterion 6 draws them with seed 6."""
    out = []
    while len(out) < 20:
        a = rng.randint(2, 9)
        b = rng.randint(2, 9)
        if gcd(a, b) != 1:
            continue
        S = pf.numerical(a, b)
        gamma = (a * rng.randint(1, 3) + b * rng.randint(1, 3),)
        d = rng.choice([2, 3, 5])
        if gcd(d, gamma[0]) != 1 or gamma in S.generators:
            continue
        out.append((S, pf.GluingSpec(d, gamma)))
    while len(out) < 30:
        S = random_finite_semigroup(rng, 2)
        coeffs = [rng.randint(0, 2) for _ in S.generators]
        if sum(coeffs) < 2:
            continue
        gamma = tuple(
            sum(c * g[j] for c, g in zip(coeffs, S.generators)) for j in range(2)
        )
        d = rng.choice([2, 3])
        if any(c == 0 for c in gamma):
            continue
        if gcd(d, gcd(*gamma)) != 1 or gamma in S.generators:
            continue
        try:
            pf.validate_gluing(S, spec := pf.GluingSpec(d, gamma))
        except pf.ValidationError:
            continue
        out.append((S, spec))
    return out
