from __future__ import annotations

import random
from math import gcd

import pytest

import pfrobenius as pf

# the worked 5-generator example used throughout: generator order is part of
# the contract (it fixes the variable order of the polynomial ring)
EXAMPLE_GENS = [(3, 0), (4, 0), (0, 5), (0, 6), (1, 1)]


@pytest.fixture(scope="session")
def example_S() -> pf.Semigroup:
    return pf.minimalize_generators(EXAMPLE_GENS)


@pytest.fixture(scope="session")
def grlex() -> pf.OrderSpec:
    return pf.OrderSpec("grlex")


@pytest.fixture(scope="session")
def grevlex() -> pf.OrderSpec:
    return pf.OrderSpec("grevlex")


def random_semigroup(rng: random.Random, q: int, h_max: int = 5, coord_max: int = 12) -> pf.Semigroup:
    """A random minimalized semigroup; generators may collapse under minimalization."""
    h = rng.randint(2, h_max)
    gens = []
    while len(gens) < h:
        g = tuple(rng.randint(0, coord_max) for _ in range(q))
        if any(g):
            gens.append(g)
    return pf.minimalize_generators(gens, q)


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
