from __future__ import annotations

import random

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
