"""Factorization sets Z_n(S): membership and capped counts by exact bounded
depth-first search, the whole set as a fiber of the toric ideal.  Only
``factorizations`` uses the Groebner engine, and imports it when called.

The search takes the generators in a fixed plan.  A step that is the last to
touch a coordinate closes it: its multiplicity is forced.  A free step whose
next step closes coordinate j walks its multiplicities k by that step's
period: the closing step divides residual_j - k*g_j by its own c_j and
refuses a remainder, so only the k in one class mod c_j / gcd(g_j, c_j)
reach it, and the period drops no k that it would accept."""
from __future__ import annotations

import functools
from math import gcd

from .core import Semigroup, ValidationError, _as_int, _as_point

_NO_PERIOD = (0, 1, 1, 0)  # every k: residual_0 is divisible by 1, and k = 0 mod 1


def _max_multiplicity(gen: tuple[int, ...], residual: tuple[int, ...]) -> int:
    """Largest k with k*gen <= residual componentwise."""
    bound = None
    for a, r in zip(gen, residual):
        if a > 0:
            b = r // a
            bound = b if bound is None else min(bound, b)
    return bound if bound is not None else 0


@functools.lru_cache(maxsize=256)
def _plan(gens: tuple[tuple[int, ...], ...]):
    """The search plan of a generator tuple: its steps, and the coordinates
    no generator touches.  Cached per generator tuple, since a gluing and a
    scan search one semigroup often.

    Each step is (generator, the coordinates no later step touches, period,
    the generator's index).  Generators with more nonzero coordinates go
    first, then those with the same support together, larger first, so that
    each coordinate is closed (its multiplicity forced) as early as
    possible.

    A free step g followed by a step c that closes coordinate j (its first)
    gets the period (j, d, m, inv): d = gcd(g_j, c_j), m = c_j / d and inv
    the inverse of g_j / d mod m.  Step c accepts k*g only if c_j divides
    residual_j - k*g_j, which needs d | residual_j and then holds exactly
    for k = (residual_j / d) * inv mod m.  With g_j = 0, m = 1 and the test
    is d | residual_j alone.  Every other step gets ``_NO_PERIOD``."""
    support = [tuple(j for j, a in enumerate(g) if a) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (-len(support[i]), support[i], -sum(gens[i])))
    last = {j: step for step, i in enumerate(order) for j in support[i]}
    closes = [[] for _ in order]
    for j, step in last.items():
        closes[step].append(j)
    steps = []
    for step, i in enumerate(order):
        g, period = gens[i], _NO_PERIOD
        if not closes[step] and closes[step + 1]:  # the last step always closes
            j = closes[step + 1][0]
            c = gens[order[step + 1]][j]
            d = gcd(g[j], c)
            period = (j, d, c // d, pow(g[j] // d, -1, c // d))
        steps.append((g, tuple(closes[step]), period, i))
    untouched = tuple(j for j in range(len(gens[0])) if j not in last)
    return tuple(steps), untouched


def _search(steps, idx, residual, lam, out, cap):
    """DFS over the multiplicities of the steps from idx on; residual stays
    non-negative, and lam holds the multiplicities set so far, in generator
    order (a leaf appends a copy).

    A step that closes coordinates forces its multiplicity to
    residual_j / gen_j for the first of them, j, and refuses it if the
    division leaves a remainder, if what is left is negative anywhere or if
    it is not zero on another closed coordinate; so every coordinate is zero
    once all steps are taken.  A free step walks range(k0, top + 1, m) by
    its period (j, d, m, inv), k0 = (residual_j / d) * inv mod m, and none
    if d does not divide residual_j: the k it skips are those the next step,
    which closes j, would refuse for a remainder, so the list and its order
    do not change."""
    if idx == len(steps):
        out.append(tuple(lam))
        return
    g, closed, (j, d, m, inv), slot = steps[idx]
    if closed:
        k, left = divmod(residual[closed[0]], g[closed[0]])
        if left:
            return
        rem = tuple(r - k * a for r, a in zip(residual, g))
        if min(rem) < 0 or any(rem[i] for i in closed[1:]):
            return
        lam[slot] = k
        _search(steps, idx + 1, rem, lam, out, cap)
        return
    t, left = divmod(residual[j], d)
    if left:
        return
    for k in range(t * inv % m, _max_multiplicity(g, residual) + 1, m):
        lam[slot] = k
        _search(steps, idx + 1, tuple(r - k * a for r, a in zip(residual, g)), lam, out, cap)
        if cap is not None and len(out) >= cap:
            return


def factor_tuples(gens, n, cap: int | None) -> list[tuple[int, ...]]:
    """Up to cap factorizations of n over the plain tuples gens (all if cap
    is None), in generator order.  Nothing is checked: n must be a point of
    the generators' dimension.  ``core._minimal`` decides each atom through
    it on the plan of the whole set, and with no cap it is the tests'
    reference for ``factorizations``."""
    steps, untouched = _plan(gens)
    if any(n[j] for j in untouched):
        return []
    out: list[tuple[int, ...]] = []
    _search(steps, 0, n, [0] * len(gens), out, cap)
    return out


def _factor(S: Semigroup, n, cap: int | None) -> list[tuple[int, ...]]:
    """Up to cap factorizations of n (all if cap is None), in generator order."""
    return factor_tuples(S.generators, _as_point(n, S.q), cap)


def factorizations(S: Semigroup, n) -> frozenset[tuple[int, ...]]:
    """The complete set Z_n(S) of exponent vectors lam with sum(lam_i a_i) = n.

    One factorization comes from the search with cap 1; Z_n(S) is its fiber
    over the toric engine's basis, walked by reverse rewriting, where the
    uncapped search can take far longer."""
    from . import groebner

    first = _factor(S, n, 1)
    if not first:
        return frozenset()
    return groebner.fiber(first[0], groebner.toric_ideal_generators(S))


def count_capped(S: Semigroup, n, cap: int) -> int:
    """min(#Z_n(S), cap); the search aborts once cap factorizations are found."""
    _as_int(cap, "cap", 1)
    return len(_factor(S, n, cap))


def contains(S: Semigroup, n) -> bool:
    """Semigroup membership: n is a point of N^q with a factorization."""
    try:
        n = _as_point(n, S.q)
    except ValidationError:  # of the wrong length, negative or not ints
        return False
    return bool(factor_tuples(S.generators, n, 1))
