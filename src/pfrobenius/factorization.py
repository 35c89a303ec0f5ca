"""Factorization sets Z_n(S): membership and capped counts by exact bounded
depth-first search, the whole set as a fiber of the toric ideal."""
from __future__ import annotations

from .core import Semigroup, ValidationError, _as_point
from .groebner import GroebnerBasis, fiber, toric_ideal_generators


def _max_multiplicity(gen: tuple[int, ...], residual: tuple[int, ...]) -> int:
    """Largest k with k*gen <= residual componentwise."""
    bound = None
    for a, r in zip(gen, residual):
        if a > 0:
            b = r // a
            bound = b if bound is None else min(bound, b)
    return bound if bound is not None else 0


def _plan(gens):
    """The search order of the generators and, for each step, the coordinates
    no later step touches.

    Generators with more nonzero coordinates go first, then those with the
    same support together, larger first, so that each coordinate is closed
    (its multiplicity forced) as early as possible."""
    support = [tuple(j for j, a in enumerate(g) if a) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (-len(support[i]), support[i], -sum(gens[i])))
    last = {j: step for step, i in enumerate(order) for j in support[i]}
    closes = [[] for _ in order]
    for j, step in last.items():
        closes[step].append(j)
    return order, closes


def _search(gens, closes, idx, residual, prefix, out, cap):
    """DFS over multiplicities of gens[idx:]; residual stays non-negative.

    At the step that closes coordinate j the multiplicity is forced to
    residual_j / gen_j, so every coordinate is zero once all steps are taken."""
    if cap is not None and len(out) >= cap:
        return
    if idx == len(gens):
        out.append(tuple(prefix))
        return
    g, closed = gens[idx], closes[idx]
    top = _max_multiplicity(g, residual)
    if closed:
        k, left = divmod(residual[closed[0]], g[closed[0]])
        if left or k > top or any(residual[j] != k * g[j] for j in closed[1:]):
            return
        ks = (k,)
    else:
        ks = range(top + 1)
    for k in ks:
        rem = tuple(r - k * a for r, a in zip(residual, g))
        _search(gens, closes, idx + 1, rem, prefix + [k], out, cap)
        if cap is not None and len(out) >= cap:
            return


def factor_tuples(gens, n, cap: int | None) -> list[tuple[int, ...]]:
    """Up to cap factorizations of n over the plain tuples gens (all if cap
    is None), in generator order.  Nothing is checked: n must be a point of
    the generators' dimension."""
    if any(c and not any(g[j] for g in gens) for j, c in enumerate(n)):
        return []  # a coordinate no generator touches
    order, closes = _plan(gens)
    out: list[tuple[int, ...]] = []
    _search([gens[i] for i in order], closes, 0, n, [], out, cap)
    position = sorted(range(len(order)), key=order.__getitem__)
    return [tuple(lam[s] for s in position) for lam in out]


def _factor(S: Semigroup, n, cap: int | None) -> list[tuple[int, ...]]:
    """Up to cap factorizations of n (all if cap is None), in generator order."""
    return factor_tuples(S.generators, _as_point(n, S.q), cap)


def factorizations(S: Semigroup, n) -> frozenset[tuple[int, ...]]:
    """The complete set Z_n(S) of exponent vectors lam with sum(lam_i a_i) = n.

    One factorization comes from the search with cap 1; Z_n(S) is its fiber
    over the toric engine's basis, walked by reverse rewriting, where the
    uncapped search can take far longer."""
    first = _factor(S, n, 1)
    if not first:
        return frozenset()
    return fiber(first[0], GroebnerBasis(toric_ideal_generators(S)))


def count_capped(S: Semigroup, n, cap: int) -> int:
    """min(#Z_n(S), cap); the search aborts once cap factorizations are found."""
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    return len(_factor(S, n, cap))


def contains(S: Semigroup, n) -> bool:
    """Semigroup membership: n has at least one factorization."""
    n = tuple(int(c) for c in n)
    if len(n) != S.q:
        return False
    if any(c < 0 for c in n):
        return False
    return count_capped(S, n, 1) == 1
