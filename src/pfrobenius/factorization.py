"""Factorization sets Z_n(S) by exact bounded depth-first search."""
from __future__ import annotations

from .core import Semigroup, ValidationError, _as_point


def _max_multiplicity(gen: tuple[int, ...], residual: tuple[int, ...]) -> int:
    """Largest k with k*gen <= residual componentwise."""
    bound = None
    for a, r in zip(gen, residual):
        if a > 0:
            b = r // a
            bound = b if bound is None else min(bound, b)
    return bound if bound is not None else 0


def _search(gens, idx, residual, prefix, out, cap):
    """DFS over multiplicities of gens[idx:]; residual stays non-negative."""
    if cap is not None and len(out) >= cap:
        return
    g = gens[idx]
    if idx == len(gens) - 1:
        # last generator: the multiplicity is forced, solve directly
        k = None
        for a, r in zip(g, residual):
            if a > 0:
                if r % a:
                    return
                if k is None:
                    k = r // a
                elif k != r // a:
                    return
            elif r != 0:
                return
        out.append(tuple(prefix) + (k,))
        return
    top = _max_multiplicity(g, residual)
    for k in range(top + 1):
        rem = tuple(r - k * a for r, a in zip(residual, g))
        _search(gens, idx + 1, rem, prefix + [k], out, cap)
        if cap is not None and len(out) >= cap:
            return


def factorizations(S: Semigroup, n) -> frozenset[tuple[int, ...]]:
    """The complete set Z_n(S) of exponent vectors lam with sum(lam_i a_i) = n."""
    out: list[tuple[int, ...]] = []
    _search(S.generators, 0, _as_point(n, S.q), [], out, cap=None)
    return frozenset(out)


def count_capped(S: Semigroup, n, cap: int) -> int:
    """min(#Z_n(S), cap); the search aborts once cap factorizations are found."""
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    out: list[tuple[int, ...]] = []
    _search(S.generators, 0, _as_point(n, S.q), [], out, cap=cap)
    return len(out)


def contains(S: Semigroup, n) -> bool:
    """Semigroup membership: n has at least one factorization."""
    n = tuple(int(c) for c in n)
    if len(n) != S.q:
        return False
    if any(c < 0 for c in n):
        return False
    return count_capped(S, n, 1) == 1
