"""Brute-force reference implementations, deliberately independent of the
Groebner engine.

Factorization counting here is a coin-counting dynamic program over a grid
of points (no depth-first search, no normal forms, no bases), and the
per-generator multiplier bounds are found by direct multiple search.  In any
disagreement with the optimized algorithms, these routines are trusted.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import gcd

from .cone import is_fp_finite
from .core import (
    FrobeniusResult,
    OrderSpec,
    Semigroup,
    ValidationError,
    checked,
)


class OracleBudgetError(Exception):
    """The configured oracle time budget was exhausted."""


@dataclass(frozen=True)
class OracleReport:
    result: FrobeniusResult
    scanned_bound: int
    certificate: str


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleBudgetError("oracle time budget exhausted")


def _count_grid(
    generators, maxes: tuple[int, ...], budget: _Budget | None = None
) -> dict[tuple[int, ...], int]:
    """Exact #Z_n for every n componentwise below maxes, by the standard
    one-generator-at-a-time counting recurrence."""
    points = sorted(
        itertools.product(*(range(m + 1) for m in maxes)), key=lambda n: (sum(n), n)
    )
    ways = {n: 0 for n in points}
    ways[(0,) * len(maxes)] = 1
    for a in generators:
        if budget is not None:
            budget.check()
        for n in points:
            prev = tuple(c - ac for c, ac in zip(n, a))
            if all(c >= 0 for c in prev):
                ways[n] += ways[prev]
    return ways


def _grid_contains(generators, n: tuple[int, ...]) -> bool:
    return _count_grid(generators, n)[n] > 0


def _direct_lambda(S: Semigroup, cap: int = 10_000) -> tuple[int, ...]:
    """Smallest multiplier per generator whose multiple avoids that generator."""
    out = []
    for k, a in enumerate(S.generators):
        others = [g for i, g in enumerate(S.generators) if i != k]
        for lam in range(1, cap + 1):
            target = tuple(checked(lam * c) for c in a)
            if _grid_contains(others, target):
                out.append(lam)
                break
        else:
            raise RuntimeError(f"no own-free multiple of generator {k} up to {cap}")
    return tuple(out)


def oracle_counts_up_to(
    S: Semigroup, degree_bound: int, budget_seconds: float | None = None
) -> dict[tuple[int, ...], int]:
    """Exact #Z_n(S) for every n in N^q with coordinate sum <= degree_bound."""
    if degree_bound < 0:
        raise ValidationError("degree bound must be >= 0")
    grid = _count_grid(
        S.generators, (degree_bound,) * S.q, budget=_Budget(budget_seconds)
    )
    return {n: c for n, c in grid.items() if sum(n) <= degree_bound}


def oracle_fp(
    S: Semigroup,
    p: int,
    order: OrderSpec = OrderSpec(),
    budget_seconds: float | None = None,
) -> OracleReport:
    """F_p(S) by exhaustive scan of the full candidate box with exact counts."""
    budget = _Budget(budget_seconds)
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        return _oracle_f0(S, budget)
    if not is_fp_finite(S):
        raise ValidationError("oracle_fp requires finite F_p; check is_fp_finite")
    lam = _direct_lambda(S)
    candidates: set[tuple[int, ...]] = set()
    for gamma in itertools.product(*(range(p * b + 1) for b in lam)):
        pt = [0] * S.q
        for gi, a in zip(gamma, S.generators):
            for j in range(S.q):
                pt[j] += gi * a[j]
        candidates.add(tuple(checked(c) for c in pt))
    budget.check()
    maxes = tuple(max(n[j] for n in candidates) for j in range(S.q))
    counts = _count_grid(S.generators, maxes, budget=budget)
    best = None
    key = order.key
    for n in candidates:
        if 0 < counts[n] <= p:
            if best is None or key(n) > key(best):
                best = n
    if best is None:
        raise RuntimeError("no candidate qualified; inconsistent bounds")
    bound = max(sum(n) for n in candidates)
    return OracleReport(
        FrobeniusResult.finite(best),
        scanned_bound=bound,
        certificate=(
            f"all {len(candidates)} box elements (lambda = {lam}, p = {p}) "
            f"counted exactly"
        ),
    )


def _oracle_f0(S: Semigroup, budget: _Budget) -> OracleReport:
    if S.q != 1:
        raise ValidationError("oracle p = 0 supports numerical semigroups only")
    values = sorted(g[0] for g in S.generators)
    if gcd(*values) != 1:
        raise ValidationError("oracle p = 0 needs gcd 1 (finite gap set)")
    if values[0] == 1:
        return OracleReport(FrobeniusResult.finite((-1,)), 0, "no gaps: S = N")
    bound = (values[0] - 1) * (values[-1] - 1) - 1  # Schur (Brauer 1942)
    counts = _count_grid(S.generators, (bound,), budget=budget)
    gaps = [n for n in range(bound + 1) if counts[(n,)] == 0]
    return OracleReport(
        FrobeniusResult.finite((max(gaps),)),
        scanned_bound=bound,
        certificate=f"all integers up to {bound} counted exactly",
    )
