"""Brute-force reference implementations, deliberately independent of the
Groebner engine: in any disagreement with the optimized algorithms, these
routines are trusted.  The module imports only ``core`` and ``cone``.

- ``_count_grid`` counts the factorizations of every point of a box by a
  coin-counting dynamic program on packed rows, with its no-carry proof;
  ``_fields`` gives the masks that test a whole row in place.
- ``_direct_lambda`` finds the multipliers that bound the box, with their
  proof; ``oracle_fp`` reads F_p off one grid over that box, and
  ``_oracle_f0`` reads F_0 off one line.  ``oracle_count`` reads one count.
- ``_Budget`` covers a whole call, the multiplier search included, and is
  checked once per generator.  A grid is allocated before the first check,
  so one the allocator grants is bounded only by the machine.
"""
from __future__ import annotations

import time
from functools import lru_cache
from math import gcd, isnan, prod
from operator import mul

from .cone import _direction, is_fp_finite, unpaired_rays
from .core import INFINITE, FrobeniusResult, OrderSpec, Record, Semigroup, UnsupportedError, ValidationError
from .core import _F0_SCOPE, _as_int, _as_order, _as_point, checked, s_degree


class OracleBudgetError(Exception):
    """The oracle's time budget ran out, or the allocator refused its grid."""


class OracleReport(Record):
    __slots__ = ("result", "scanned_bound", "certificate")

    def __init__(self, result: FrobeniusResult, scanned_bound: int, certificate: str) -> None:
        self._set(result, scanned_bound, certificate)


class _Budget:
    def __init__(self, seconds: float | None):
        # a NaN deadline never passes, and a bool or a string is no number of
        # seconds; a negative budget is already spent, an infinite one no limit
        if seconds is not None and (type(seconds) not in (int, float) or isnan(seconds)):
            raise ValidationError(f"budget_seconds must be None or a number of seconds, got {seconds!r}")
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleBudgetError("oracle time budget exhausted")

    # a budget bounds a call's time, not its answer: every budget is one
    # cache key, and _direct_lambda takes it positionally with no default, so
    # its cache keys on S alone
    def __eq__(self, other) -> bool:
        return isinstance(other, _Budget)

    def __hash__(self) -> int:
        return 0


def _count_grid(generators, maxes, budget=_Budget(None)) -> tuple[list, int, list]:
    """Exact #Z_n for every n componentwise below maxes, as packed rows: the
    rows, the field width in bits and the row strides.  A row holds the
    points that differ only in the last coordinate, as one int of fields of
    that width, n at bit bits * n[-1] of row sum(n_j * row_strides[j]).

    Row 0 starts as the line of the generators on the last axis: each such c
    multiplies it by 1/(1 - x^c) = (1 + x^c)(1 + x^2c)(1 + x^4c)..., one
    shift and add per factor while the shift stays on the row.  Every other
    generator a multiplies the grid by 1/(1 - t^a): each row of the sub-box
    [a, maxes], in ascending order, adds its source row, already final as
    a's nonzero head puts it earlier, shifted by a's last coordinate; the
    last head coordinate has row stride 1, so its rows run as one range.
    Each sum is masked back to the row; shifts only move counts up the row, so
    the fields the mask drops past maxes feed nothing in the box.  No field
    carries: each field counts factorizations of its point n over some of
    the generators (those on the last axis, mid-product, fewer than 2^(i+1)
    times), so at most #Z_n.  A factorization of n uses a at most
    min_j(n_j // a_j) times, and given the multiplicities of all generators
    but one, n fixes the last, so #Z_n is at most the product of the ranges
    min_j(maxes_j // a_j) + 1 (over the j with a_j > 0) of all generators
    but the one with the largest range.  The width is the least of 8, 16,
    32, ... bits that holds that bound below its top bit, and the spare top
    bit is what lets a reader test a whole row at once (see _fields).  A
    grid the allocator refuses, by memory or by size, is the budget's error.
    """
    width = maxes[-1] + 1
    row_strides = [prod(m + 1 for m in maxes[j + 1 : -1]) for j in range(len(maxes) - 1)]
    top, ranges = max(maxes), []  # no range exceeds top + 1
    for a in generators:
        r = top
        for c, m in zip(a, maxes):
            if c and m // c < r:
                r = m // c
        ranges.append(r + 1)
    bound = prod(ranges) // max(ranges, default=1)
    bits = 8
    while bound >> bits - 1:
        bits *= 2
    try:
        rows = [0] * prod(m + 1 for m in maxes[:-1])
        mask = (1 << bits * width) - 1
        line, off = 1, []
        for a in generators:
            *head, c = a
            if any(head):
                off.append(a)
                continue
            budget.check()
            while c < width:
                line = (line + (line << bits * c)) & mask
                c *= 2
        rows[0] = line
        for a in off:
            budget.check()
            if any(c > m for c, m in zip(a, maxes)):
                continue  # no point of the grid has a factorization using a
            *lead, h, c = a  # the head is lead and h, and h's rows have stride 1
            starts = [0]
            for x, m, s in zip(lead, maxes, row_strides):
                starts = [r + i * s for r in starts for i in range(x, m + 1)]
            back = sum(map(mul, lead, row_strides)) + h
            shift = bits * c
            for start in starts:
                for r in range(start + h, start + maxes[-2] + 1):
                    rows[r] = (rows[r] + (rows[r - back] << shift)) & mask
    except (MemoryError, OverflowError):
        raise OracleBudgetError(f"the allocator refused the grid over [0, {maxes}]") from None
    return rows, bits, row_strides


def _fields(bits: int, width: int, p: int) -> tuple[int, int, int]:
    """The masks of the whole-row field tests on rows of width fields of
    bits bits, each field below 2^(bits-1): low, over and high hold
    2^(bits-1) - 1, max(2^(bits-1) - 1 - p, 0) and 2^(bits-1) in every
    field.  Adding 2^(bits-1) - 1 - c to a count n < 2^(bits-1) sets the
    field's top bit exactly when n > c and stays below 2^bits, so no field
    carries into the next: (row + low) & ~(row + over) & high marks the
    fields that hold 1 to p, and ~(row + low) & high those that hold 0.
    The row of ones is read from width copies of the little-endian bytes
    of a field holding 1 (bits is a multiple of 8), in time linear in the
    row, where dividing 2^(bits*width) - 1 by 2^bits - 1 is quadratic.
    """
    ones = int.from_bytes((1).to_bytes(bits // 8, "little") * width, "little")
    high = ones << bits - 1
    return high - ones, ones * max((1 << bits - 1) - 1 - p, 0), high


@lru_cache(maxsize=256)
def _direct_lambda(S: Semigroup, budget: _Budget) -> tuple[int, ...]:
    """lam_k, the least j with j*a_k a sum of the other generators, for each k.

    That is the least j >= 2 with #Z_{j*a_k}(S) >= 2, so grids of all of S
    serve every generator.  An atom never has lam = 1; and if c != j*e_k
    also factors j*a_k with c_k = i >= 1, then (j - i)*a_k has the two
    factorizations (j - i)*e_k and c - i*e_k, with j - i < j (j - i = 1
    would make a_k no atom).  If a_m = g_m*d shares a_k = g_k*d's ray,
    top_k = g_m / gcd(g_k, g_m) puts top_k*a_k in <a_m>; else top_k = 2.

    A point of an extremal ray, such as an axis of N^q, factors only over
    that ray's generators: the others would leave it.  So a generator on an
    axis that carries exactly two, g*e_j and m*e_j, has lam = top, that is
    m / gcd(g, m) and g / gcd(g, m), with no count; at q = 1 every generator
    lies on the one axis.  The finite gate pairs every axis generator, so
    those on an axis with three or more read lam off one line, a
    one-dimensional grid of that axis's steps up to their largest top_k*a_k,
    which no other generator reaches.  The rest share one grid over the
    componentwise max of top_k*a_k, and only the unresolved tops double:
    past the finite gate an unpaired generator is a non-negative rational
    combination of others in its support, so some multiple of it factors
    over them, and only the budget bounds the search.  The axis tops stay
    off that grid, which they would stretch along every axis.  The
    multipliers do not depend on p, so they are cached per semigroup; a
    call that raises caches nothing.
    """
    gens, q = S.generators, S.q
    if q == 1:  # one ray: every generator on the axis
        tops = [min((m // gcd(g, m) for m, in gens if m != g), default=2) for g, in gens]
        axes, off = [list(range(S.h))], []
    else:
        on_ray = [(_direction(a), gcd(*a)) for a in gens]  # a = g*d
        rays = {}
        for d, g in on_ray:
            rays.setdefault(d, []).append(g)
        tops = [min((m // gcd(g, m) for m in rays[d] if m != g), default=2) for d, g in on_ray]
        axes = [[k for k, a in enumerate(gens) if a[j] == sum(a)] for j in range(q)]
        off = [k for k, a in enumerate(gens) if max(a) < sum(a)]
    lam = [None] * S.h
    for j, ks in enumerate(axes + [off]):
        if j < q:
            if len(ks) == 2:  # the pair alone on its axis
                lam[ks[0]], lam[ks[1]] = tops[ks[0]], tops[ks[1]]
                continue
            line = [(gens[k][j],) for k in ks]
        while ks:
            if j < q:  # the line of axis j, read at a[j] = a . e_j
                rows, bits, _ = _count_grid(line, (max(checked(tops[k] * gens[k][j]) for k in ks),), budget)
                steps = [(0, gens[k][j]) for k in ks]
            else:
                maxes = tuple(max(checked(tops[k] * gens[k][i]) for k in ks) for i in range(q))
                rows, bits, strides = _count_grid(gens, maxes, budget)
                steps = [(sum(map(mul, gens[k], strides)), gens[k][-1]) for k in ks]
            cell = (1 << bits) - 1
            for k, (r, c) in zip(ks, steps):  # i*a_k is field i*c of row i*r
                lam[k] = next((i for i in range(2, tops[k] + 1) if rows[i * r] >> bits * i * c & cell >= 2), None)
                tops[k] *= 2
            ks = [k for k in ks if lam[k] is None]
    return tuple(lam)


def oracle_count(S: Semigroup, n, budget_seconds: float | None = None) -> int:
    """Exact #Z_n(S): the top field of the last row of one grid over the box
    [0, n]."""
    n = _as_point(n, S.q)
    rows, bits, _ = _count_grid(S.generators, n, _Budget(budget_seconds))
    return rows[-1] >> bits * n[-1]


def oracle_fp(
    S: Semigroup,
    p: int,
    order: OrderSpec = OrderSpec(),
    budget_seconds: float | None = None,
) -> OracleReport:
    """F_p(S) by an exact count of every point of one box.

    If a factorization gamma of n has gamma_i >= p*lam_i, n has p + 1
    distinct ones (see fp_general), so every n with 1 <= #Z_n <= p lies in
    the box [0, sum((p*lam_i - 1)*a_i)], whose corner is an s_degree,
    checked against 64 bits before any count.  F_p is the order-maximum of the
    points of that box with 0 < #Z_n <= p; 0 is one of them.  A graded order
    ranks a higher degree first, so the scan reads F_p from the top degree
    down.  A row holds the points that differ only in the last coordinate,
    one point per degree; the rows are read in decreasing order of their top
    degree: one whole-row field test (see _fields) marks the row's points
    with 1 to p factorizations, bit_length finds the highest, which counts
    if it lies at or above the best degree found so far, and the scan stops
    at the first row whose top lies below that degree.  An
    infinite F_p is an answer too, certified by an extremal ray that carries
    only one generator (p >= 1) or by the gcd the generators share (p = 0).
    """
    budget = _Budget(budget_seconds)
    _as_int(p, "p", 0)
    _as_order(order)
    if p == 0:
        return _oracle_f0(S, budget)
    if not is_fp_finite(S):
        ray = unpaired_rays(S)[0]
        return OracleReport(
            INFINITE, 0, f"the extremal ray {ray} carries only one generator"
        )
    lam = _direct_lambda(S, budget)
    maxes = s_degree(S, [p * b - 1 for b in lam])
    rows, bits, strides = _count_grid(S.generators, maxes, budget=budget)
    budget.check()
    width = maxes[-1] + 1
    low, over, high = _fields(bits, width, p)
    scan = [(0, 0)]  # the degree of each row's first point, and the row
    for m, s in zip(maxes[:-1], strides):
        scan = [(t + i, r + i * s) for t, r in scan for i in range(m + 1)]
    scan.sort(reverse=True)
    top, hits = 0, []  # the best degree so far and its points, one per row
    for t, r in scan:
        if t + width <= top:
            break
        row = rows[r]
        i = ((row + low) & ~(row + over) & high).bit_length() // bits - 1  # -1: none
        if i >= 0 and t + i >= top:
            if t + i > top:
                top, hits = t + i, []
            hits.append((r, i))
    points = [tuple(r // s % (m + 1) for s, m in zip(strides, maxes)) + (i,) for r, i in hits]
    return OracleReport(
        FrobeniusResult(max(points, key=order.key) if len(points) > 1 else points[0]),  # within maxes
        scanned_bound=sum(maxes),
        certificate=f"all {len(rows) * width} points of the box [0, {maxes}] (lambda = {lam}, "
        f"p = {p}) counted exactly",
    )


def _oracle_f0(S: Semigroup, budget: _Budget) -> OracleReport:
    if S.q != 1:
        raise UnsupportedError(_F0_SCOPE)
    values = sorted(g[0] for g in S.generators)
    if (g := gcd(*values)) != 1:
        return OracleReport(INFINITE, 0, f"every generator is a multiple of {g}")
    if values[0] == 1:
        return OracleReport(FrobeniusResult((-1,)), 0, "no gaps: S = N")
    bound = checked((values[0] - 1) * (values[-1] - 1) - 1)  # Schur (Brauer 1942)
    rows, bits, _ = _count_grid(S.generators, (bound,), budget=budget)
    low, _, high = _fields(bits, bound + 1, 0)
    return OracleReport(
        FrobeniusResult(((~(rows[0] + low) & high).bit_length() // bits - 1,)),  # the last gap, below bound
        scanned_bound=bound,
        certificate=f"all integers up to {bound} counted exactly",
    )
