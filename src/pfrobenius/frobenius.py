"""p-Frobenius vectors: one pipeline for every p >= 1, and the classical
p = 0 case of numerical semigroups.

``fp_general`` runs a finiteness gate on the cone, the reduced basis, the
per-generator bounds Lambda read off it, and then one of two strategies:
at p = 1 the staircase complement of the basis monomials, at p >= 2 a scan
of the candidate box for the top element with at most p factorizations.
An optional ``stats`` dict collects the intermediate cardinalities so
callers can regression-check them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cone import is_fp_finite
from .core import (
    INFINITE,
    FrobeniusResult,
    OrderSpec,
    Semigroup,
    UnsupportedError,
    ValidationError,
    checked,
    s_degree,
)
from .factorization import count_capped, factorizations
from .groebner import (
    Binomial,
    GroebnerBasis,
    assert_s_homogeneous,
    buchberger_reduced,
    in_ideal,
    reduced_basis,
    toric_ideal_generators,
)


@dataclass(frozen=True)
class LambdaBounds:
    """Per-generator multipliers: bounds[k]*a_k factors over the other generators."""

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < 1 for b in self.bounds):
            raise ValidationError("lambda bounds must all be >= 1")


def lambda_bounds(S: Semigroup, G: GroebnerBasis) -> LambdaBounds:
    """Minimal pure-power exponent of each variable across the basis monomials.

    In the finite case a reduced basis holds a pure power of every variable:
    x_k^lambda_k - x^beta lies in the ideal, so x_k^lambda_k is divisible by a
    lead or, if it is standard, by the trail of the last rewrite reaching it.
    A missing pure power therefore means F_p(S) is infinite (or G is not a
    reduced basis), and raises.
    """
    best: list[int | None] = [None] * S.h
    for b in G.elements:
        for mono in (b.lead, b.trail):
            support = [i for i, e in enumerate(mono) if e > 0]
            if len(support) == 1:
                k = support[0]
                e = mono[k]
                if best[k] is None or e < best[k]:
                    best[k] = e
    if None in best:
        raise ValidationError("lambda bounds only exist when F_p(S) is finite")
    return LambdaBounds(tuple(best))


def candidate_degrees(S: Semigroup, lam: LambdaBounds, p: int) -> set[tuple[int, ...]]:
    """Distinct semigroup elements sum(g_i a_i) with 0 <= g_i <= p*lambda_i."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    gens = S.generators
    q = S.q
    # every term is non-negative, so the top corner bounds every point built
    for j in range(q):
        checked(sum(p * b * a[j] for b, a in zip(lam.bounds, gens)))
    out: set[tuple[int, ...]] = set()
    ranges = [range(p * b + 1) for b in lam.bounds]
    for gamma in itertools.product(*ranges):
        pt = [0] * q
        for gi, a in zip(gamma, gens):
            if gi:
                for j in range(q):
                    pt[j] += gi * a[j]
        out.add(tuple(pt))
    return out


def _scan_descending(S, degrees, order: OrderSpec, p: int) -> FrobeniusResult:
    """Max under the order of the candidates with 0 < #Z <= p (early stop)."""
    for n in sorted(degrees, key=order.key, reverse=True):
        c = count_capped(S, n, p + 1)
        if 0 < c <= p:
            return FrobeniusResult.finite(n)
    raise RuntimeError("no candidate with at most p factorizations; bad bounds")


def fp_general(
    S: Semigroup, p: int, order: OrderSpec = OrderSpec(), stats: dict | None = None
) -> FrobeniusResult:
    """F_p(S) for any p >= 1 (p = 0 for q = 1): the staircase at p = 1, the
    candidate-box scan for p >= 2."""
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        if S.q == 1:
            return f0_numerical(S)
        raise UnsupportedError("p = 0 with q >= 2 (gap sets) is out of scope")
    if not is_fp_finite(S):
        return INFINITE
    if p == 1:
        omega, _, degrees = staircase_data(S, order)
        if stats is not None:
            stats["omega"] = len(omega)
            stats["complement_degrees"] = len(degrees)
        return FrobeniusResult.finite(max(degrees, key=order.key))
    lam = lambda_bounds(S, reduced_basis(S, order))
    degrees = candidate_degrees(S, lam, p)
    if stats is not None:
        stats["lambda"] = list(lam.bounds)
        stats["candidates"] = len(degrees)
    return _scan_descending(S, degrees, order, p)


def staircase_data(S: Semigroup, order: OrderSpec = OrderSpec()):
    """Basis monomial exponents Omega and the finite complement of their staircase.

    Returns (omega, complement, degrees): the complement is every tuple of
    N^h not componentwise above any element of omega, and degrees is the set
    of its semigroup images.  Those degrees are exactly the elements with a
    single factorization, so F_1(S) is their maximum.
    """
    G = reduced_basis(S, order)
    omega = frozenset(m for b in G.elements for m in (b.lead, b.trail))
    lam = lambda_bounds(S, G)
    complement = frozenset(
        gamma
        for gamma in itertools.product(*(range(b) for b in lam.bounds))
        if not any(all(w <= g for w, g in zip(om, gamma)) for om in omega)
    )
    degrees = frozenset(s_degree(S, gamma) for gamma in complement)
    return omega, complement, degrees


def f1_staircase(
    S: Semigroup, order: OrderSpec = OrderSpec(), stats: dict | None = None
) -> FrobeniusResult:
    """F_1(S) as the maximal semigroup image of the staircase complement."""
    return fp_general(S, 1, order, stats)


def f1_normalform(S: Semigroup, order: OrderSpec = OrderSpec()) -> FrobeniusResult:
    """F_1(S); an alias of fp_general(S, 1, order)."""
    return fp_general(S, 1, order)


def f2_improved(S: Semigroup, order: OrderSpec = OrderSpec()) -> FrobeniusResult:
    """F_2(S); an alias of fp_general(S, 2, order)."""
    return fp_general(S, 2, order)


def nabla_components(S: Semigroup, m) -> list[frozenset[tuple[int, ...]]]:
    """Partition of Z_m(S) into connected components of the degree-m complex.

    Two factorizations are adjacent when their supports intersect (the
    corresponding monomials share a variable); components of that graph
    coincide with the components of the simplicial complex.
    """
    Z = sorted(factorizations(S, m).factorizations)
    parent = list(range(len(Z)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(Z)):
        for j in range(i + 1, len(Z)):
            if any(a > 0 and b > 0 for a, b in zip(Z[i], Z[j])):
                parent[find(i)] = find(j)
    comps: dict[int, set[tuple[int, ...]]] = {}
    for i, lam in enumerate(Z):
        comps.setdefault(find(i), set()).add(lam)
    return [frozenset(c) for c in comps.values()]


def verify_minimal_ideal_basis(S: Semigroup, B) -> bool:
    """Check that B is a minimal binomial generating set of the semigroup ideal."""
    by_degree: dict[tuple[int, ...], list[Binomial]] = {}
    for b in B:
        m = assert_s_homogeneous(S, b)
        by_degree.setdefault(m, []).append(b)
    for m, bm in by_degree.items():
        comps = nabla_components(S, m)
        if len(comps) < 2:
            return False
        if len(bm) != len(comps) - 1:
            return False
        comp_of = {lam: i for i, c in enumerate(comps) for lam in c}
        touched = set()
        for b in bm:
            ci, cj = comp_of.get(b.lead), comp_of.get(b.trail)
            if ci is None or cj is None or ci == cj:
                return False
            touched.update((ci, cj))
        if touched != set(range(len(comps))):
            return False
    # B must actually generate: every toric generator reduces to zero mod <B>
    GB = buchberger_reduced(list(B), OrderSpec("grlex"))
    return all(in_ideal(t, GB) for t in toric_ideal_generators(S))


def indispensable_binomials(S: Semigroup) -> list[Binomial]:
    """Binomials present in every generating set of the semigroup ideal.

    A reduced-basis binomial of S-degree m is indispensable iff m has exactly
    two factorizations and they share no variable; every indispensable
    binomial occurs in the reduced basis, so scanning it is complete.
    """
    G = reduced_basis(S, OrderSpec("grlex"))
    out: list[Binomial] = []
    for b in G.elements:
        m = assert_s_homogeneous(S, b)
        Z = factorizations(S, m).factorizations
        if len(Z) != 2:
            continue
        lam, mu = tuple(Z)
        if not any(a > 0 and c > 0 for a, c in zip(lam, mu)):
            out.append(b)
    return out


def f0_numerical(S: Semigroup) -> FrobeniusResult:
    """Frobenius number of a numerical semigroup (q = 1) by membership scan."""
    from .factorization import contains

    if S.q != 1:
        raise UnsupportedError("f0_numerical requires q = 1")
    values = sorted(g[0] for g in S.generators)
    if math.gcd(*values) != 1:
        return INFINITE
    if values[0] == 1:
        return FrobeniusResult.finite((-1,))  # N itself has no gaps
    # Schur's bound (a_1 - 1)(a_h - 1) - 1 (Brauer 1942); when a_1 and a_2 are
    # coprime, S contains <a_1, a_2>, whose F_0 = a_1 a_2 - a_1 - a_2 is lower
    bound = (values[0] - 1) * (values[-1] - 1) - 1
    if math.gcd(values[0], values[1]) == 1:
        bound = min(bound, values[0] * values[1] - values[0] - values[1])
    for n in range(bound, -1, -1):
        if not contains(S, (n,)):
            return FrobeniusResult.finite((n,))
    return FrobeniusResult.finite((-1,))
