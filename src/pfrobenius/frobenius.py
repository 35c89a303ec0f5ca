"""p-Frobenius vectors: one pipeline for every p >= 1, and the classical
p = 0 case of numerical semigroups.

``fp_general`` runs a finiteness gate on the cone, the toric engine's
reduced basis, the per-generator bounds Lambda read off it, and then one
strategy for every p and both orders:
a scan of the standard monomials grown from 0 inside prod [0, p*lambda_i)
by descending degree, counting each fiber by reverse rewriting until one
has at most p factorizations.  ``candidate_degrees`` lists the degrees of
the closed box, the paper's candidate set D.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math

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
from .factorization import factorizations
from .groebner import (
    Binomial,
    GroebnerBasis,
    assert_s_homogeneous,
    buchberger_reduced,
    fiber,
    fiber_size,
    first_small_fiber,
    in_ideal,
    toric_ideal_generators,
)


def lambda_bounds(S: Semigroup, G: GroebnerBasis) -> tuple[int, ...]:
    """Minimal pure-power exponent of each variable across the basis monomials:
    lambda_k * a_k factors over the other generators, minimally so.

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
    return tuple(best)


def candidate_degrees(S: Semigroup, lam: tuple[int, ...], p: int) -> set[tuple[int, ...]]:
    """Distinct semigroup elements sum(g_i a_i) with 0 <= g_i <= p*lambda_i."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    gens = S.generators
    q = S.q
    # every term is non-negative, so the top corner bounds every point built
    for j in range(q):
        checked(sum(p * b * a[j] for b, a in zip(lam, gens)))
    out: set[tuple[int, ...]] = set()
    ranges = [range(p * b + 1) for b in lam]
    for gamma in itertools.product(*ranges):
        pt = [0] * q
        for gi, a in zip(gamma, gens):
            if gi:
                for j in range(q):
                    pt[j] += gi * a[j]
        out.add(tuple(pt))
    return out


def _degree_ranks(S: Semigroup, order: OrderSpec) -> list[int]:
    """An int K_i per generator a_i such that sum(g_i * K_i) orders exponent
    vectors g as ``order.key(s_degree(S, g))`` does: sum(a_i) in the top
    64-bit field, then the a_ij as signed digits, +a_ij in field q-1-j under
    grlex and -a_ij in field j under grevlex.  The digits of the sum are the
    S-degree's coordinates, below 2^63 in absolute value, so however they
    borrow from each other the int order is the key's lexicographic order."""
    q = S.q
    if order.kind == "grlex":
        return [(sum(a) << 64 * q) + sum(c << 64 * (q - 1 - j) for j, c in enumerate(a)) for a in S.generators]
    return [(sum(a) << 64 * q) - sum(c << 64 * j for j, c in enumerate(a)) for a in S.generators]


@functools.lru_cache(maxsize=256)
def fp_general(S: Semigroup, p: int, order: OrderSpec = OrderSpec()) -> FrobeniusResult:
    """F_p(S) for any p >= 1 (p = 0 for q = 1).

    Grows the standard monomials of the toric engine's reduced basis G in
    the box prod [0, p*lambda_i), sorts them once by descending S-degree
    under ``order`` and counts their fibers in that order
    (``first_small_fiber``); the degree of the first whose fiber holds at
    most p monomials is F_p(S).  Each monomial is one packed int with its
    rank, ``_degree_ranks`` summed over its exponents, above its exponent
    fields.  The term order of G only picks the standard monomial of each
    fiber, and nothing below depends on which:
    - the box holds every factorization of each n with #Z(n) <= p: were
      gamma_i >= p*lambda_i, the basis element x_i^lambda_i - x^beta has beta
      free of x_i (the monomials of a reduced toric basis element are
      coprime), so gamma - j*lambda_i*e_i + j*beta, j = 0..p, would be p + 1
      distinct factorizations;
    - a fiber holds one standard monomial, so their degrees are distinct and
      the first hit is the maximum (0 always qualifies);
    - at p = 1 a fiber is a single point exactly when no trail divides its
      standard monomial: the staircase of the basis monomials;
    - the growth finds them all, each once: a divisor of a standard monomial
      is standard, so the standard monomials with support in x_0 .. x_i are
      those with support in x_0 .. x_{i-1} times the powers of x_i that keep
      them standard, and those powers stop at the first non-standard one.

    Cached: the result is deterministic in (S, p, order), and a gluing asks
    for the same F_p(S) twice, once for the bound and once for the verdict.
    """
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        return f0_numerical(S)
    if not is_fp_finite(S):
        return INFINITE
    G = GroebnerBasis(toric_ideal_generators(S))
    top = tuple(checked(p * b) for b in lambda_bounds(S, G))
    for j in range(S.q):  # the rank's digits are the S-degree coordinates of the box
        checked(sum((t - 1) * a[j] for t, a in zip(top, S.generators)))
    best = first_small_fiber(G, top, _degree_ranks(S, order), p + 1)
    return FrobeniusResult.finite(s_degree(S, best))


def _components(Z) -> list[frozenset[tuple[int, ...]]]:
    """Partition of the factorizations Z of one degree into the connected
    components of its simplicial complex, in one pass over Z.  Two are
    adjacent when their supports meet, so one is adjacent to a member of a
    component iff its support meets the union of the members' supports, kept
    as a bitmask: each factorization merges the components whose masks it
    meets, the smaller set into the larger, and joins them."""
    comps: list[tuple[int, set[tuple[int, ...]]]] = []
    for lam in Z:
        mask, members = sum(1 << i for i, e in enumerate(lam) if e), {lam}
        apart = []
        for m, c in comps:
            if m & mask:
                mask |= m
                small, members = sorted((c, members), key=len)
                members |= small
            else:
                apart.append((m, c))
        comps = apart + [(mask, members)]
    return [frozenset(c) for _, c in comps]


def nabla_components(S: Semigroup, m) -> list[frozenset[tuple[int, ...]]]:
    """Partition of Z_m(S) into connected components of the degree-m complex."""
    return _components(factorizations(S, m))


def verify_minimal_ideal_basis(S: Semigroup, B) -> bool:
    """Check that B is a minimal binomial generating set of the semigroup ideal.

    By graded Nakayama, every homogeneous generating set holds at least
    beta_m = #components of the degree-m complex - 1 binomials of each
    S-degree m, and it is minimal iff it holds exactly beta_m in every
    degree.  So B is one iff it has beta_m binomials in each of its degrees
    and generates (a degree B misses with beta_m > 0 fails the latter)."""
    by_degree: dict[tuple[int, ...], list[Binomial]] = {}
    for b in B:
        m = assert_s_homogeneous(S, b)
        by_degree.setdefault(m, []).append(b)
    G = GroebnerBasis(toric_ideal_generators(S))
    if any(len(bm) != len(_components(fiber(bm[0].lead, G))) - 1 for bm in by_degree.values()):
        return False
    # B must actually generate: every toric generator reduces to zero mod <B>
    GB = buchberger_reduced(list(B), OrderSpec("grlex"))
    return all(in_ideal(t, GB) for t in G.elements)


def indispensable_binomials(S: Semigroup) -> list[Binomial]:
    """Binomials present in every generating set of the semigroup ideal.

    A binomial of S-degree m is indispensable iff m has exactly two
    factorizations and they share no variable (Charalambous, Katsabekis &
    Thoma, Proc. AMS 135, 2007); every indispensable binomial occurs in
    every reduced basis, so scanning the toric engine's is complete.  Both
    monomials of a basis element b lie in its fiber, and they are coprime: a
    common factor would leave a smaller lead in the prime ideal.  So a fiber
    of size 2 is exactly {lead, trail}, with disjoint supports.  Each is
    returned with its grlex lead first, sorted by that lead.
    """
    G = GroebnerBasis(toric_ideal_generators(S))
    key = OrderSpec("grlex").key
    ind = [
        Binomial(*sorted((b.lead, b.trail), key=key, reverse=True))
        for b in G.elements
        if fiber_size(b.lead, G, 3) == 2
    ]
    return sorted(ind, key=lambda b: key(b.lead))


def f0_numerical(S: Semigroup) -> FrobeniusResult:
    """Frobenius number of a numerical semigroup (q = 1) from its Apery set.

    The least element of S in each residue class mod a_1 is the length of a
    shortest path from 0 in the graph on residues with an edge r -> r + a
    (mod a_1) of length a for each generator a (Nijenhuis, Amer. Math.
    Monthly 86, 1979); the largest gap is the largest of them less a_1.
    """
    if S.q != 1:
        raise UnsupportedError("p = 0 needs q = 1: gap sets of q >= 2 are out of scope")
    values = sorted(g[0] for g in S.generators)
    if math.gcd(*values) != 1:
        return INFINITE
    a1 = values[0]
    dist = [0] + [math.inf] * (a1 - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for a in values[1:]:
            nd, nr = checked(d + a), (r + a) % a1
            if nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return FrobeniusResult.finite((max(dist) - a1,))
