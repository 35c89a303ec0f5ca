"""p-Frobenius vectors, and the binomial generating sets of the semigroup ideal.

- ``fp_general`` is the one F_p pipeline; its docstring holds the contract
  and the route rule, and ``f0_numerical`` is its p = 0.
- ``_apery_walk`` and ``_fp_groebner`` are its two routes, each docstring
  with its algorithm and proof.  ``_staircase`` reads the walk's rank-2
  corners off its kept sums; ``lambda_bounds`` gives the scan's box, and
  ``candidate_degrees`` lists the degrees of the closed box, the paper's
  candidate set D.
- ``nabla_components``, ``verify_minimal_ideal_basis`` and
  ``indispensable_binomials`` read the factorizations and the binomials.

Only ``_fp_groebner``, ``indispensable_binomials``,
``verify_minimal_ideal_basis`` and, through ``factorizations``,
``nabla_components`` use the Groebner engine; each imports it when called,
so the walk runs without loading it.
"""
from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math

from .cone import is_fp_finite, ray_generators
from .core import (
    INFINITE,
    _F0_SCOPE,
    FrobeniusResult,
    OrderSpec,
    Semigroup,
    UnsupportedError,
    ValidationError,
    _as_int,
    _as_order,
    _as_point,
    checked,
    s_degree,
)
from .factorization import factorizations


def lambda_bounds(S: Semigroup, G) -> tuple[int, ...]:
    """Minimal pure-power exponent of each variable across the basis monomials:
    lambda_k * a_k factors over the other generators, minimally so.

    In the finite case a reduced basis holds a pure power of every variable:
    x_k^lambda_k - x^beta lies in the ideal, so x_k^lambda_k is divisible by a
    lead or, if it is standard, by the trail of the last rewrite reaching it.
    A missing pure power therefore means F_p(S) is infinite (or G is not a
    reduced basis), and raises.
    """
    best: list[int | None] = [None] * S.h
    for b in G:
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
    _as_int(p, "p", 1)
    top = [p * b for b in _as_point(lam, S.h)]
    s_degree(S, top)  # the top corner bounds every point built: it fails fast
    return {s_degree(S, gamma) for gamma in itertools.product(*(range(t + 1) for t in top))}


def fp_general(S: Semigroup, p: int, order: OrderSpec = OrderSpec()) -> FrobeniusResult:
    """F_p(S) for any p >= 1, and for p = 0 when q = 1 (UnsupportedError else).

    For p >= 1 the gate on the rays answers an infinite F_p first.  Then the
    number of extremal rays alone picks the route, whatever q is: one or two
    rays take ``_apery_walk``, three or more ``_fp_groebner``.  Each route
    returns the candidates for F_p, all of one top degree (none for an
    infinite F_0), and none of its steps depends on the order, so each is
    cached per (S, p) and both orders share one run.  The order is graded,
    so F_p is its largest candidate, picked here, last.
    """
    _as_int(p, "p", 0)
    _as_order(order)
    if p == 0 and S.q > 1:
        raise UnsupportedError(_F0_SCOPE)
    if p and not is_fp_finite(S):
        return INFINITE
    route = _apery_walk if len(ray_generators(S)) <= 2 else _fp_groebner  # the rays are cached
    points = route(S, p)  # each checked where the route built it
    if not points:
        return INFINITE
    return FrobeniusResult(max(points, key=order.key) if len(points) > 1 else points[0])


@functools.lru_cache(maxsize=256)
def _fp_groebner(S: Semigroup, p: int) -> tuple[tuple[int, ...], ...]:
    """The candidates for F_p of S, finite with p >= 1, from the toric
    engine's reduced basis G: the S-degrees of the top total degree that
    have at most p factorizations.  No step depends on the graded order, so
    ``fp_general`` picks F_p among them, and this is cached per (S, p).

    This grows the standard monomials of G in the box prod [0, p*lambda_i),
    sorts them once by descending total degree of their S-degrees, and
    counts their fibers level by level (``top_small_fibers``), down to the
    first level with one of at most p monomials.  Each monomial is one
    packed int with its degree, sum(a_i) summed over its exponents, above
    its exponent fields.  The term order of G only picks the standard
    monomial of each fiber, and nothing below depends on which:
    - the box holds every factorization of each n with #Z(n) <= p: were
      gamma_i >= p*lambda_i, the basis element x_i^lambda_i - x^beta has beta
      free of x_i (the monomials of a reduced toric basis element are
      coprime), so gamma - j*lambda_i*e_i + j*beta, j = 0..p, would be p + 1
      distinct factorizations;
    - a fiber holds one standard monomial, so their S-degrees are distinct,
      and the hits of the first level are all the elements of the top degree
      with #Z <= p (0 always qualifies);
    - at p = 1 a fiber is a single point exactly when no trail divides its
      standard monomial: the staircase of the basis monomials;
    - the growth finds them all, each once: a divisor of a standard monomial
      is standard, so the standard monomials with support in x_0 .. x_i are
      those with support in x_0 .. x_{i-1} times the powers of x_i that keep
      them standard, and those powers stop at the first non-standard one.
    """
    from . import groebner

    G = groebner.toric_ideal_generators(S)
    top = tuple(p * b for b in lambda_bounds(S, G))
    s_degree(S, [t - 1 for t in top])  # the box corner bounds the S-degree of every point the scan builds
    hits = groebner.top_small_fibers(G, top, [sum(a) for a in S.generators], p + 1)
    return tuple(s_degree(S, g) for g in hits)


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
    from . import groebner

    by_degree: dict[tuple[int, ...], list] = {}
    for b in B:
        m, t = s_degree(S, b.lead), s_degree(S, b.trail)
        if m != t:
            raise ValidationError(f"binomial {b} is not S-homogeneous: {m} != {t}")
        by_degree.setdefault(m, []).append(b)
    G = groebner.toric_ideal_generators(S)
    if any(len(bm) != len(_components(groebner.fiber(bm[0].lead, G))) - 1 for bm in by_degree.values()):
        return False
    # B must actually generate: every toric generator reduces to zero mod <B>
    GB = groebner.buchberger_reduced(list(B), OrderSpec("grlex"))
    return all(groebner.in_ideal(t, GB) for t in G)


def indispensable_binomials(S: Semigroup) -> list:
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
    from . import groebner

    G = groebner.toric_ideal_generators(S)
    key = OrderSpec("grlex").key
    ind = [
        groebner.Binomial(*sorted((b.lead, b.trail), key=key, reverse=True))
        for b in G
        if groebner.fiber_size(b.lead, G, 3) == 2
    ]
    return sorted(ind, key=lambda b: key(b.lead))


@functools.lru_cache(maxsize=256)
def _apery_walk(S: Semigroup, p: int) -> tuple[tuple[int, ...], ...]:
    """The candidates for F_p of S from its p-Apery sets over the ray
    generators, with no Groebner basis: S of rank 1 (p >= 0) or 2 (p >= 1)
    at any q, with F_p finite when p >= 1.  No step depends on the term
    order, so ``fp_general`` picks F_p among these points under its
    order, and the walk is cached per (S, p): an empty tuple for an infinite
    F_0, the one point at rank 1, the corners of the top degree at rank 2.
    The cache holds only those points, never the kept sums; a call that
    raises caches nothing.

    Let e1 be the generator of least degree on the first ray.  At rank 2, e2
    is that on the second, (c1, c2) the first pair of coordinates on which
    they are independent, E the 2 x 2 matrix of e1 and e2 on them,
    D = det E > 0 and z(v) = adj(E) (v_c1, v_c2), so z(e1) = (D, 0) and
    z(e2) = (0, D).  S lies in the plane of e1 and e2, which projects one
    to one onto the coordinates (c1, c2), so every z, class and count below
    is that of the projected semigroup.  Degrees and points use all q
    coordinates.  At rank 1, z(v) = (v_c1, 0) and D = z_1(e1), c1 the
    largest coordinate of e1.  Every other generator b has z(b) >= 0.  The
    factorizations of n are the sums L of other generators (as multisets)
    with z(L) <= z(n) componentwise and z(L) = z(n) mod D, each completed by
    copies of the ray generators.  Each z coordinate is divided by its gcd
    g_i with D over the generators, and taken mod m_i = D / g_i; this
    changes none of the above and keeps the numbers small (at rank 1,
    g_2 = D and m_2 = 1).

    Pruning: once p + 1 other sums of its class lie at or below L, every
    element at or above L or at or above a sum grown from L has at least
    p + 2 factorizations, so L and every sum grown from it are dropped.  The
    sums are grown as monotone walks over the b, each multiset once, one
    level of z_1 + z_2 at a time: a dict holds the pending sums of each
    level, a heap of plain ints its sizes.  Every b has z_1 + z_2 >= 1, so
    every sum strictly below L lies on an earlier level and is kept or
    dropped before L is seen.  Two sums of one level are never strictly
    below one another, and equal ones count each other.  Which of those
    the walk keeps depends on their order in the level, and so does which
    multisets are grown later, but not the set {#Z <= p}, so not the points
    read from it.  So for n with #Z(n) <= p, #Z(n) is the number of kept L
    of n's class at or below n: none of its factorizations was dropped.  An
    n with #Z(n) > p has p + 1 kept below it, its own or those that dropped
    one.
    F_(p+1) is finite, so only finitely many L are kept and the walk ends.

    Rank 1: the scaled z_1 have gcd 1, so every class mod m_1 is reached and
    keeps its p + 1 smallest L.  Its elements with 1 <= #Z <= p lie from its
    first L up to below its last, so F_p is g_1 (L - m_1) e1 / D for the
    largest last L over the classes whose kept L do not all tie.  F_0 reads
    the largest first L (Nijenhuis, Amer. Math. Monthly 86, 1979), and is
    infinite when g_1, then the gcd of the generators, is above 1.  These are
    the p-Apery sets of Komatsu's p-numerical semigroups.

    Rank 2: ``_staircase`` reads the corners of the top degree off the kept
    L of all classes, weighing z_i by g_i times the degree of e_i, and each
    corner (a, b) it returns is n = (g_1 a e1 + g_2 b e2) / D.
    """
    (e1, *_), *plane = ray_generators(S)  # cached, shared with the gate
    if plane:
        ((e2, *_),) = plane
        c1, c2 = 0, 1
        while not (D := e1[c1] * e2[c2] - e1[c2] * e2[c1]):
            c1, c2 = (c1, c2 + 1) if c2 + 1 < S.q else (c1 + 1, c1 + 2)
        if D < 0:
            e1, e2, D = e2, e1, -D
        zs = [(e2[c2] * b[c1] - e2[c1] * b[c2], e1[c1] * b[c2] - e1[c2] * b[c1]) for b in S.generators if b not in (e1, e2)]
    else:
        D = max(e1)
        c1 = e1.index(D)
        zs = [(b[c1], 0) for b in S.generators if b != e1]
    g1, g2 = math.gcd(D, *(u for u, _ in zs)), math.gcd(D, *(v for _, v in zs))
    if p == 0 and g1 > 1:
        return ()
    m1, m2 = D // g1, D // g2
    zs = [(u // g1, v // g2) for u, v in zs]
    # m_i copies of the second generator b of ray i bring a sum back to its
    # class, so the p + 1 sums that prune a class, and its corners, reach
    # about p * m_i * z(b): refuse, as the box corner does, a p for which even
    # the least such bound passes 64 bits
    checked(p * max(m1, m2) * min(map(max, zs), default=0))
    k = p + 1
    try:  # the kept L per class: at rank 1 one slot per class mod m_1, None until reached
        kept = collections.defaultdict(list) if plane else [None] * m1
    except MemoryError:
        raise UnsupportedError(f"the allocator refused the p-Apery tables of the ray generator {e1}") from None
    # tails[j]: the steps (z_1 + z_2, z_1, z_2, index) of b_j and the b after
    # it, those a sum whose last b is b_j may take; the root's j = 0 has an
    # entry even when no b lies off the rays
    steps = [(u + v, u, v, i) for i, (u, v) in enumerate(zs)]
    tails = [steps[j:] for j in range(len(steps) + 1)]
    pop, push = heapq.heappop, heapq.heappush
    levels = {0: [(0, 0, 0)]}  # z_1 + z_2 -> its pending (z_1, z_2, index of the last b)
    sizes = [0]  # the keys of levels, as a heap
    while sizes:
        size = pop(sizes)
        for x, y, j in levels.pop(size):
            c = x % m1 * m2 + y % m2
            below = kept[c]
            if below is None:
                below = kept[c] = []
            elif len(below) >= k:  # fewer kept cannot prune it
                under = 0
                for u, v in below:
                    if u <= x and v <= y:
                        under += 1
                        if under == k:
                            break
                if under == k:
                    continue
            below.append((x, y))
            for s, u, v, i in tails[j]:
                t = size + s
                level = levels.get(t)
                if level is None:
                    levels[t] = [(x + u, y + v, i)]
                    push(sizes, t)
                else:
                    level.append((x + u, y + v, i))
    checked(size)  # the sums come out by ascending size: no z coordinate exceeds the last
    if not plane:  # F_0 from the first L of each class, F_p from the last
        z1 = g1 * (max(pts[-1][0] for pts in kept if not p or pts[-1] > pts[0]) - m1)
        return (tuple(checked(z1 * c // D) for c in e1),)
    corners = _staircase(kept.values(), k, m1, m2, g1 * sum(e1), g2 * sum(e2))
    return tuple(tuple(checked((g1 * a * u + g2 * b * v) // D) for u, v in zip(e1, e2)) for a, b in corners)


def _staircase(classes, k: int, m1: int, m2: int, w1: int, w2: int) -> list[tuple[int, int]]:
    """The maximal points of the largest degree a*w1 + b*w2 over the
    staircases of ``classes``, as pairs (a, b).  A class is a list of points
    (x, y) of one coset of m1 Z x m2 Z, repeats counted; its staircase is the
    set of the coset's points z with fewer than k of the list at or below z.

    In one class let x_0 < x_1 < ... be the distinct x, and y_i the k-th
    smallest y of the points with x <= x_i.  From x_i to below x_(i+1) the
    staircase holds the z with y < y_i.  Left of x_0, where fewer than k
    points have x <= x_i, and past the last x, it runs on without end, with
    no maximal point.  So the maximal points are the (x_(i+1) - m1, y_i - m2)
    with y_(i+1) < y_i.  A sweep by ascending x, with a heap of the k
    smallest y, finds each when a point of the column x_(i+1) first pushes
    the k-th smallest y below y_i.

    ``_apery_walk`` passes the kept L of each class with k = p + 1, so a
    staircase is {#Z <= p} of its class.  Its points above an n with
    1 <= #Z(n) <= p have 1 to p factorizations too, finitely many as F_p is
    finite, so one of them is maximal; above F_p, it would outrank F_p under
    the graded order.  So F_p is a maximal point, of the top degree unless a
    maximal point outside S (no kept L at or below) is larger.  Those occur,
    where the k smallest y all equal y_i and k kept L of the column x_(i+1)
    lie lower, and no argument here rules one out at the top degree; the
    tests' differentials against the Groebner scan (``apery_differential``,
    ``rank2_differential``) check that none is.
    """
    top, corners = 0, []
    for pts in classes:
        if len(pts) <= k:  # a step needs k points left of it and one in it
            continue
        # the k smallest y so far, negated, and the k-th smallest left of the
        # column x while the column has not stepped below it, else None
        smallest, column, bar = [], None, None
        for x, y in sorted(pts):
            if x != column:
                column, bar = x, -smallest[0] if len(smallest) == k else None
            heapq.heappush(smallest, -y)
            if len(smallest) > k:
                heapq.heappop(smallest)
                if bar is not None and -smallest[0] < bar:
                    a, b, bar = x - m1, bar - m2, None
                    if (degree := a * w1 + b * w2) > top or not corners:
                        top, corners = degree, [(a, b)]
                    elif degree == top:
                        corners.append((a, b))
    return corners


def f0_numerical(S: Semigroup) -> FrobeniusResult:
    """Frobenius number of a numerical semigroup (q = 1): ``fp_general(S, 0)``,
    from the Apery set of the smallest generator, in the walk's cache."""
    return fp_general(S, 0)
