"""Binomial-only Groebner engine.

Every object handled here is a pure difference of two monomials, so the
whole Buchberger machinery closes over (lead, trail) exponent-vector pairs:
S-polynomials of binomials are binomials, and reducing a binomial by
binomials rewrites single monomials.  General polynomials never appear.

The semigroup ideal comes from the integer kernel of the generator matrix,
with no auxiliary variables (Bigatti, La Scala & Robbiano, "Computing toric
ideals", JSC 27, 1999; Hosten & Sturmfels, GRIN, IPCO 1995).  A basis of the
kernel lattice L gives binomials x^{v+} - x^{v-} whose ideal can be smaller
than the semigroup ideal; saturating it by the product of all variables
recovers the semigroup ideal, because L is saturated.  The kernel basis is
size-reduced, seeded with circuits of the generator matrix where they spare
saturation steps, and the variables are saturated one at a time; after every
step, the binomials found so far decide which of the others need no step
(see ``toric_ideal_generators``).

Inside the engine an exponent vector is one int (Bachmann & Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998): a
64-bit field per variable, 63 value bits under a guard bit, the variable the
order compares first highest, and the weighted degree above them all.
Packing is linear, so a rewrite is one addition; divisibility, lcm and the
coprime test read the guard bits of one subtraction.  A guard bit that an
input, an S-pair or a rewrite sets raises OverflowGuardError.  Past the
basis, normal forms, fiber counts and the growth of the standard monomials
run on the same fields with no degree above them, or, in
``first_small_fiber``, with a linear rank there instead; only the public
functions' inputs and outputs are tuples.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import lshift, mul, sub

from .core import INT64_MAX, OrderSpec, OverflowGuardError, Semigroup, ValidationError, checked, s_degree


@dataclass(frozen=True)
class Binomial:
    """X^lead - X^trail with lead strictly greater under the active order."""

    lead: tuple[int, ...]
    trail: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.lead == self.trail:
            raise ValidationError("zero binomial (lead == trail)")


Pair = tuple[tuple[int, ...], tuple[int, ...]]  # (lead, trail) of a binomial


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[Binomial, ...]

    def __len__(self) -> int:
        return len(self.elements)


class _Order:
    """A monomial order on packed exponent vectors: weighted degree first,
    then the variables in ``perm`` order, a larger exponent ranking higher
    (sign +1) or lower (sign -1).  Calling it on a tuple gives its key."""

    def __init__(self, weights: tuple[int, ...], perm, sign: int) -> None:
        h = len(weights)
        self.weights, self.shifts, self.top = weights, [0] * h, 64 * h
        for k, j in enumerate(perm):
            self.shifts[j] = 64 * (h - 1 - k)
        self.guard = sum(1 << (64 * k + 63) for k in range(h))
        self.values = self.guard - (self.guard >> 63)
        self.flip = self.values if sign < 0 else 0

    def pack(self, v: tuple[int, ...]) -> int:
        if not all(0 <= e <= INT64_MAX for e in v):
            raise OverflowGuardError(f"exponent vector {v} leaves the 63-bit fields")
        return sum(map(lshift, v, self.shifts)) + (sum(map(mul, self.weights, v)) << self.top)

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple(m >> s & INT64_MAX for s in self.shifts)

    def with_degree(self, m: int) -> int:
        return m + (sum(map(mul, self.weights, self.unpack(m))) << self.top)

    def __call__(self, v: tuple[int, ...]) -> int:
        return self.pack(v) ^ self.flip


def _reduce(m: int, leads: list[int], deltas: list[int], guard: int) -> int:
    """Rewrite the packed m by lead -> trail until no lead divides it."""
    while True:
        mg = m | guard
        for lead, delta in zip(leads, deltas):
            if (mg - lead) & guard == guard:
                m += delta
                if m & guard:
                    raise OverflowGuardError("a rewrite left the 63-bit exponent fields")
                break
        else:
            return m


def _buchberger(gens: list[Pair], key: _Order) -> list[Pair]:
    """A minimal Groebner basis by Buchberger with normal pair selection
    (min-lcm heap) and the Gebauer-Moeller pair update ("A note on the
    Buchberger algorithm for computing Groebner bases", JSC 6, 1988).

    Each element that joins the basis is paired with the live elements;
    queued pairs it makes redundant are pruned (B), and of its new pairs only
    those with a minimal lcm (M), one per lcm (F) and no lcm shared with a
    coprime-lead pair survive.  An element whose lead a later lead divides
    stops being live: it forms no new pairs but still reduces.  A joining
    lead is reduced, so no earlier lead divides it, and the live elements
    are a minimal basis; they are returned as (lead, trail) pairs.

    The inputs join in degree order, interleaved with the pairs: each step
    takes the next input if its lead's key is at most the smallest queued
    lcm's, and the top pair otherwise, so a large input meets a basis that
    already reduces it."""
    G, V, flip = key.guard, key.values, key.flip
    leads: list[int] = []
    deltas: list[int] = []  # trail - lead, packed
    nonzero: list[int] = []  # the guard bits of each lead's nonzero fields
    live: list[int] = []
    queue: list[tuple[int, int, int]] = []  # (key of the lcm, i, j)

    def update(lead: int, trail: int) -> None:
        nonlocal queue, live
        n, nz = len(leads), ((lead & V) + V) & G
        lcms = []  # the fields of lcm(leads[i], lead), no degree
        for a in leads:
            ge = ((a | G) - lead) & G
            ge -= ge >> 63
            lcms.append((a & ge) | (lead & (V ^ ge)))
        # the new pairs by lcm: the first live partner, and the lcms of coprime leads
        partner: dict[int, int] = {}
        coprime: set[int] = set()
        for i in live:
            L = lcms[i]
            partner.setdefault(L, i)
            if not nonzero[i] & nz:
                coprime.add(L)
        # int order extends divisibility, so each lcm is tested only against
        # the minimal ones before it
        minimal: list[int] = []
        for L in sorted(partner):
            LG = L | G
            for M in minimal:
                if (LG - M) & G == G:
                    break
            else:
                minimal.append(L)
        kept = [(key.with_degree(L) ^ flip, partner[L], n) for L in minimal if L not in coprime]
        for k, i, j in queue:
            L = (k ^ flip) & V
            if ((L | G) - lead) & G != G or lcms[i] == L or lcms[j] == L:
                kept.append((k, i, j))
        queue = kept
        heapq.heapify(queue)
        live = [i for i in live if ((leads[i] | G) - lead) & G != G]
        live.append(n)
        leads.append(lead)
        deltas.append(trail - lead)
        nonzero.append(nz)

    def join(u: int, v: int) -> None:
        u, v = _reduce(u, leads, deltas, G), _reduce(v, leads, deltas, G)
        if u != v:
            update(*((u, v) if u ^ flip > v ^ flip else (v, u)))

    # the inputs as (key of the lead, key of the trail), the smallest last
    inputs = sorted(((max(ku, kv), min(ku, kv)) for ku, kv in ((key(u), key(v)) for u, v in gens)), reverse=True)
    while inputs or queue:
        if inputs and (not queue or inputs[-1][0] <= queue[0][0]):
            kl, kt = inputs.pop()
            join(kl ^ flip, kt ^ flip)
            continue
        k, i, j = heapq.heappop(queue)
        u, v = (k ^ flip) + deltas[i], (k ^ flip) + deltas[j]
        if (u | v) & G:
            raise OverflowGuardError("an S-pair left the 63-bit exponent fields")
        join(u, v)
    return [(key.unpack(leads[i]), key.unpack(leads[i] + deltas[i])) for i in live]


def _interreduce(basis: list[Pair], key: _Order) -> list[Binomial]:
    """Shrink a Groebner basis to the unique reduced one.

    A divisor of a lead always sorts before it under a monomial order, so a
    single ascending sweep keeps exactly the elements with minimal leads;
    tail reduction against that set then pins each trail to its normal form
    (a lead never divides its own, smaller, trail).
    """
    G, flip = key.guard, key.flip
    leads: list[int] = []
    deltas: list[int] = []
    for kl, kt in sorted({(key(u), key(v)) for u, v in basis}):
        lead = kl ^ flip
        if not any(((lead | G) - o) & G == G for o in leads):
            leads.append(lead)
            deltas.append((kt ^ flip) - lead)
    return [
        Binomial(key.unpack(lead), key.unpack(_reduce(lead + d, leads, deltas, G)))
        for lead, d in zip(leads, deltas)
    ]


def _graded_key(order: OrderSpec, h: int) -> _Order:
    """The packed form of a graded order on h variables."""
    if order.kind == "grlex":
        return _Order((1,) * h, range(h), 1)
    return _Order((1,) * h, range(h - 1, -1, -1), -1)


def buchberger_reduced(gens, order: OrderSpec) -> GroebnerBasis:
    """The unique reduced Groebner basis of the binomial ideal gens generate."""
    gens = [(b.lead, b.trail) for b in gens]
    key = _graded_key(order, len(gens[0][0]) if gens else 0)
    return GroebnerBasis(tuple(_interreduce(_buchberger(gens, key), key)))


def _kernel_basis(S: Semigroup) -> list[tuple[int, ...]]:
    """An integer basis of {v in Z^h : sum v_j a_j = 0}.

    Row reduction of [A^T | I_h] by unimodular steps, Euclid-style on each of
    the q columns; the rows left with zero in all q columns span the kernel.
    A pairwise size-reduction pass (the size-reduction half of LLL) then
    replaces b_i by b_i - r b_j, r the nearest integer to <b_i,b_j>/<b_j,b_j>,
    while that lowers |b_i|^2; the steps are unimodular, so the lattice stays.
    The squared norms are kept, so a step is built only when it shortens.
    """
    q, h = S.q, S.h
    rows = [list(a) + [int(k == j) for k in range(h)] for j, a in enumerate(S.generators)]
    r = 0
    for c in range(q):
        while True:
            nonzero = [i for i in range(r, h) if rows[i][c]]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda i: abs(rows[i][c]))
            rows[r], rows[piv] = rows[piv], rows[r]
            if len(nonzero) == 1:
                r += 1
                break
            for i in range(r + 1, h):
                f = rows[i][c] // rows[r][c]
                rows[i] = [checked(x - f * y) for x, y in zip(rows[i], rows[r])]
    basis = [row[q:] for row in rows[r:]]
    norms = [sum(map(mul, b, b)) for b in basis]
    shorter = True
    while shorter:
        shorter = False
        for i, j in itertools.permutations(range(len(basis)), 2):
            dot, nj = sum(map(mul, basis[i], basis[j])), norms[j]
            t = (2 * dot + nj) // (2 * nj)
            n = norms[i] - 2 * t * dot + t * t * nj  # |b_i - t b_j|^2
            if n < norms[i]:
                basis[i] = [checked(x - t * y) for x, y in zip(basis[i], basis[j])]
                norms[i], shorter = n, True
    return [tuple(b) for b in basis]


def _revlex_key(weights: tuple[int, ...], last: int) -> _Order:
    """Weighted reverse-lexicographic order with x_last the smallest variable."""
    return _Order(weights, [last] + [j for j in reversed(range(len(weights))) if j != last], -1)


def _pivots(vectors, stop: dict[int, int] | None = None) -> dict[int, int]:
    """{column: |pivot|} of an integer row echelon form of the lattice the
    vectors span.  They depend on the lattice alone: the pivot in column c
    generates the c-th entries of the lattice vectors that vanish before c.
    Each vector is inserted by Euclid's steps against the rows of its
    nonzero columns.  Returns as soon as the pivots equal ``stop``."""
    rows: dict[int, list[int]] = {}
    for v in vectors:
        for c in range(len(v)):
            if v[c]:
                r = rows.setdefault(c, v)
                if r is v:
                    break
                while v[c]:
                    f = r[c] // v[c]
                    r, v = v, [x - f * y for x, y in zip(r, v)]
                rows[c] = r
        if stop is not None and len(rows) == len(stop) and all(abs(rows[c][c]) == p for c, p in stop.items()):
            return stop
    return {c: abs(r[c]) for c, r in rows.items()}


def _circuits(S: Semigroup) -> list[tuple[int, ...]]:
    """The circuits of A, the kernel vectors of minimal support, each once
    and with its first nonzero entry positive.

    On q + 1 columns of rank q, entry t of the circuit is (-1)^t times the
    minor of A without column t, divided by the gcd (Cramer's rule; Sturmfels,
    Groebner Bases and Convex Polytopes, 1996, ch. 4).  The minors on the
    first k rows are built for k = 1, ..., q by Laplace expansion along row
    k - 1, each once, keyed by their columns.  A circuit with an entry past
    2^63 - 1 is left out: the packed fields could not hold it.
    """
    A, q = S.generators, S.q
    minor: dict[tuple[int, ...], int] = {(): 1}
    for k in range(1, q + 1):
        for cols in itertools.combinations(range(S.h), k):
            minor[cols] = sum(
                (-1) ** (k - 1 + t) * A[c][k - 1] * minor[cols[:t] + cols[t + 1 :]]
                for t, c in enumerate(cols)
                if A[c][k - 1]
            )
    out: dict[tuple[int, ...], None] = {}
    for cols in itertools.combinations(range(S.h), q + 1):
        entries = [(-1) ** t * minor[cols[:t] + cols[t + 1 :]] for t in range(q + 1)]
        g = math.gcd(*entries)
        if not g:
            continue
        g = g if next(e for e in entries if e) > 0 else -g
        if max(map(abs, entries)) // abs(g) > INT64_MAX:
            continue
        v = [0] * S.h
        for c, e in zip(cols, entries):
            v[c] = e // g
        out[tuple(v)] = None
    return list(out)


def _binomials(vectors) -> list[Pair]:
    """x^{v+} - x^{v-} of each lattice vector v."""
    return [(tuple(max(e, 0) for e in v), tuple(max(-e, 0) for e in v)) for v in vectors]


def _moves(pairs: list[Pair]) -> list[tuple[int, int, list[int]]]:
    """(support of lead, support of trail, lead - trail), supports as bitmasks."""
    return [
        (sum(1 << j for j, e in enumerate(u) if e), sum(1 << j for j, e in enumerate(v) if e), list(map(sub, u, v)))
        for u, v in pairs
    ]


def _free_set(pool, lattice: dict[int, int], todo: list[int]) -> int:
    """C as a bitmask: greedily in index order, each variable of todo but the
    last joins C while the moves of the pool usable on C (lead or trail free
    of C) generate L, that is, while the pivots of their differences stay
    those of ``lattice``."""
    free = 0
    for c in todo[:-1]:
        C = free | 1 << c
        if _pivots((d for a, b, d in pool if not a & C or not b & C), lattice) == lattice:
            free = C
    return free


@functools.lru_cache(maxsize=256)
def toric_ideal_generators(S: Semigroup) -> tuple[Binomial, ...]:
    """The reduced Groebner basis of the semigroup ideal I_A of S under the
    weighted revlex order with x_{h-1} last.

    Starts from an ideal J_0 of binomials with I_B <= J_0 <= I_A, I_B the
    ideal of the binomials x^{v+} - x^{v-} of a kernel basis B of L, and
    saturates it one variable x_s at a time.  Each step is a minimal
    Groebner basis under a weighted revlex order with x_s last; the weight
    sum(a_j) is positive and makes every lattice binomial homogeneous, so
    x_s divides a basis element exactly as often as it divides its lead,
    and dividing that power out of any Groebner basis gives one of
    J : x_s^oo under the same order (Bayer & Stillman).  Only the last
    step's basis is interreduced.

    Not every variable needs a step.  Let J be the ideal saturated by the
    variables done so far, and C a set of the others.  A binomial x^a - x^b
    of J is usable on C when a - b is sign-consistent on C and gcd(x^a, x^b)
    involves no variable of C, that is, when a or b involves none.  Lemma: if
    usable binomials generate L, then I_A is J saturated by the variables
    outside C and the done set.  For x^u - x^v in I_A, u - v is a sum of
    their moves m -> m - a + b, and each move raises every C-exponent or
    lowers every one.  Taking the raising moves first, a C-exponent rises,
    then falls, and never drops below min(u_j, v_j); a large enough power of
    the variables outside C covers the other exponents, a shared factor
    included, and J is already saturated by the done ones.  A shared factor
    in C would break the path: its exponent can fall below both ends, and a
    basis that counts such binomials can come out unsaturated.  The lemma
    asks of J only that it lie in I_A, so J_0 may hold any binomials of I_A.

    Whether usable binomials generate L is decided by comparing the absolute
    pivots of an integer echelon form of their exponent differences with
    those of the kernel basis.  C is picked greedily in index order among
    the variables not yet done (``_free_set``), and the next step saturates
    the first variable outside C.  x_{h-1} is never in C and is always
    saturated last, so the last step and its order, and with them the
    returned basis, are fixed.

    J_0 is the kernel basis, seeded with circuits of A (``_circuits``) when
    that frees more variables: if C picked from the kernel basis leaves a
    variable besides x_{h-1} to saturate, C is picked again with the
    circuits' moves in the pool, and if the new C is larger, J_0 also holds
    the circuits usable on it.  Circuits lie in I_A, so the lemma still
    holds, and few of them touch many variables on both sides, so most
    semigroups then need the single step by x_{h-1}.  A seeded run starts
    with more inputs than the kernel basis; ``_buchberger`` joins them in
    degree order, interleaved with the S-pairs, so that each meets a basis
    that already reduces it.  The usable binomials drawn on later are those
    of J_0 and of every basis computed so far, all of which lie in J, and C
    is picked again after every step.
    """
    weights = tuple(sum(a) for a in S.generators)
    basis = _binomials(_kernel_basis(S))
    pool = _moves(basis)
    lattice = _pivots(d for *_, d in pool)
    todo = list(range(S.h))
    free = _free_set(pool, lattice, todo)
    if free.bit_count() < S.h - 1:
        circuits = _binomials(_circuits(S))
        seeds = _moves(circuits)
        wider = _free_set(pool + seeds, lattice, todo)
        if wider.bit_count() > free.bit_count():
            used = [not a & wider or not b & wider for a, b, _ in seeds]
            basis += itertools.compress(circuits, used)
            pool += itertools.compress(seeds, used)
            free = wider
    while True:
        s = next(c for c in todo if not free >> c & 1)
        todo.remove(s)
        basis = [
            (u[:s] + (0,) + u[s + 1 :], v[:s] + (v[s] - u[s],) + v[s + 1 :])
            for u, v in _buchberger(basis, _revlex_key(weights, s))
        ]
        if s == S.h - 1:
            return tuple(_interreduce(basis, _revlex_key(weights, s)))
        pool += _moves(basis)
        free = _free_set(pool, lattice, todo)


@functools.lru_cache(maxsize=256)
def reduced_basis(S: Semigroup, order: OrderSpec) -> GroebnerBasis:
    """Reduced Groebner basis of the semigroup ideal under the given order.

    ``fp_general`` needs no such basis: it counts on the toric engine's own.
    Cached: the basis is deterministic in (S, order).
    """
    return buchberger_reduced(toric_ideal_generators(S), order)


def _packed(G: GroebnerBasis, h: int) -> tuple[_Order, list[int], list[int]]:
    """A layout of h fields with x_0 highest and no degree above them, and
    the leads and trails of G packed in it: divisibility and addition do not
    depend on the layout."""
    key = _Order((0,) * h, range(h), 1)
    return key, [key.pack(b.lead) for b in G.elements], [key.pack(b.trail) for b in G.elements]


def _fiber(u: int, trails: list[int], ups: list[int], guard: int, cap: float) -> set[int]:
    """The packed monomials of the fiber of the packed standard monomial u,
    up to cap of them: reverse rewrites u -> u - trail + lead (``ups``)
    reach the whole fiber."""
    seen, stack = {u}, [u]
    while stack:
        u = stack.pop()
        ug = u | guard
        for trail, up in zip(trails, ups):
            if (ug - trail) & guard == guard:
                v = u + up
                if v & guard:
                    raise OverflowGuardError("a rewrite left the 63-bit exponent fields")
                if v not in seen:
                    seen.add(v)
                    if len(seen) >= cap:
                        return seen
                    stack.append(v)
    return seen


def _grow(leads: list[int], top: tuple[int, ...], key: _Order, units: list[int]) -> list[int]:
    """The packed standard monomials of prod [0, top_i), grown from 0 one
    variable at a time: at step i each monomial found so far, free of x_i,
    is raised by ``units[i]`` (the field of x_i plus 1, and anything above
    the fields) while no lead divides it.  A lead that divides the child c
    of a standard monomial has lead_i = c_i, so only those leads are tried."""
    guard = key.guard
    grown = [0] if all(top) else []
    for i, s in enumerate(key.shifts):
        at: dict[int, list[int]] = {}  # the leads by their exponent of x_i
        for lead in leads:
            at.setdefault(lead >> s & INT64_MAX, []).append(lead)
        # past the largest such exponent no lead can divide a child
        unit, n = units[i], top[i]
        rows = [at.get(e, ()) for e in range(1, min(n, max(at, default=0) + 1))]
        for c in grown[:]:
            for row in rows:
                c += unit
                cg = c | guard
                for lead in row:
                    if (cg - lead) & guard == guard:
                        break
                else:
                    grown.append(c)
                    continue
                break
            else:
                grown.extend(range(c + unit, c + (n - len(rows)) * unit, unit))
    return grown


def normal_form(m: tuple[int, ...], G: GroebnerBasis) -> tuple[int, ...]:
    """Unique normal form of the monomial X^m modulo the Groebner basis G.
    An exponent past 2^63 - 1, given or reached, raises OverflowGuardError."""
    key, leads, trails = _packed(G, len(m))
    return key.unpack(_reduce(key.pack(tuple(m)), leads, list(map(sub, trails, leads)), key.guard))


def _fiber_of(m: tuple[int, ...], G: GroebnerBasis, cap: float) -> tuple[_Order, set[int]]:
    """The layout of G and up to cap packed monomials of the S-degree of
    X^m, G a reduced basis of the semigroup ideal.  Every monomial of a
    fiber rewrites to its one standard monomial, the normal form (Sturmfels,
    Groebner Bases and Convex Polytopes, 1996), so reverse rewrites
    u -> u - trail + lead from it reach the whole fiber."""
    key, leads, trails = _packed(G, len(m))
    u = _reduce(key.pack(tuple(m)), leads, list(map(sub, trails, leads)), key.guard)
    return key, _fiber(u, trails, list(map(sub, leads, trails)), key.guard, cap)


def fiber_size(m: tuple[int, ...], G: GroebnerBasis, cap: int) -> int:
    """min(#monomials of the S-degree of X^m, cap), G a reduced basis of the
    semigroup ideal."""
    return min(len(_fiber_of(m, G, cap)[1]), cap)


def fiber(m: tuple[int, ...], G: GroebnerBasis) -> frozenset[tuple[int, ...]]:
    """The monomials of the S-degree of X^m, that is its factorizations, G a
    reduced basis of the semigroup ideal: about |fiber| * |G| divisibility
    tests, where a search over the generators' multiplicities can take far
    longer."""
    key, seen = _fiber_of(m, G, math.inf)
    return frozenset(map(key.unpack, seen))


def standard_monomials(G: GroebnerBasis, top: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The monomials of prod [0, top_i) that no lead of G divides, each once
    (proof of completeness in ``frobenius.fp_general``)."""
    key, leads, _ = _packed(G, len(top))
    return [key.unpack(m) for m in _grow(leads, top, key, [1 << s for s in key.shifts])]


def first_small_fiber(G: GroebnerBasis, top: tuple[int, ...], ranks: list[int], cap: int) -> tuple[int, ...]:
    """The standard monomial g of prod [0, top_i) whose fiber holds fewer than
    cap monomials and that comes first by descending sum(g_i * ranks_i), G a
    reduced basis of the semigroup ideal; ties go to the larger g under lex.

    Each grown monomial is one int, its rank above its exponent fields, so a
    child's is its parent's plus one precomputed unit, and one descending
    sort of the ints orders the scan.  A standard monomial is its own normal
    form, so its fiber is counted from it directly."""
    key, leads, trails = _packed(G, len(top))
    grown = _grow(leads, top, key, [(r << key.top) + (1 << s) for r, s in zip(ranks, key.shifts)])
    grown.sort(reverse=True)
    ups, fields = list(map(sub, leads, trails)), (1 << key.top) - 1
    return key.unpack(next(m for m in grown if len(_fiber(m & fields, trails, ups, key.guard, cap)) < cap))


def in_ideal(b: Binomial, G: GroebnerBasis) -> bool:
    """Membership of a binomial in the ideal G generates (normal forms agree)."""
    return normal_form(b.lead, G) == normal_form(b.trail, G)


def assert_s_homogeneous(S: Semigroup, b: Binomial) -> tuple[int, ...]:
    """The common S-degree of both monomials; error if they differ."""
    dl = s_degree(S, b.lead)
    dt = s_degree(S, b.trail)
    if dl != dt:
        raise ValidationError(f"binomial {b} is not S-homogeneous: {dl} != {dt}")
    return dl


def format_binomial(b: Binomial) -> str:
    """Human-readable form like 'x1^3*x2 - x3^2'."""

    def mono(v):
        parts = []
        for i, e in enumerate(v):
            if e == 0:
                continue
            parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"

    return f"{mono(b.lead)} - {mono(b.trail)}"
