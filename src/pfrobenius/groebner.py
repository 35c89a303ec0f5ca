"""Binomial-only Groebner engine.

Every object handled here is a pure difference of two monomials, so the
whole Buchberger machinery closes over (lead, trail) exponent-vector pairs:
S-polynomials of binomials are binomials, and reducing a binomial by
binomials rewrites single monomials.  General polynomials never appear.

- ``toric_ideal_generators`` builds the reduced basis of the semigroup
  ideal from the integer kernel of the generator matrix (``_kernel_basis``),
  with no auxiliary variables; its docstring holds the saturation lemma,
  and ``_buchberger``'s the pair criteria.
- ``buchberger_reduced`` and ``reduced_basis`` give bases under other
  orders; ``normal_form``, ``in_ideal``, ``fiber``, ``fiber_size`` and
  ``top_small_fibers`` read a basis.

Inside the engine an exponent vector is one int (Bachmann & Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998): a
64-bit field per variable, 63 value bits under a guard bit, the variable the
order compares first highest, and the weighted degree above them all, so a
comparison is one int comparison.  Packing is linear, so a rewrite is one
addition; divisibility and lcm read the guard bits of one subtraction.  A
guard bit that an input, an S-pair or a rewrite sets raises
OverflowGuardError.  Past the
basis, normal forms, fiber counts and the growth of the standard monomials
run on the same fields with no degree above them, or, in
``top_small_fibers``, with a weighted degree there again; only the public
functions' inputs and outputs are tuples.  Each basis is checked and packed
for these reads once, with its rewrites and reverse rewrites (``_layout``):
a lead or trail without the basis's number of variables is refused.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from operator import lshift, mul

from .core import INT64_MAX, OrderSpec, OverflowGuardError, Record, Semigroup, ValidationError, _as_int, _as_order, _as_point, checked


class Binomial(Record):
    """X^lead - X^trail with lead strictly greater under the active order."""

    __slots__ = ("lead", "trail")

    def __init__(self, lead: tuple[int, ...], trail: tuple[int, ...]) -> None:
        if lead == trail:
            raise ValidationError("zero binomial (lead == trail)")
        self._set(lead, trail)


Pair = tuple[tuple[int, ...], tuple[int, ...]]  # (lead, trail) of a binomial
Packed = tuple[int, int]  # (lead, trail - lead) of a binomial, packed under one _Order
_FIELD = (1 << 64) - 1


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
        # the field of x_j plus w_j in the degree: subtracting e of them
        # divides x_j^e out of a packed monomial, degree included
        self.units = [(1 << s) + (w << self.top) for w, s in zip(weights, self.shifts)]
        # fields times ``dot`` put sum(w_j e_j) in the field at top - 64; below
        # ``limit`` no column of the product reaches 2^64, so none carries, and
        # a field reaches it exactly when adding ``past`` sets its guard bit
        self.dot = sum(w << (self.top - 64 - s) for w, s in zip(weights, self.shifts))
        self.limit = (1 << 64) // max(sum(weights), 1)
        self.past = max((1 << 63) - self.limit, 0) * (self.guard >> 63)

    def pack(self, v: tuple[int, ...]) -> int:
        if v and (min(v) < 0 or max(v) > INT64_MAX):
            raise OverflowGuardError(f"exponent vector {v} leaves the 63-bit fields")
        return sum(map(lshift, v, self.shifts)) + (sum(map(mul, self.weights, v)) << self.top)

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple([m >> s & INT64_MAX for s in self.shifts])

    def with_degree(self, m: int) -> int:
        """The fields m with their weighted degree above them."""
        if (m + self.past) & self.guard:
            return m + (sum(map(mul, self.weights, self.unpack(m))) << self.top)
        return m + ((m * self.dot >> self.top - 64 & _FIELD) << self.top)

    def __call__(self, v: tuple[int, ...]) -> int:
        return self.pack(v) ^ self.flip


def _reduce(m: int, rules: list[Packed], guard: int) -> int:
    """Rewrite the packed m by lead -> trail until no lead divides it."""
    while True:
        mg = m | guard
        for lead, delta in rules:
            if (mg - lead) & guard == guard:
                m += delta
                if m & guard:
                    raise OverflowGuardError("a rewrite left the 63-bit exponent fields")
                break
        else:
            return m


def _buchberger(gens: list[Pair], key: _Order) -> list[Packed]:
    """A minimal Groebner basis by Buchberger with normal pair selection
    (min-lcm heap) and two of the Gebauer-Moeller criteria ("A note on the
    Buchberger algorithm for computing Groebner bases", JSC 6, 1988).

    Each element that joins the basis is paired with the live elements; of its
    new pairs only those with a minimal lcm (M) survive, one per lcm, with its
    first live partner (F).  An element whose lead a later lead divides stops
    being live: it forms no new pairs but still reduces.  A joining lead is
    reduced, so no earlier lead divides it, and the live elements are a
    minimal basis, returned packed under ``key`` as (lead, trail - lead) with
    the lead's degree above its fields.  Criterion B and the coprime-lead
    rule are left out: pruning the queue on every join cost more than the
    extra pairs, which ``join`` ends early when they reduce to zero.

    The inputs join in degree order, interleaved with the pairs: each step
    takes the next input if its lead's key is at most the smallest queued
    lcm's, and the top pair otherwise, so a large input meets a basis that
    already reduces it."""
    G, V, flip = key.guard, key.values, key.flip
    leads: list[int] = []
    rules: list[Packed] = []  # (lead, trail - lead)
    live: list[int] = []
    queue: list[tuple[int, int, int]] = []  # (key of the lcm, i, j)

    def update(lead: int, trail: int) -> None:
        n, fields = len(leads), lead & V
        # the fields of lcm(leads[i], lead), i live: a field of leads[i] minus
        # the lead's keeps its guard bit where it is not smaller, and is added back
        lcms = [fields + (d & ((ge := d & G) - (ge >> 63))) for d in [(leads[i] | G) - fields for i in live]]
        # the new pairs by lcm, each with its first live partner
        partner = dict(zip(reversed(lcms), reversed(live)))
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
                heapq.heappush(queue, (key.with_degree(L) ^ flip, partner[L], n))
        live[:] = [i for i in live if ((leads[i] | G) - lead) & G != G]
        live.append(n)
        leads.append(lead)
        rules.append((lead, trail - lead))

    def join(u: int, v: int) -> None:
        # rewrite the larger side until the two meet, and the binomial
        # reduces to zero, or it is irreducible: both sides descend their
        # own rewrite paths, so it is then the larger normal form, the lead
        # that reducing both sides in full gives, and only the trail is left
        while u != v:
            if u ^ flip < v ^ flip:
                u, v = v, u
            ug = u | G
            for lead, delta in rules:
                if (ug - lead) & G == G:
                    u += delta
                    if u & G:
                        raise OverflowGuardError("a rewrite left the 63-bit exponent fields")
                    break
            else:
                update(u, _reduce(v, rules, G))
                return

    # the inputs as (key of the lead, key of the trail), the smallest last
    inputs = sorted([(ku, kv) if ku > kv else (kv, ku) for ku, kv in [(key(u), key(v)) for u, v in gens]], reverse=True)
    while inputs or queue:
        if inputs and (not queue or inputs[-1][0] <= queue[0][0]):
            kl, kt = inputs.pop()
            join(kl ^ flip, kt ^ flip)
            continue
        k, i, j = heapq.heappop(queue)
        u, v = (k ^ flip) + rules[i][1], (k ^ flip) + rules[j][1]
        if (u | v) & G:
            raise OverflowGuardError("an S-pair left the 63-bit exponent fields")
        join(u, v)
    return [rules[i] for i in live]


def _interreduce(basis: list[Packed], key: _Order) -> list[Binomial]:
    """Shrink a Groebner basis, packed under ``key``, to the unique reduced
    one.

    A divisor of a lead always sorts before it under a monomial order, so a
    single ascending sweep keeps exactly the elements with minimal leads, the
    first of equal ones; tail reduction against that set then pins each
    trail to its normal form (a lead never divides its own, smaller, trail),
    the same whichever of equal leads was kept.
    """
    G, flip = key.guard, key.flip
    kept: list[Packed] = []
    for lead, delta in sorted(basis, key=lambda b: b[0] ^ flip):
        lg = lead | G
        for o, _ in kept:
            if (lg - o) & G == G:
                break
        else:
            kept.append((lead, delta))
    return [Binomial(key.unpack(lead), key.unpack(_reduce(lead + d, kept, G))) for lead, d in kept]


def _graded_key(order: OrderSpec, h: int) -> _Order:
    """The packed form of a graded order on h variables, read in its direction."""
    return _Order((1,) * h, range(h)[:: order.direction], order.direction)


def buchberger_reduced(gens, order: OrderSpec) -> tuple[Binomial, ...]:
    """The unique reduced Groebner basis of the binomial ideal gens generate,
    each lead and trail checked as a point of the first lead's length."""
    _as_order(order)
    gens = [(b.lead, b.trail) for b in gens]
    if not gens:
        return ()
    h = len(gens[0][0])
    key = _graded_key(order, h)
    return tuple(_interreduce(_buchberger([(_as_point(u, h), _as_point(v, h)) for u, v in gens], key), key))


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
                if f:  # the pivot's entry is the smallest nonzero one
                    rows[i] = row = [x - f * y for x, y in zip(rows[i], rows[r])]
                    checked(max(row, key=abs))
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
                basis[i] = b = [x - t * y for x, y in zip(basis[i], basis[j])]
                checked(max(b, key=abs))
                norms[i], shorter = n, True
    return [tuple(b) for b in basis]


def _revlex_key(weights: tuple[int, ...], last: int) -> _Order:
    """Weighted reverse-lexicographic order with x_last the smallest variable."""
    return _Order(weights, [last] + [j for j in reversed(range(len(weights))) if j != last], -1)


def _pivots(vectors) -> dict[int, int]:
    """{column: |pivot|} of an integer row echelon form of the lattice the
    vectors span.  They depend on the lattice alone: the pivot in column c
    generates the c-th entries of the lattice vectors that vanish before c.
    Each vector is inserted by Euclid's steps against the rows of its
    nonzero columns."""
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
    return {c: abs(r[c]) for c, r in rows.items()}


def _circuits(S: Semigroup) -> list[tuple[int, ...]]:
    """The circuits of A, the kernel vectors of minimal support, each once
    and with its first nonzero entry positive.

    On q + 1 columns of rank q, entry t of the circuit is (-1)^t times the
    minor of A without column t, divided by the gcd (Cramer's rule; Sturmfels,
    Groebner Bases and Convex Polytopes, 1996, ch. 4).  The minors on the
    first k rows are built for k = 1, ..., q by Laplace expansion along row
    k - 1, keyed by their columns: each nonzero minor on k - 1 rows adds its
    product with every nonzero entry of row k - 1 outside its columns.  A
    circuit with an entry past 2^63 - 1 is left out: the packed fields could
    not hold it.
    """
    A, q, h = S.generators, S.q, S.h
    minor = {0: 1}  # the minors on the first k rows, keyed by their columns' bitmask
    for k in range(q):
        grown: dict[int, int] = {}
        for mask, m in minor.items():
            for c in range(h) if m else ():
                bit = 1 << c
                if A[c][k] and not mask & bit:
                    # column c is the t-th of mask | bit, t the columns of mask below it
                    sign = -1 if (k + (mask & (bit - 1)).bit_count()) & 1 else 1
                    grown[mask | bit] = grown.get(mask | bit, 0) + sign * A[c][k] * m
        minor = grown
    out: dict[tuple[int, ...], None] = {}
    bits = [1 << c for c in range(h)]
    for cols, cbits in zip(itertools.combinations(range(h), q + 1), itertools.combinations(bits, q + 1)):
        mask = sum(cbits)
        entries = [minor.get(mask ^ b, 0) for b in cbits]
        g = math.gcd(*entries)
        if not g:
            continue
        entries[1::2] = [-e for e in entries[1::2]]
        if next(filter(None, entries)) < 0:
            g = -g
        v = [0] * h
        for c, e in zip(cols, entries):
            v[c] = e // g
        if max(map(abs, v)) <= INT64_MAX:
            out[tuple(v)] = None
    return list(out)


def _binomials(vectors) -> list[Pair]:
    """x^{v+} - x^{v-} of each lattice vector v."""
    return [(tuple([e if e > 0 else 0 for e in v]), tuple([-e if e < 0 else 0 for e in v])) for v in vectors]


def _usable(v, C: list[int]) -> bool:
    """Whether the lattice vector v is sign-consistent on the variables C:
    v+ or v- involves none of them."""
    return all(v[j] >= 0 for j in C) or all(v[j] <= 0 for j in C)


def _free_set(vectors, lattice: dict[int, int], h: int) -> list[int]:
    """C: greedily in index order, each of x_0, ..., x_{h-2} joins C while
    the vectors usable on C generate L, that is, while the pivots of their
    echelon form stay those of ``lattice``."""
    C: list[int] = []
    for c in range(h - 1):
        if _pivots([v for v in vectors if _usable(v, C + [c])]) == lattice:
            C.append(c)
    return C


def _divide_out(basis: list[Packed], key: _Order, s: int) -> list[Packed]:
    """Each packed binomial of basis divided by x_s^e, e the exponent of x_s
    in its lead: e units of x_s come off the lead, and trail - lead stays."""
    shift, unit = key.shifts[s], key.units[s]
    return [(lead - (lead >> shift & INT64_MAX) * unit, delta) for lead, delta in basis]


@functools.lru_cache(maxsize=256)
def toric_ideal_generators(S: Semigroup) -> tuple[Binomial, ...]:
    """The reduced Groebner basis of the semigroup ideal I_A of S under the
    weighted revlex order with x_{h-1} last, from the kernel lattice L of
    the generator matrix with no auxiliary variables (Bigatti, La Scala &
    Robbiano, "Computing toric ideals", JSC 27, 1999; Hosten & Sturmfels,
    GRIN, IPCO 1995).

    Starts from an ideal J_0 of binomials with I_B <= J_0 <= I_A, I_B the
    ideal of the binomials x^{v+} - x^{v-} of a kernel basis B of L, and
    saturates it one variable x_s at a time.  Each step is a minimal
    Groebner basis under a weighted revlex order with x_s last; the weight
    sum(a_j) is positive and makes every lattice binomial homogeneous, so
    x_s divides a basis element exactly as often as it divides its lead,
    and dividing that power out of any Groebner basis gives one of
    J : x_s^oo under the same order (Bayer & Stillman).  The division is
    done on the packed basis ``_buchberger`` returns (``_divide_out``), and
    only the last step's basis is interreduced, as it comes; an
    intermediate step unpacks each element once, for the next order.

    Not every variable needs a step.  A binomial x^{v+} - x^{v-} of J_0 is
    usable on a set C of variables when v is sign-consistent on C, that is,
    when v+ or v- involves none of C.  Lemma: if the vectors of usable
    binomials generate L, then I_A is J_0 saturated by the variables outside
    C.  For x^u - x^v in I_A, u - v is a sum of usable vectors and their
    negatives, each a move m -> m - v+ + v- or back, and each move raises
    every C-exponent or lowers every one.  Taking the raising moves first, a
    C-exponent rises, then falls, and never drops below min(u_j, v_j); a
    large enough power of the variables outside C covers the other
    exponents.  The lemma asks of J_0 only that it lie in I_A, so J_0 may
    hold any binomials of I_A: it holds those of the kernel basis and of the
    circuits of A (``_circuits``) usable on C.

    Whether the usable vectors generate L is decided by comparing the
    absolute pivots of an integer echelon form of them with those of the
    kernel basis.  C is picked once, greedily in index order, over the
    kernel vectors and the circuits together (``_free_set``), and the
    variables outside C are saturated in index order.  x_{h-1} is never in
    C and is always saturated last, so the last step and its order, and
    with them the returned basis, are fixed.  Few circuits touch many
    variables on both sides, so most semigroups need the single step by
    x_{h-1}.  A seeded run starts with more inputs than the kernel basis;
    ``_buchberger`` joins them in degree order, interleaved with the
    S-pairs, so that each meets a basis that already reduces it.
    """
    weights = tuple(sum(a) for a in S.generators)
    kernel = _kernel_basis(S)
    # the circuits not already in the kernel basis, up to sign
    circuits = [v for v in _circuits(S) if v not in kernel and tuple(-e for e in v) not in kernel]
    free = _free_set(kernel + circuits, _pivots(kernel), S.h)
    gens = _binomials(kernel + [v for v in circuits if _usable(v, free)])
    for s in [c for c in range(S.h) if c not in free]:
        key = _revlex_key(weights, s)
        basis = _divide_out(_buchberger(gens, key), key, s)
        if s == S.h - 1:
            return tuple(_interreduce(basis, key))
        gens = [(key.unpack(lead), key.unpack(lead + delta)) for lead, delta in basis]


@functools.lru_cache(maxsize=256)
def reduced_basis(S: Semigroup, order: OrderSpec) -> tuple[Binomial, ...]:
    """Reduced Groebner basis of the semigroup ideal under the given order.

    ``fp_general`` needs no such basis: it counts on the toric engine's own.
    Cached: the basis is deterministic in (S, order).
    """
    return buchberger_reduced(toric_ideal_generators(S), order)


@functools.lru_cache(maxsize=256)
def _layout(G: tuple[Binomial, ...], h: int) -> tuple[_Order, tuple[int, ...], tuple[Packed, ...], tuple[Packed, ...]]:
    """A layout of h fields with x_0 highest and no degree above them, and G
    read in it: its packed leads, its rewrites (lead, trail - lead) and its
    reverse rewrites (trail, lead - trail).  Divisibility and addition do not
    depend on the layout.  A lead or trail without h coordinates raises
    ValidationError, so a basis of mixed lengths is refused, not cut to h;
    packing checks each exponent's range.  Cached, so a basis asked about
    many times is checked and packed once."""
    for b in G:
        if len(b.lead) != h or len(b.trail) != h:
            raise ValidationError(f"binomial {b} of the basis does not have {h} variables")
    key = _Order((0,) * h, range(h), 1)
    packed = [(key.pack(b.lead), key.pack(b.trail)) for b in G]
    leads = tuple(lead for lead, _ in packed)
    return key, leads, tuple((u, v - u) for u, v in packed), tuple((v, u - v) for u, v in packed)


def _fiber(u: int, ups: tuple[Packed, ...], guard: int, cap: float) -> set[int]:
    """The packed monomials of the fiber of the packed standard monomial u,
    up to cap of them: reverse rewrites u -> u - trail + lead (``ups``, as
    (trail, lead - trail)) reach the whole fiber."""
    seen, stack = {u}, [u]
    while stack:
        u = stack.pop()
        ug = u | guard
        for trail, up in ups:
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


def _grow(leads: tuple[int, ...], top: tuple[int, ...], key: _Order, units: list[int]) -> list[int]:
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


def normal_form(m: tuple[int, ...], G: tuple[Binomial, ...]) -> tuple[int, ...]:
    """Unique normal form of the monomial X^m modulo the Groebner basis G.
    An exponent past 2^63 - 1, given or reached, raises OverflowGuardError."""
    m = _as_point(m, len(G[0].lead) if G else None)
    key, _, rules, _ = _layout(G, len(m))
    return key.unpack(_reduce(key.pack(m), rules, key.guard))


def _fiber_of(m: tuple[int, ...], G: tuple[Binomial, ...], cap: float) -> tuple[_Order, set[int]]:
    """The layout of G and up to cap packed monomials of the S-degree of
    X^m, G a reduced basis of the semigroup ideal.  Every monomial of a
    fiber rewrites to its one standard monomial, the normal form (Sturmfels,
    Groebner Bases and Convex Polytopes, 1996), so reverse rewrites
    u -> u - trail + lead from it reach the whole fiber."""
    m = _as_point(m, len(G[0].lead) if G else None)
    key, _, rules, ups = _layout(G, len(m))
    return key, _fiber(_reduce(key.pack(m), rules, key.guard), ups, key.guard, cap)


def fiber_size(m: tuple[int, ...], G: tuple[Binomial, ...], cap: int) -> int:
    """min(#monomials of the S-degree of X^m, cap), G a reduced basis of the
    semigroup ideal."""
    _as_int(cap, "cap", 1)
    return min(len(_fiber_of(m, G, cap)[1]), cap)


def fiber(m: tuple[int, ...], G: tuple[Binomial, ...]) -> frozenset[tuple[int, ...]]:
    """The monomials of the S-degree of X^m, that is its factorizations, G a
    reduced basis of the semigroup ideal: about |fiber| * |G| divisibility
    tests, where a search over the generators' multiplicities can take far
    longer."""
    key, seen = _fiber_of(m, G, math.inf)
    return frozenset(map(key.unpack, seen))


def top_small_fibers(G: tuple[Binomial, ...], top: tuple[int, ...], weights: list[int], cap: int) -> tuple[tuple[int, ...], ...]:
    """The standard monomials g of prod [0, top_i) whose fibers hold fewer
    than cap monomials and whose weighted degree sum(g_i * weights_i) is the
    largest among such g, G a reduced basis of the semigroup ideal.

    Each grown monomial is one int, its weighted degree above its exponent
    fields, so a child's is its parent's plus one precomputed unit, and one
    descending sort of the ints orders the scan by degree level; it stops
    after the first level with a hit.  A standard monomial is its own normal
    form, so its fiber is counted from it directly.  cap must be an int
    >= 2, weights h ints and the box not empty, so that the monomial 1,
    alone in its fiber, qualifies."""
    _as_int(cap, "cap", 2)
    top = _as_point(top, len(G[0].lead) if G else None)
    key, leads, _, ups = _layout(G, len(top))
    if len(weights) != len(top) or not all(type(w) is int for w in weights):
        raise ValidationError(f"weights must be {len(top)} ints, got {weights!r}")
    if not all(top):
        raise ValidationError(f"the box below {top} is empty")
    grown = _grow(leads, top, key, [(w << key.top) + (1 << s) for w, s in zip(weights, key.shifts)])
    grown.sort(reverse=True)
    fields = (1 << key.top) - 1
    for _, level in itertools.groupby(grown, lambda m: m >> key.top):
        hits = [key.unpack(m & fields) for m in level if len(_fiber(m & fields, ups, key.guard, cap)) < cap]
        if hits:
            return tuple(hits)


def in_ideal(b: Binomial, G: tuple[Binomial, ...]) -> bool:
    """Membership of a binomial in the ideal G generates (normal forms agree)."""
    return normal_form(b.lead, G) == normal_form(b.trail, G)


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


# The package re-exports five of these names and loads this module on first
# use (``pfrobenius._ENGINE``).  They are bound there now, however the engine
# is first imported, so that they stay these objects when one of this
# module's attributes is patched later.
_package = sys.modules[__package__]
vars(_package).update({name: globals()[name] for name in _package._ENGINE})
del _package
