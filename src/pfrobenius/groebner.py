"""Binomial-only Groebner engine.

Every object handled here is a pure difference of two monomials, so the
whole Buchberger machinery closes over (lead, trail) exponent-vector pairs:
S-polynomials of binomials are binomials, and reducing a binomial by
binomials rewrites single monomials.  General polynomials never appear.

The semigroup ideal is obtained by elimination: adjoin one auxiliary symbol
per ambient coordinate, start from the relations x_i - t^{a_i}, run
Buchberger under a block order with the auxiliary block dominant, and keep
the elements free of auxiliary symbols.  Because the generators are non-zero
vectors of N^q the grading is positive and no saturation step is needed.
"""
from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Callable

from .core import OrderSpec, Semigroup, ValidationError, s_degree

KeyFn = Callable[[tuple[int, ...]], object]


@dataclass(frozen=True)
class Binomial:
    """X^lead - X^trail with lead strictly greater under the active order."""

    lead: tuple[int, ...]
    trail: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.lead == self.trail:
            raise ValidationError("zero binomial (lead == trail)")


@dataclass(frozen=True)
class GroebnerBasis:
    order: OrderSpec
    elements: tuple[Binomial, ...]

    def __len__(self) -> int:
        return len(self.elements)


def _divides(d: tuple[int, ...], m: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(d, m))


def _rewrite(m: tuple[int, ...], b: Binomial) -> tuple[int, ...]:
    return tuple(mi - li + ti for mi, li, ti in zip(m, b.lead, b.trail))


def _reduce_monomial(m: tuple[int, ...], basis, skip: Binomial | None = None) -> tuple[int, ...]:
    """Rewrite m by lead -> trail until no lead divides; strictly decreasing."""
    changed = True
    while changed:
        changed = False
        for b in basis:
            if b is skip:
                continue
            if _divides(b.lead, m):
                m = _rewrite(m, b)
                changed = True
                break
    return m


def _orient(u: tuple[int, ...], v: tuple[int, ...], key: KeyFn) -> Binomial | None:
    if u == v:
        return None
    return Binomial(u, v) if key(u) > key(v) else Binomial(v, u)


def _spair(f: Binomial, g: Binomial, key: KeyFn) -> Binomial | None:
    lcm = tuple(max(a, b) for a, b in zip(f.lead, g.lead))
    u = tuple(l - a + b for l, a, b in zip(lcm, f.lead, f.trail))
    v = tuple(l - a + b for l, a, b in zip(lcm, g.lead, g.trail))
    return _orient(u, v, key)


def _buchberger(gens: list[Binomial], key: KeyFn) -> list[Binomial]:
    """Buchberger with normal pair selection (min-lcm heap), the coprime-lead
    criterion, and the chain (lcm) criterion."""
    basis: list[Binomial] = []
    for b in gens:
        u = _reduce_monomial(b.lead, basis)
        v = _reduce_monomial(b.trail, basis)
        nb = _orient(u, v, key)
        if nb is not None and nb not in basis:
            basis.append(nb)

    def lcm(i: int, j: int) -> tuple[int, ...]:
        return tuple(max(a, b) for a, b in zip(basis[i].lead, basis[j].lead))

    heap: list[tuple[object, int, int]] = []
    pending: set[frozenset[int]] = set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            heapq.heappush(heap, (key(lcm(i, j)), i, j))
            pending.add(frozenset((i, j)))
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard(frozenset((i, j)))
        f, g = basis[i], basis[j]
        if not any(a > 0 and b > 0 for a, b in zip(f.lead, g.lead)):
            continue  # coprime leads: S-pair reduces to zero
        L = lcm(i, j)
        # chain criterion: a third lead divides the lcm and both side pairs
        # were already handled
        if any(
            k != i
            and k != j
            and _divides(basis[k].lead, L)
            and frozenset((i, k)) not in pending
            and frozenset((j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        sp = _spair(f, g, key)
        if sp is None:
            continue
        u = _reduce_monomial(sp.lead, basis)
        v = _reduce_monomial(sp.trail, basis)
        nb = _orient(u, v, key)
        if nb is None:
            continue
        basis.append(nb)
        n = len(basis) - 1
        for k in range(n):
            heapq.heappush(heap, (key(lcm(k, n)), k, n))
            pending.add(frozenset((k, n)))
    return basis


def _interreduce(basis: list[Binomial], key: KeyFn) -> list[Binomial]:
    """Shrink a Groebner basis to the unique reduced one.

    A divisor of a lead always sorts before it under a monomial order, so a
    single ascending sweep keeps exactly the elements with minimal leads;
    tail reduction against that set then pins each trail to its normal form.
    """
    minimal: list[Binomial] = []
    for b in sorted(set(basis), key=lambda b: (key(b.lead), key(b.trail))):
        if not any(_divides(o.lead, b.lead) for o in minimal):
            minimal.append(b)
    out: list[Binomial] = []
    for b in minimal:
        trail = _reduce_monomial(b.trail, minimal, skip=b)
        nb = _orient(b.lead, trail, key)
        if nb is not None:
            out.append(nb)
    out.sort(key=lambda b: key(b.lead))
    return out


def buchberger_reduced(gens, order: OrderSpec) -> GroebnerBasis:
    """The unique reduced Groebner basis of the binomial ideal gens generate."""
    key = order.key
    oriented: list[Binomial] = []
    for b in gens:
        nb = _orient(b.lead, b.trail, key)
        if nb is not None and nb not in oriented:
            oriented.append(nb)
    basis = _buchberger(oriented, key)
    return GroebnerBasis(order, tuple(_interreduce(basis, key)))


def _elimination_key(q: int):
    """Block order: auxiliary block dominant, graded-lex inside each block."""

    def key(v: tuple[int, ...]):
        t, x = v[:q], v[q:]
        return (sum(t), t, sum(x), x)

    return key


@functools.lru_cache(maxsize=256)
def toric_ideal_generators(S: Semigroup) -> tuple[Binomial, ...]:
    """A finite binomial generating set of the semigroup ideal of S."""
    q, h = S.q, S.h
    gens: list[Binomial] = []
    for i, a in enumerate(S.generators):
        t_mono = a + (0,) * h
        x_mono = (0,) * q + tuple(1 if j == i else 0 for j in range(h))
        gens.append(Binomial(t_mono, x_mono))  # t^{a_i} > x_i in the block order
    basis = _buchberger(gens, _elimination_key(q))
    basis = _interreduce(basis, _elimination_key(q))
    out: list[Binomial] = []
    for b in basis:
        if any(b.lead[:q]) or any(b.trail[:q]):
            continue
        out.append(Binomial(b.lead[q:], b.trail[q:]))
    return tuple(out)


@functools.lru_cache(maxsize=256)
def reduced_basis(S: Semigroup, order: OrderSpec) -> GroebnerBasis:
    """Reduced Groebner basis of the semigroup ideal under the given order.

    Cached: the basis is deterministic in (S, order) and several Frobenius
    routes share it.
    """
    return buchberger_reduced(toric_ideal_generators(S), order)


def normal_form(m: tuple[int, ...], G: GroebnerBasis) -> tuple[int, ...]:
    """Unique normal form of the monomial X^m modulo the reduced basis G."""
    return _reduce_monomial(tuple(m), G.elements)


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


def format_binomial(b: Binomial, names: list[str] | None = None) -> str:
    """Human-readable form like 'x1^3*x2 - x3^2'."""

    def mono(v):
        parts = []
        for i, e in enumerate(v):
            if e == 0:
                continue
            name = names[i] if names else f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    return f"{mono(b.lead)} - {mono(b.trail)}"
