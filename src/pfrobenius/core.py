"""Domain types, graded monomial orders, and generating-set minimalization.

Points of the ambient monoid N^q and exponent vectors in N^h are both plain
tuples of non-negative ints; the graded comparison functions work on either.
All arithmetic is guarded against leaving the signed 64-bit range so that
results are either exact or an explicit error, never silently wrong.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

INT64_MAX = 2**63 - 1

LESS = -1
EQUAL = 0
GREATER = 1

GRADED_ORDER_KINDS = ("grlex", "grevlex")


class ValidationError(ValueError):
    """Malformed input: bad vectors, non-graded orders, broken invariants."""


class OverflowGuardError(ArithmeticError):
    """A computation left the supported 64-bit integer range."""


class UnsupportedError(Exception):
    """Requested operation is outside the implemented scope."""


def checked(value: int) -> int:
    if abs(value) > INT64_MAX:
        raise OverflowGuardError(f"integer {value} exceeds 64-bit range")
    return value


@dataclass(frozen=True)
class OrderSpec:
    """A graded monomial order: total degree first, then a named tie-break.

    kind "grlex" breaks ties lexicographically (first coordinate most
    significant), "grevlex" by the reverse-lexicographic rule (rightmost
    non-zero coordinate of the difference decides, negatively).
    """

    kind: str = "grlex"

    def __post_init__(self) -> None:
        if self.kind not in GRADED_ORDER_KINDS:
            raise ValidationError(
                f"unsupported order kind {self.kind!r}; graded orders only: "
                f"{GRADED_ORDER_KINDS}"
            )

    def key(self, v: tuple[int, ...]):
        """Sort key: key(u) < key(v) iff u precedes v under this order."""
        if self.kind == "grlex":
            return (sum(v), v)
        return (sum(v), tuple(-c for c in reversed(v)))


def compare_graded(order: OrderSpec, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Three-way graded comparison of equal-length vectors (-1, 0 or 1)."""
    if len(u) != len(v):
        raise ValidationError(f"length mismatch: {len(u)} vs {len(v)}")
    ku, kv = order.key(u), order.key(v)
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


def _as_point(coords, q: int | None = None) -> tuple[int, ...]:
    pt = tuple(int(c) for c in coords)
    if q is not None and len(pt) != q:
        raise ValidationError(f"expected {q} coordinates, got {len(pt)}")
    if any(c < 0 for c in pt):
        raise ValidationError(f"negative coordinate in {pt}")
    for c in pt:
        checked(c)
    return pt


@dataclass(frozen=True)
class Semigroup:
    """A finitely generated affine semigroup of N^q.

    The generator list is expected to be a minimal generating set; use
    minimalize_generators to build one from arbitrary generators.  The
    constructor checks the cheap invariants (dimension, positivity,
    distinctness); minimality itself is checked where the semigroup enters
    the system (JSON loading, gluing).
    """

    q: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValidationError("ambient dimension q must be >= 1")
        if not self.generators:
            raise ValidationError("at least one generator required")
        gens = tuple(_as_point(g, self.q) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if all(c == 0 for c in g):
                raise ValidationError("zero vector cannot be a generator")
        if len(set(gens)) != len(gens):
            raise ValidationError("generators must be pairwise distinct")

    @property
    def h(self) -> int:
        return len(self.generators)


def s_degree(S: Semigroup, lam: tuple[int, ...]) -> tuple[int, ...]:
    """The semigroup element sum(lam_i * a_i) of an exponent vector."""
    if len(lam) != S.h:
        raise ValidationError(f"exponent vector length {len(lam)} != h = {S.h}")
    out = [0] * S.q
    for li, a in zip(lam, S.generators):
        if li < 0:
            raise ValidationError("negative exponent")
        if li:
            for j in range(S.q):
                out[j] = checked(out[j] + checked(li * a[j]))
    return tuple(out)


def minimalize_generators(gens, q: int | None = None) -> Semigroup:
    """Reduce a generating set to the unique minimal one.

    Repeatedly drops any generator expressible over the remaining ones
    (membership decided by the factorization search) until no drop applies.
    Survivors keep their input order: the generator list fixes the variable
    order of the polynomial ring, so callers control it.
    """
    from . import factorization

    gens = [tuple(int(c) for c in g) if not isinstance(g, tuple) else g for g in gens]
    if not gens:
        raise ValidationError("empty generating set")
    if q is None:
        q = len(gens[0])
    seen: set[tuple[int, ...]] = set()
    deduped: list[tuple[int, ...]] = []
    for g in gens:
        pt = _as_point(g, q)
        if pt not in seen:
            seen.add(pt)
            deduped.append(pt)
    gens = deduped
    for g in gens:
        if all(c == 0 for c in g):
            raise ValidationError("zero vector cannot be a generator")
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i, g in enumerate(gens):
            rest = gens[:i] + gens[i + 1 :]
            if factorization.contains(Semigroup(q, tuple(rest)), g):
                gens = rest
                changed = True
                break
    return Semigroup(q, tuple(gens))


@dataclass(frozen=True)
class FrobeniusResult:
    """Either a finite point of N^q or the distinguished infinite value."""

    point: tuple[int, ...] | None = None

    @classmethod
    def finite(cls, point) -> "FrobeniusResult":
        return cls(tuple(int(c) for c in point))

    @classmethod
    def infinite(cls) -> "FrobeniusResult":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.point is None

    def to_json(self):
        return "infinite" if self.point is None else list(self.point)

    def __repr__(self) -> str:
        if self.point is None:
            return "FrobeniusResult(infinite)"
        return f"FrobeniusResult{self.point}"


INFINITE = FrobeniusResult.infinite()


def semigroup_to_json(S: Semigroup, order: OrderSpec | None = None) -> dict:
    doc = {"q": S.q, "generators": [list(g) for g in S.generators]}
    if order is not None:
        doc["order"] = {"kind": order.kind}
    return doc


def semigroup_from_json(doc: dict) -> tuple[Semigroup, OrderSpec]:
    """Parse {"q":..., "generators":..., "order":...}; minimalize on load.

    Emits a warning when the stored generators were not minimal.
    """
    if not isinstance(doc, dict):
        raise ValidationError("semigroup JSON must be an object")
    try:
        q = int(doc["q"])
        raw = [tuple(int(c) for c in g) for g in doc["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed semigroup JSON: {exc}") from exc
    order = OrderSpec(**doc.get("order", {"kind": "grlex"}))
    S = minimalize_generators(raw, q)
    if set(S.generators) != {_as_point(g, q) for g in raw}:
        warnings.warn(
            "input generators were not a minimal generating set; minimalized",
            stacklevel=2,
        )
    return S, order


def load_semigroup(path) -> tuple[Semigroup, OrderSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    return semigroup_from_json(doc)


def numerical(*gens: int) -> Semigroup:
    """Convenience constructor for q = 1 semigroups from plain integers."""
    return minimalize_generators([(g,) for g in gens], q=1)

