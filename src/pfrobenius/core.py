"""Domain types, graded monomial orders, and generating-set minimalization.

Points of the ambient monoid N^q and exponent vectors in N^h are both plain
tuples of non-negative ints; the graded comparison functions work on either.
Points and exponent vectors are guarded to the signed 64-bit range, so they
are exact or an explicit error, never silently wrong; counts are exact ints.
"""
from __future__ import annotations

import json
import warnings
from functools import lru_cache
from operator import le, mul

INT64_MAX = 2**63 - 1

LESS = -1
EQUAL = 0
GREATER = 1

GRADED_ORDER_KINDS = ("grlex", "grevlex")
_F0_SCOPE = "p = 0 needs q = 1: gap sets of q >= 2 are out of scope"  # fp_general's and the oracle's refusal


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


class Record:
    """An immutable record of the fields its class names in ``__slots__``, which
    its ``__init__`` checks and stores with ``_set``: equal within its class when
    the fields are, and hashed once, as the caches hash a semigroup on every call."""

    __slots__ = ("_hashed",)  # (hash of the fields, the fields)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hashed", (hash(values), values))

    def __eq__(self, other):
        return self._hashed == other._hashed if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._hashed[0]

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._hashed[1]))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._hashed[1]


class OrderSpec(Record):
    """A graded monomial order: total degree first, then a named tie-break.

    kind "grlex" breaks ties lexicographically (first coordinate most
    significant); "grevlex" is grlex read from the last coordinate with every
    sign flipped (``direction`` -1, not +1), the reverse-lexicographic rule.
    ``direction`` is the one place the two orders differ: ``key`` reads it,
    and so does the Groebner engine's packed key (``groebner._graded_key``).
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str = "grlex") -> None:
        if kind not in GRADED_ORDER_KINDS:
            raise ValidationError(f"unsupported order kind {kind!r}; graded orders only: {GRADED_ORDER_KINDS}")
        self._set(kind)

    @property
    def direction(self) -> int:
        return 1 if self.kind == "grlex" else -1

    def key(self, v: tuple[int, ...]):
        """Sort key: key(u) < key(v) iff u precedes v under this order; linear in v."""
        d = self.direction
        return (sum(v), tuple(d * c for c in v[::d]))


def compare_graded(order: OrderSpec, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Three-way graded comparison of equal-length points (-1, 0 or 1); each
    passes ``_as_point``."""
    u, v = _as_point(u), _as_point(v)
    if len(u) != len(v):
        raise ValidationError(f"length mismatch: {len(u)} vs {len(v)}")
    ku, kv = _as_order(order).key(u), order.key(v)
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


def _as_tuple(items, name: str) -> tuple:
    """items as a tuple; a bare int, or anything else not iterable, raises ValidationError."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {items!r}") from None


def _as_point(coords, q: int | None = None) -> tuple[int, ...]:
    """coords as a point of N^q, with q coordinates if q is given: the one
    check every incoming point passes (q itself, where it comes from outside,
    passes ``_as_int``).  Only an int is a coordinate; a float, a string or
    a bool raises, never truncated."""
    pt = _as_tuple(coords, "a point")
    if q is not None and len(pt) != q:
        raise ValidationError(f"expected {q} coordinates, got {len(pt)}")
    if all(type(c) is int and 0 <= c <= INT64_MAX for c in pt):  # the common case, in one pass
        return pt
    if not all(type(c) is int for c in pt):  # a bool is an int subclass, not an int
        raise ValidationError(f"coordinates must be ints, got {pt}")
    if any(c < 0 for c in pt):
        raise ValidationError(f"negative coordinate in {pt}")
    # what is left is an int past 2^63 - 1, refused as ``checked`` refuses it
    raise OverflowGuardError(f"integer {next(c for c in pt if c > INT64_MAX)} exceeds 64-bit range")


def _as_int(value, name: str, least: int) -> None:
    """Check that value is an int parameter of at least ``least``, by the rule
    of ``_as_point``: a float, a string or a bool raises, never truncated."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


def _as_order(order) -> OrderSpec:
    """order, if it is an ``OrderSpec``; anything else, its name too, raises ValidationError."""
    if type(order) is not OrderSpec:
        raise ValidationError(f"order must be an OrderSpec, got {order!r}")
    return order


class Semigroup(Record):
    """A finitely generated affine semigroup of N^q.

    The generator list is expected to be a minimal generating set; use
    minimalize_generators to build one from arbitrary generators.  The
    constructor checks the cheap invariants (dimension, positivity,
    distinctness); minimality itself is checked where the semigroup enters
    the system (JSON loading, gluing).
    """

    __slots__ = ("q", "generators")

    def __init__(self, q: int, generators) -> None:
        _as_int(q, "q", 1)
        gens = tuple(_as_point(g, q) for g in _as_tuple(generators, "generators"))
        if not gens:
            raise ValidationError("at least one generator required")
        if not all(map(any, gens)):
            raise ValidationError("zero vector cannot be a generator")
        if len(set(gens)) != len(gens):
            raise ValidationError("generators must be pairwise distinct")
        self._set(q, gens)

    @classmethod
    def _trusted(cls, q: int, gens: tuple[tuple[int, ...], ...]) -> "Semigroup":
        """The semigroup on a tuple the library built of points that passed
        the checks of ``__init__`` where they entered: distinct nonzero points
        of N^q in the 64-bit range, which are not checked again."""
        S = object.__new__(cls)
        S._set(q, gens)
        return S

    @property
    def h(self) -> int:
        return len(self.generators)


def s_degree(S: Semigroup, lam: tuple[int, ...]) -> tuple[int, ...]:
    """The semigroup element sum(lam_i * a_i) of an exponent vector.  Every
    term is a product of non-negative ints, so the sum bounds each partial
    one, and the 64-bit guard checks each coordinate once, at the end."""
    lam = _as_point(lam, S.h)
    return tuple([checked(sum(map(mul, lam, column))) for column in zip(*S.generators)])


def minimalize_generators(gens, q: int | None = None) -> Semigroup:
    """Reduce a generating set to the unique minimal one.

    Drops every generator expressible over the remaining ones (membership
    decided by the factorization search).  Survivors keep their input order:
    the generator list fixes the variable order of the polynomial ring, so
    callers control it.
    """
    gens = [_as_tuple(g, "a generator") for g in _as_tuple(gens, "generators")]
    if not gens:
        raise ValidationError("empty generating set")
    if q is None:
        q = len(gens[0])
    else:
        _as_int(q, "q", 1)
    gens = tuple(dict.fromkeys(_as_point(g, q) for g in gens))
    if not all(map(any, gens)):
        raise ValidationError("zero vector cannot be a generator")
    return _minimal(gens)


@lru_cache(maxsize=256)
def _minimal(gens: tuple[tuple[int, ...], ...]) -> Semigroup:
    """The semigroup of the atoms of distinct nonzero generators.  Cached:
    a file loaded again, or a semigroup glued again, finds its atoms here.

    S is positive, so a factorization of g other than g itself never uses
    g (what is left of g would be 0): g is an atom exactly when it has one
    factorization over the whole set, and the atoms generate S.  So every
    test searches on the plan of gens, which the loaded semigroup reuses
    when no generator drops out.  A generator that lies above no other one
    has no other factorization, and is an atom with no search."""
    from . import factorization

    atoms = (
        g
        for g in gens
        if not any(a is not g and all(map(le, a, g)) for a in gens)
        or len(factorization.factor_tuples(gens, g, 2)) == 1
    )
    return Semigroup._trusted(len(gens[0]), tuple(atoms))  # some of gens, which are checked


class FrobeniusResult(Record):
    """Either a finite point of N^q or the distinguished infinite value.

    ``finite`` checks a point that comes from outside.  A point the library
    built itself has passed ``checked`` on every coordinate where it was
    made, so the routes and the oracle construct ``FrobeniusResult(point)``
    directly.
    """

    __slots__ = ("point",)

    def __init__(self, point: tuple[int, ...] | None = None) -> None:
        self._set(point)

    @classmethod
    def finite(cls, point) -> "FrobeniusResult":
        """A finite value: a point of ints in the 64-bit range, negative ones
        too (F_0(N) = -1)."""
        point = _as_tuple(point, "a point")
        if not all(type(c) is int for c in point):  # a bool is an int subclass, not an int
            raise ValidationError(f"coordinates must be ints, got {point}")
        return cls(tuple(map(checked, point)))

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
        doc["order"] = {"kind": _as_order(order).kind}
    return doc


def semigroup_from_json(doc: dict) -> tuple[Semigroup, OrderSpec]:
    """Parse {"q":..., "generators":..., "order":...}; minimalize on load.

    Emits a warning when the stored generators were not minimal.
    """
    if not isinstance(doc, dict):
        raise ValidationError("semigroup JSON must be an object")
    try:
        q, raw = doc["q"], [tuple(g) for g in doc["generators"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed semigroup JSON: {exc}") from exc
    try:
        order = OrderSpec(**doc.get("order", {"kind": "grlex"}))
    except TypeError as exc:
        raise ValidationError(f"malformed order in semigroup JSON: {exc}") from exc
    S = minimalize_generators(raw, q)
    # the atoms are a subset of the distinct generators
    if S.h != len(set(raw)):
        warnings.warn(
            "input generators were not a minimal generating set; minimalized",
            stacklevel=2,
        )
    return S, order


def load_semigroup(path) -> tuple[Semigroup, OrderSpec]:
    try:
        with open(path, "rb", buffering=0) as fh:  # one read of the whole file
            raw = fh.read()
        # decoded first: json.loads would also take UTF-16 or a BOM from bytes
        doc = json.loads(raw.decode("utf-8"))
    # ValueError covers malformed JSON (a BOM too), bytes that are not UTF-8
    # and an int too long to convert; RecursionError an array nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read semigroup JSON from {path}: {exc}") from exc
    return semigroup_from_json(doc)


def numerical(*gens: int) -> Semigroup:
    """Convenience constructor for q = 1 semigroups from plain integers."""
    return minimalize_generators([(g,) for g in gens], q=1)

