from __future__ import annotations

import heapq
import itertools
import operator
import random

import pytest
import sympy as sp

import pfrobenius as pf
from pfrobenius.groebner import (
    INT64_MAX,
    Binomial,
    _binomials,
    _buchberger,
    _circuits,
    _free_set,
    _graded_key,
    _interreduce,
    _kernel_basis,
    _moves,
    _pivots,
    _revlex_key,
    format_binomial,
)
from conftest import random_semigroup

GRLEX = pf.OrderSpec("grlex")


def sympy_reduced_grlex_basis(S: pf.Semigroup) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Second opinion: elimination + grlex basis via sympy, as (lead, trail) pairs."""
    ts = sp.symbols(f"t1:{S.q + 1}")
    xs = sp.symbols(f"x1:{S.h + 1}")
    rels = []
    for i, a in enumerate(S.generators):
        mono = sp.prod([t**e for t, e in zip(ts, a)], start=sp.Integer(1))
        rels.append(xs[i] - mono)
    elim = [
        g
        for g in sp.groebner(rels, *ts, *xs, order="lex").exprs
        if not any(g.has(t) for t in ts)
    ]
    if not elim:
        return set()
    out = set()
    for g in sp.groebner(elim, *xs, order="grlex").exprs:
        poly = sp.Poly(g, *xs)
        terms = poly.terms()
        assert len(terms) == 2
        (m1, c1), (m2, c2) = terms
        assert {c1, c2} == {1, -1} or {c1, c2} == {sp.Integer(1), sp.Integer(-1)}
        lead, trail = (m1, m2) if c1 == 1 else (m2, m1)
        out.add((tuple(lead), tuple(trail)))
    return out


def test_toric_generators_23():
    gens = pf.toric_ideal_generators(pf.numerical(2, 3))
    assert {(b.lead, b.trail) for b in gens} == {((3, 0), (0, 2))}


def test_toric_generators_single():
    assert pf.toric_ideal_generators(pf.Semigroup(2, ((1, 1),))) == ()


def test_toric_generators_example(example_S):
    pairs = {frozenset((b.lead, b.trail)) for b in pf.toric_ideal_generators(example_S)}
    # two relations the worked example displays verbatim
    assert frozenset({(0, 0, 6, 0, 0), (0, 0, 0, 5, 0)}) in pairs  # x3^6 - x4^5
    assert frozenset({(4, 0, 0, 0, 0), (0, 3, 0, 0, 0)}) in pairs  # x1^4 - x2^3


def test_toric_generators_overflow_guard():
    # the kernel of these generators is spanned by a vector with an entry
    # near 2^124; the row reduction must refuse it, not return it
    S = pf.Semigroup(2, ((2**62, 1), (1, 2**62), (1, 2)))
    with pytest.raises(pf.OverflowGuardError):
        pf.toric_ideal_generators(S)


def full_saturation_reference(S: pf.Semigroup) -> list[Binomial]:
    """The toric engine with no step skipped: the lattice ideal of the kernel
    basis saturated by every variable x_1, ..., x_{h-1} in turn."""
    weights = tuple(sum(a) for a in S.generators)
    basis = [(tuple(max(e, 0) for e in v), tuple(max(-e, 0) for e in v)) for v in _kernel_basis(S)]
    for s in range(1, S.h):
        key = _revlex_key(weights, s)
        basis = [
            tuple(m[:s] + (m[s] - min(b.lead[s], b.trail[s]),) + m[s + 1 :] for m in (b.lead, b.trail))
            for b in _interreduce(_buchberger(basis, key), key)
        ]
    return _interreduce(basis, _revlex_key(weights, S.h - 1))


def test_toric_generators_skip_rule_random_family():
    # h >= 6, where the size-reduced kernel basis lets variables skip their
    # saturation step: the result must match saturating by every variable.
    # Seed 11: 7 of the 12 draws skip a variable besides x_0 by the kernel
    # alone, and all 12 with the skip set re-derived; about 1-2 s
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        q = rng.choice([2, 3])
        gens, h = set(), rng.choice([6, 7])
        while len(gens) < h:
            g = tuple(rng.randint(0, 9) for _ in range(q))
            if any(g):
                gens.add(g)
        S = pf.minimalize_generators(sorted(gens), q)
        if S.h < 6:
            continue
        kernel = _kernel_basis(S)
        assert len(kernel) == S.h - sp.Matrix(S.generators).rank(), S
        for v in kernel:
            assert not any(sum(e * a[i] for e, a in zip(v, S.generators)) for i in range(q)), (S, v)
        assert list(pf.toric_ideal_generators(S)) == full_saturation_reference(S), S
        checked += 1


def test_toric_generators_rederived_skip_random_family():
    # q = 1 and q = 3, h >= 5: with the skip set re-derived after every step,
    # each of these 12 draws (seed 11) saturates fewer variables than with a
    # skip set fixed from the kernel, in about 0.5 s
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        q = (1, 3)[checked % 2]
        gens, h = set(), rng.choice([5, 6, 7])
        while len(gens) < h:
            g = tuple(rng.randint(0, 30 if q == 1 else 5) for _ in range(q))
            if any(g):
                gens.add(g)
        S = pf.minimalize_generators(sorted(gens), q)
        if S.h < 5:
            continue
        assert list(pf.toric_ideal_generators(S)) == full_saturation_reference(S), S
        checked += 1


@pytest.mark.parametrize(
    "gens, size, runs",
    [
        (((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1)), 23, 1),
        (((4, 0), (7, 0), (0, 9), (0, 8), (7, 1), (3, 2), (1, 7)), 30, 1),
        (((7, 0), (8, 0), (0, 9), (0, 5), (3, 3), (1, 4), (7, 1)), 33, 1),
        (((7, 0), (9, 0), (0, 8), (0, 11), (2, 5), (5, 3), (4, 7), (6, 1)), 49, 1),
        (((5, 0), (11, 0), (0, 11), (0, 8), (1, 3), (3, 2), (6, 5), (2, 5), (2, 7)), 66, 2),
        (((4, 0, 0), (7, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (4, 1, 1)), 25, 1),
        # from its kernel basis alone, a step's binomials share a factor
        # that must keep out of C: see test_free_set_needs_no_shared_factor
        (((2, 0), (3, 0), (0, 2), (0, 3), (2, 1), (3, 1)), 13, 1),
        # box-scan's: the size-reduced kernel basis is sign-consistent
        # only on x_0 and x_3, so the circuits free x_1 and x_2
        (((2, 0), (3, 0), (0, 2), (0, 3), (1, 2)), 7, 1),
    ],
    ids=["h6-named", "h7-draw", "h7-wall", "h8-draw", "h9-wall", "q3", "shared-factor", "box-scan"],
)
def test_toric_generators_pinned_cases(monkeypatch, gens, size, runs):
    # the scale cases of ROADMAP.md, then two more: the basis and its size,
    # and the exact number of Buchberger runs
    calls = []
    monkeypatch.setattr(pf.groebner, "_buchberger", lambda *args: calls.append(1) or _buchberger(*args))
    S = pf.Semigroup(len(gens[0]), gens)
    pf.toric_ideal_generators.cache_clear()
    got = list(pf.toric_ideal_generators(S))
    assert len(calls) == runs
    assert len(got) == size
    assert got == full_saturation_reference(S)


def test_free_set_needs_no_shared_factor():
    # the shared-factor case on the kernel basis alone, no circuits: after
    # the steps by x_1 and x_3, binomials such as x_4 x_2^3 - x_4 x_3^2 are
    # sign-consistent on {x_0, x_2, x_4}, and sign consistency alone would
    # free x_4 too; counted as usable, they left a 15-element basis that
    # holds x_4 (x_2^3 - x_3^2) but not x_2^3 - x_3^2, unsaturated in x_4
    S = pf.Semigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3), (2, 1), (3, 1)))
    weights = tuple(sum(a) for a in S.generators)
    basis = _binomials(_kernel_basis(S))
    pool = _moves(basis)
    lattice = _pivots(d for *_, d in pool)

    def sign_consistent(C):
        return [d for *_, d in pool if all(e >= 0 for j, e in enumerate(d) if C >> j & 1)
                or all(e <= 0 for j, e in enumerate(d) if C >> j & 1)]

    todo = list(range(S.h))
    for s, free in ((1, 0b1), (3, 0b101)):
        assert _free_set(pool, lattice, todo) == free
        todo.remove(s)
        basis = [
            (u[:s] + (0,) + u[s + 1 :], v[:s] + (v[s] - u[s],) + v[s + 1 :])
            for u, v in _buchberger(basis, _revlex_key(weights, s))
        ]
        pool += _moves(basis)
    assert _free_set(pool, lattice, todo) == 0b101
    assert _pivots(sign_consistent(0b10101), lattice) == lattice


def primitive_nullspace_circuits(S: pf.Semigroup) -> set[tuple[int, ...]]:
    """Brute force: the nullspace of each q + 1 columns of A, where it is a
    line, as a primitive integer vector with its first nonzero entry positive."""
    out = set()
    for cols in itertools.combinations(range(S.h), S.q + 1):
        null = sp.Matrix([[S.generators[c][i] for c in cols] for i in range(S.q)]).nullspace()
        if len(null) != 1:
            continue
        v = null[0] * sp.ilcm(*(x.q for x in null[0]))
        v = [int(x) for x in v / sp.igcd(*(int(x) for x in v))]
        v = [-x for x in v] if next(x for x in v if x) < 0 else v
        full = [0] * S.h
        for c, x in zip(cols, v):
            full[c] = x
        out.add(tuple(full))
    return out


def test_circuits_match_nullspaces():
    # q = 1-3, with repeated directions and rank-deficient column sets
    rng = random.Random(31)
    for trial in range(45):
        q = trial % 3 + 1
        gens = set()
        while len(gens) < rng.randint(q + 1, q + 4):
            g = tuple(rng.randint(0, 4) for _ in range(q))
            if any(g):
                gens.add(g)
        S = pf.Semigroup(q, tuple(sorted(gens)))
        got = _circuits(S)
        assert len(got) == len(set(got)), S
        assert set(got) == primitive_nullspace_circuits(S), S
        for v in got:
            assert not any(sum(e * a[i] for e, a in zip(v, S.generators)) for i in range(q)), (S, v)


def test_circuits_past_63_bits_are_left_out(monkeypatch):
    # the kernel basis fits in 63 bits, but two circuits carry the minor
    # 2^64 - 1 of the last two generators: they are left out, not packed,
    # and the ideal comes out as with no step skipped
    N = 2**32
    S = pf.Semigroup(2, ((N, 1), (0, 1), (1, 0), (1, N)))
    assert all(abs(e) <= INT64_MAX for v in _kernel_basis(S) for e in v)
    every = primitive_nullspace_circuits(S)
    assert len(every) == 4
    assert set(_circuits(S)) == {v for v in every if max(map(abs, v)) <= INT64_MAX}
    assert len(_circuits(S)) == 2
    calls = []
    monkeypatch.setattr(pf.groebner, "_circuits", lambda S: calls.append(S) or _circuits(S))
    pf.toric_ideal_generators.cache_clear()
    assert list(pf.toric_ideal_generators(S)) == full_saturation_reference(S)
    assert calls == [S]


def test_toric_generators_circuit_seeded_family(monkeypatch):
    # q = 2 and q = 3, h = 5-7 (seed 37): 18 of these 20 draws are seeded
    # with circuits, seen as a first Buchberger run with more inputs than
    # the kernel basis; every result must match saturating by every variable
    inputs = []
    monkeypatch.setattr(pf.groebner, "_buchberger", lambda gens, key: inputs.append(len(gens)) or _buchberger(gens, key))
    rng = random.Random(37)
    seeded = 0
    for _ in range(20):
        q = rng.choice([2, 3])
        gens = set()
        while len(gens) < rng.randint(5, 7):
            g = tuple(rng.randint(0, 7 if q == 2 else 4) for _ in range(q))
            if any(g):
                gens.add(g)
        S = pf.minimalize_generators(sorted(gens), q)
        inputs.clear()
        pf.toric_ideal_generators.cache_clear()
        got = list(pf.toric_ideal_generators(S))
        seeded += inputs[0] > len(_kernel_basis(S))
        assert got == full_saturation_reference(S), S
    assert seeded >= 15


def test_reduced_basis_matches_sympy_example(example_S):
    G = pf.reduced_basis(example_S, GRLEX)
    assert len(G) == 14
    assert {(b.lead, b.trail) for b in G.elements} == sympy_reduced_grlex_basis(example_S)


def test_reduced_basis_matches_sympy_random():
    rng = random.Random(5)
    checked = 0
    while checked < 8:
        q = rng.choice([1, 2])
        S = random_semigroup(rng, q, h_max=4, coord_max=8)
        G = pf.reduced_basis(S, GRLEX)
        assert {(b.lead, b.trail) for b in G.elements} == sympy_reduced_grlex_basis(S)
        checked += 1


def test_reduced_basis_one_standard_monomial_per_fiber():
    # Groebner-free check where sympy is too slow (q = 3, h = 5): a set of
    # binomials in the semigroup ideal is its reduced basis only if every
    # fiber Z_n(S) holds exactly one monomial that no lead divides
    rng = random.Random(7)
    checked = 0
    while checked < 15:
        S = random_semigroup(rng, 3, h_max=5, coord_max=4)
        if S.h < 4:
            continue
        for order in (GRLEX, pf.OrderSpec("grevlex")):
            leads = [b.lead for b in pf.reduced_basis(S, order).elements]
            for lam in itertools.product(range(3), repeat=S.h):
                fiber = pf.factorization.factor_tuples(S.generators, pf.s_degree(S, lam), None)
                standard = [
                    m for m in fiber if not any(all(l <= e for l, e in zip(lead, m)) for lead in leads)
                ]
                assert len(standard) == 1, (S, order, lam, standard)
        checked += 1


def test_fiber_size_matches_factorization_count():
    # reverse rewriting from the normal form reaches the whole fiber
    rng = random.Random(43)
    for _ in range(15):
        q = rng.choice([1, 2, 3])
        S = random_semigroup(rng, q, h_max=5, coord_max=6)
        for order in (GRLEX, pf.OrderSpec("grevlex")):
            G = pf.reduced_basis(S, order)
            for m in itertools.product(range(3), repeat=S.h):
                expected = pf.count_capped(S, pf.s_degree(S, m), 4)
                assert pf.groebner.fiber_size(m, G, 4) == expected, (S, order, m)
                search = pf.factorization.factor_tuples(S.generators, pf.s_degree(S, m), None)
                assert pf.groebner.fiber(m, G) == set(search), (S, order, m)


def test_standard_monomials_match_box_filter():
    # the growth from 0 keeps exactly the box points no lead divides, once each
    rng = random.Random(29)
    checked = 0
    while checked < 9:
        q = checked % 3 + 1
        gens = random_semigroup(rng, q, h_max=4, coord_max=8 if q == 1 else 3).generators
        if q > 1:  # two generators on every axis keep F_p finite; few others keep the box small
            axes = [tuple(c * (j == i) for j in range(q)) for i in range(q) for c in (2, 3)]
            gens = gens[: 4 - q] + tuple(axes)
        S = pf.minimalize_generators(gens, q)
        if not pf.is_fp_finite(S):
            continue
        for order in (GRLEX, pf.OrderSpec("grevlex")):
            G = pf.reduced_basis(S, order)
            leads = [b.lead for b in G.elements]
            for p in (1, 2):
                top = tuple(p * b for b in pf.lambda_bounds(S, G))
                box = itertools.product(*(range(t) for t in top))
                spec = {g for g in box if not any(all(l <= e for l, e in zip(lead, g)) for lead in leads)}
                grown = pf.groebner.standard_monomials(G, top)
                assert len(grown) == len(set(grown)), (S, order, p)
                assert set(grown) == spec, (S, order, p)
            assert pf.groebner.standard_monomials(G, (0,) + top[1:]) == []  # an empty box
        checked += 1


def test_reduced_basis_properties(example_S):
    G = pf.reduced_basis(example_S, GRLEX)
    leads = [b.lead for b in G.elements]
    for b in G.elements:
        # S-homogeneous
        assert pf.s_degree(example_S, b.lead) == pf.s_degree(example_S, b.trail)
        # lead strictly greater
        assert pf.compare_graded(GRLEX, b.lead, b.trail) == 1
        # no monomial divisible by another lead
        for other in leads:
            if other != b.lead:
                assert not all(o <= m for o, m in zip(other, b.lead))
            assert not all(o <= m for o, m in zip(other, b.trail))


def reference_reduced_basis(gens, key) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Second opinion without pair criteria: every S-pair is reduced, then the
    basis is interreduced; binomials are (lead, trail) pairs."""

    def reduce(m, basis):
        while True:
            for lead, trail in basis:
                if all(l <= e for l, e in zip(lead, m)):
                    m = tuple(e - l + t for e, l, t in zip(m, lead, trail))
                    break
            else:
                return m

    def orient(u, v):
        return None if u == v else max((u, v), (v, u), key=lambda b: key(b[0]))

    basis, pairs = [], []

    def add(b):
        if b is not None:
            for c in basis:  # every pair, smallest lcm first
                lcm = tuple(map(max, b[0], c[0]))
                heapq.heappush(pairs, (key(lcm), lcm, b, c))
            basis.append(b)

    for u, v in gens:
        add(orient(reduce(u, basis), reduce(v, basis)))
    while pairs:
        _, lcm, (f, ft), (g, gt) = heapq.heappop(pairs)
        u = tuple(m - a + t for m, a, t in zip(lcm, f, ft))
        v = tuple(m - a + t for m, a, t in zip(lcm, g, gt))
        add(orient(reduce(u, basis), reduce(v, basis)))
    # every lead is reduced when it joins, so no two are equal
    minimal = [b for b in basis if not any(o is not b and all(map(operator.le, o[0], b[0])) for o in basis)]
    out = [(lead, reduce(trail, [o for o in minimal if o[0] != lead])) for lead, trail in minimal]
    return sorted(out, key=lambda b: key(b[0]))


def random_binomial_ideals():
    """40 random binomial ideals that are no toric ideals (seed 19), each with
    one of the weighted revlex orders of the saturation steps."""
    rng = random.Random(19)
    for trial in range(40):
        h = rng.choice([3, 4])
        gens, size = [], rng.randint(2, 4)
        while len(gens) < size:
            u, v = (tuple(rng.randint(0, 3) for _ in range(h)) for _ in "uv")
            if u != v:
                gens.append(Binomial(u, v))
        yield gens, _revlex_key(tuple(rng.randint(1, 3) for _ in range(h)), trial % h)


def test_pair_criteria_match_reference_buchberger():
    # a criterion that drops a pair the basis needs leaves a different reduced basis
    for gens, key in random_binomial_ideals():
        pairs = [(b.lead, b.trail) for b in gens]
        for kind in ("grlex", "grevlex"):
            got = pf.buchberger_reduced(gens, pf.OrderSpec(kind)).elements
            expected = reference_reduced_basis(pairs, pf.OrderSpec(kind).key)
            assert [(b.lead, b.trail) for b in got] == expected, (gens, kind)
        got = _interreduce(_buchberger(pairs, key), key)
        assert [(b.lead, b.trail) for b in got] == reference_reduced_basis(pairs, key), gens


def test_scaled_exponents_scale_the_basis():
    # x_i -> x_i^c maps every step of a run to a step of the scaled run, so
    # the scaled ideal's reduced basis is the scaled basis; c has low and high
    # bits, so packed sums and differences borrow and carry inside each field
    c = 2**40 + 3

    def scaled(basis):
        return [(tuple(c * e for e in b.lead), tuple(c * e for e in b.trail)) for b in basis]

    def pairs(basis):
        return [(b.lead, b.trail) for b in basis]

    for gens, key in random_binomial_ideals():
        big = [Binomial(*b) for b in scaled(gens)]
        for kind in ("grlex", "grevlex"):
            order = pf.OrderSpec(kind)
            assert pairs(pf.buchberger_reduced(big, order).elements) == scaled(pf.buchberger_reduced(gens, order).elements)
        assert pairs(_interreduce(_buchberger(pairs(big), key), key)) == scaled(_interreduce(_buchberger(pairs(gens), key), key))


def revlex_reference(weights, last):
    """Weighted revlex as a tuple key: weighted degree, then -v[last], then
    the other coordinates from the right, negated."""
    rest = [j for j in reversed(range(len(weights))) if j != last]
    return lambda v: (sum(w * e for w, e in zip(weights, v)), -v[last], tuple(-v[j] for j in rest))


def test_packed_keys_agree_with_tuple_keys():
    # packed keys order vectors as the tuple keys do, also with entries near
    # 2^62 and with ties in the (weighted) degree
    rng = random.Random(23)
    cmp = lambda a, b: (a > b) - (a < b)
    for trial in range(200):
        h = rng.randint(2, 5)
        weights = tuple(rng.randint(1, 4) for _ in range(h))
        last = trial % h
        refs = [(revlex_reference(weights, last), _revlex_key(weights, last))]
        refs += [(pf.OrderSpec(kind).key, _graded_key(pf.OrderSpec(kind), h)) for kind in ("grlex", "grevlex")]
        draw = lambda: tuple(rng.choice([rng.randint(0, 9), 2**62 + rng.randint(-9, 9)]) for _ in range(h))
        v = draw()
        i, j = rng.sample(range(h), 2)
        moved = list(v)
        moved[i] += weights[j]  # same weighted degree as v
        moved[j] -= weights[i]
        # a random vector, a permutation of v (same total degree) and the move
        for u in (draw(), tuple(rng.sample(v, h)), tuple(moved) if moved[j] >= 0 else draw()):
            for ref, key in refs:
                assert cmp(key(u), key(v)) == cmp(ref(u), ref(v)), (u, v, weights, last)


def test_buchberger_overflow_guard():
    # an S-pair, an input and a rewrite whose exponent reaches 2^63 are
    # refused, not returned
    with pytest.raises(pf.OverflowGuardError):
        _graded_key(GRLEX, 2)((2**63, 0))
    for gens in (
        [Binomial((2**62, 0, 1), (0, 2**62, 0)), Binomial((0, 2**62, 1), (1, 0, 0))],
        [Binomial((2**63, 0), (0, 1))],
        [Binomial((2, 0), (0, 1)), Binomial((2, 2**63 - 1), (0, 0))],
    ):
        with pytest.raises(pf.OverflowGuardError):
            pf.buchberger_reduced(gens, GRLEX)
    # the S-pair y^(2^63) - x z^(2^62) is irreducible: unchecked, its lead
    # would read 0 below the guard bit and no later step would notice
    a = 2**62
    with pytest.raises(pf.OverflowGuardError):
        _buchberger([((0, 0, a + 1), (0, a, 0)), ((0, a, 1), (1, 0, 0))], _graded_key(GRLEX, 3))


def test_past_basis_overflow_guard():
    # normal forms, fiber counts and membership rewrite on guarded fields: an
    # exponent past 2^63 - 1, given or reached by a rewrite, raises
    G = pf.buchberger_reduced([Binomial((3, 0), (0, 2))], GRLEX)
    big = (3, 2**63 - 1)  # x1^3 -> x2^2 reaches x2^(2^63 + 1)
    for call in (
        lambda: pf.normal_form(big, G),
        lambda: pf.normal_form((2**63, 0), G),
        lambda: pf.groebner.fiber_size(big, G, 2),
        lambda: pf.groebner.in_ideal(Binomial(big, (0, 0)), G),
    ):
        with pytest.raises(pf.OverflowGuardError):
            call()
    # a standard monomial whose reverse rewrite x3^2 -> x1*x2 overflows
    H = pf.buchberger_reduced([Binomial((1, 1, 0), (0, 0, 2))], GRLEX)
    assert pf.normal_form((2**63 - 1, 0, 2), H) == (2**63 - 1, 0, 2)
    with pytest.raises(pf.OverflowGuardError):
        pf.groebner.fiber_size((2**63 - 1, 0, 2), H, 3)


def test_buchberger_idempotent_cases():
    b = Binomial((3, 0), (0, 2))
    G = pf.buchberger_reduced([b], GRLEX)
    assert G.elements == (b,)
    G = pf.buchberger_reduced([b, b], GRLEX)
    assert G.elements == (b,)
    # a multiple, a reversed copy and a duplicate, in one input
    G = pf.buchberger_reduced([Binomial((0, 2), (3, 0)), b, Binomial((6, 0), (0, 4)), b], GRLEX)
    assert G.elements == (b,)


def test_determinism(example_S):
    pf.reduced_basis.cache_clear()
    first = pf.reduced_basis(example_S, GRLEX)
    pf.reduced_basis.cache_clear()
    second = pf.reduced_basis(example_S, GRLEX)
    assert first.elements == second.elements


def test_normal_form_steps():
    G = pf.buchberger_reduced([Binomial((3, 0), (0, 2))], GRLEX)
    assert pf.normal_form((3, 0), G) == (0, 2)
    assert pf.normal_form((0, 3), G) == (0, 3)
    assert pf.normal_form((4, 0), G) == (1, 2)


def test_normal_form_properties(example_S):
    G = pf.reduced_basis(example_S, GRLEX)
    rng = random.Random(11)
    for _ in range(40):
        m = tuple(rng.randint(0, 6) for _ in range(example_S.h))
        nf = pf.normal_form(m, G)
        assert pf.normal_form(nf, G) == nf
        assert pf.s_degree(example_S, nf) == pf.s_degree(example_S, m)
        assert pf.compare_graded(GRLEX, nf, m) <= 0


def test_normal_form_confluence(example_S):
    # a second reduction strategy (last divisor instead of first) must agree
    G = pf.reduced_basis(example_S, GRLEX)

    def reduce_last(m):
        changed = True
        while changed:
            changed = False
            for b in reversed(G.elements):
                if all(l <= x for l, x in zip(b.lead, m)):
                    m = tuple(x - l + t for x, l, t in zip(m, b.lead, b.trail))
                    changed = True
                    break
        return m

    rng = random.Random(13)
    for _ in range(30):
        m = tuple(rng.randint(0, 5) for _ in range(example_S.h))
        assert pf.normal_form(m, G) == reduce_last(m)


def test_nontrivial_normal_form_implies_multiple_factorizations(example_S):
    G = pf.reduced_basis(example_S, GRLEX)
    rng = random.Random(17)
    for _ in range(30):
        m = tuple(rng.randint(0, 4) for _ in range(example_S.h))
        if pf.normal_form(m, G) != m:
            deg = pf.s_degree(example_S, m)
            assert pf.count_capped(example_S, deg, 2) > 1


def test_format_binomial():
    assert format_binomial(Binomial((3, 0), (0, 2))) == "x1^3 - x2^2"
    assert format_binomial(Binomial((1, 1, 0), (0, 0, 1))) == "x1*x2 - x3"
