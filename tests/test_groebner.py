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
    _divide_out,
    _free_set,
    _graded_key,
    _interreduce,
    _kernel_basis,
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


def unpacked(basis, key) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Packed (lead, trail - lead) binomials under key, as (lead, trail) tuples."""
    return [(key.unpack(lead), key.unpack(lead + delta)) for lead, delta in basis]


def full_saturation_reference(S: pf.Semigroup) -> list[Binomial]:
    """The toric engine with no step skipped: the lattice ideal of the kernel
    basis saturated by every variable x_1, ..., x_{h-1} in turn, each step's
    reduced basis divided by tuples.  The last divided basis is a Groebner
    basis, so one more run under its order keeps its leads, and
    interreducing that gives the reduced basis."""
    weights = tuple(sum(a) for a in S.generators)
    basis = [(tuple(max(e, 0) for e in v), tuple(max(-e, 0) for e in v)) for v in _kernel_basis(S)]
    for s in range(1, S.h):
        key = _revlex_key(weights, s)
        basis = [
            tuple(m[:s] + (m[s] - min(b.lead[s], b.trail[s]),) + m[s + 1 :] for m in (b.lead, b.trail))
            for b in _interreduce(_buchberger(basis, key), key)
        ]
    key = _revlex_key(weights, S.h - 1)
    return _interreduce(_buchberger(basis, key), key)


def test_toric_generators_skip_rule_random_family():
    # h >= 6, where the size-reduced kernel basis lets variables skip their
    # saturation step: the result must match saturating by every variable.
    # Seed 11: 7 of the 12 draws skip a variable besides x_0 by the kernel
    # alone; about 1-2 s
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


def test_toric_generators_q1_q3_random_family():
    # q = 1 and q = 3, h >= 5, 12 draws (seed 11), in about 0.5 s: the
    # result must match saturating by every variable
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


PINNED_CASES = [
    pytest.param(((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1)), 23, 1, id="h6-named"),
    pytest.param(((4, 0), (7, 0), (0, 9), (0, 8), (7, 1), (3, 2), (1, 7)), 30, 1, id="h7-draw"),
    pytest.param(((7, 0), (8, 0), (0, 9), (0, 5), (3, 3), (1, 4), (7, 1)), 33, 1, id="h7-wall"),
    pytest.param(((7, 0), (9, 0), (0, 8), (0, 11), (2, 5), (5, 3), (4, 7), (6, 1)), 49, 1, id="h8-draw"),
    pytest.param(((5, 0), (11, 0), (0, 11), (0, 8), (1, 3), (3, 2), (6, 5), (2, 5), (2, 7)), 66, 2, id="h9-wall"),
    pytest.param(((4, 0, 0), (7, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (4, 1, 1)), 25, 1, id="q3"),
    # saturated from its kernel basis alone, a step leaves x_4 (x_2^3 - x_3^2),
    # sign-consistent on {x_0, x_2, x_4}: a C read off such binomials would
    # leave the ideal unsaturated in x_4
    pytest.param(((2, 0), (3, 0), (0, 2), (0, 3), (2, 1), (3, 1)), 13, 1, id="shared-factor"),
    # box-scan's: the size-reduced kernel basis is sign-consistent
    # only on x_0 and x_3, so the circuits free x_1 and x_2
    pytest.param(((2, 0), (3, 0), (0, 2), (0, 3), (1, 2)), 7, 1, id="box-scan"),
]


@pytest.mark.parametrize("gens, size, runs", PINNED_CASES)
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


def test_free_set_picked_once(monkeypatch):
    # C is picked once per toric ideal, over the kernel vectors and the
    # circuits together: the ones sign-consistent on C, read off the vectors
    # here, span the kernel lattice, and each variable outside C, x_{h-1}
    # always among them, takes one Buchberger run; the pinned cases and 30
    # draws, q = 1-3 (seed 53)
    picks, runs = [], []
    monkeypatch.setattr(pf.groebner, "_free_set", lambda *args: picks.append(_free_set(*args)) or picks[-1])
    monkeypatch.setattr(pf.groebner, "_buchberger", lambda *args: runs.append(1) or _buchberger(*args))
    rng = random.Random(53)
    family = [random_semigroup(rng, i % 3 + 1, h_max=7, coord_max=7 if i % 3 < 2 else 4) for i in range(30)]
    for S in [pf.Semigroup(len(c.values[0][0]), c.values[0]) for c in PINNED_CASES] + family:
        picks.clear()
        runs.clear()
        pf.toric_ideal_generators.cache_clear()
        pf.toric_ideal_generators(S)
        assert len(picks) == 1, S
        C = picks[0]
        assert S.h - 1 not in C, S
        kernel = _kernel_basis(S)
        usable = [v for v in kernel + _circuits(S) if all(v[j] >= 0 for j in C) or all(v[j] <= 0 for j in C)]
        assert _pivots(usable) == _pivots(kernel), S
        assert len(runs) == S.h - len(C), S


def test_divide_out_matches_tuple_formula():
    # x_s^e, e the lead's exponent of x_s, comes off a packed lead and trail
    # as the tuple formula says, the degree field included, for h = 1-8 and
    # with fields near 2^62; trail - lead stays as it was
    rng = random.Random(41)
    for trial in range(400):
        h = trial % 8 + 1
        weights = tuple(rng.randint(1, 9) for _ in range(h))
        s = rng.randrange(h)
        key = _revlex_key(weights, s)
        field = lambda: rng.choice([rng.randint(0, 9), 2**62 + rng.randint(-9, 9)])
        lead = tuple(field() for _ in range(h))
        trail = [field() for _ in range(h)]
        trail[s] = lead[s] + rng.choice([0, rng.randint(1, 9), 2**61])
        u = lead[:s] + (0,) + lead[s + 1 :]
        t = tuple(trail[:s]) + (trail[s] - lead[s],) + tuple(trail[s + 1 :])
        packed = (key.pack(lead), key.pack(tuple(trail)) - key.pack(lead))
        assert _divide_out([packed], key, s) == [(key.pack(u), key.pack(t) - key.pack(u))], (lead, trail, s)


def test_divide_out_coinciding_leads(example_S):
    # next to each g of a minimal basis, x_s g: after the divide both leads
    # are the same, and the interreduced basis is the one without the
    # multiples
    S = example_S
    weights = tuple(sum(a) for a in S.generators)
    for s in range(S.h):
        key = _revlex_key(weights, s)
        basis = unpacked(_buchberger(_binomials(_kernel_basis(S)), key), key)
        up = tuple(int(j == s) for j in range(S.h))
        more = basis + [(tuple(map(operator.add, u, up)), tuple(map(operator.add, t, up))) for u, t in basis]
        packed = [(key.pack(u), key.pack(t) - key.pack(u)) for u, t in more]
        divided = _divide_out(packed, key, s)
        assert len({lead for lead, _ in divided}) == len(basis)
        assert _interreduce(divided, key) == _interreduce(divided[: len(basis)], key)


def test_lcm_degree_on_both_sides_of_the_carry_limit():
    # with_degree reads sum(w_j e_j) off one product while every field is
    # below key.limit, where no column of the product carries, and sums the
    # fields from the limit on: both give the weighted degree
    rng = random.Random(47)
    for trial in range(300):
        h = trial % 8 + 1
        weights = tuple(rng.choice([rng.randint(1, 9), rng.randint(1, 2**40)]) for _ in range(h))
        key = _revlex_key(weights, rng.randrange(h))
        for top in (key.limit - 1, key.limit):
            if top > INT64_MAX:
                continue
            v = tuple(rng.choice([top, rng.randint(0, top)]) for _ in range(h))
            m = sum(e << s for e, s in zip(v, key.shifts))
            assert ((m + key.past) & key.guard == 0) == (max(v) < key.limit), (v, weights)
            assert key.with_degree(m) == m + (sum(map(operator.mul, weights, v)) << key.top), (v, weights)


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
    assert {(b.lead, b.trail) for b in G} == sympy_reduced_grlex_basis(example_S)


def test_reduced_basis_matches_sympy_random():
    rng = random.Random(5)
    checked = 0
    while checked < 8:
        q = rng.choice([1, 2])
        S = random_semigroup(rng, q, h_max=4, coord_max=8)
        G = pf.reduced_basis(S, GRLEX)
        assert {(b.lead, b.trail) for b in G} == sympy_reduced_grlex_basis(S)
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
            leads = [b.lead for b in pf.reduced_basis(S, order)]
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
    # the growth from 0 (``_grow`` on the layout of the basis) keeps exactly
    # the box points no lead divides, once each
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
            leads = [b.lead for b in G]
            key, packed, _, _ = pf.groebner._layout(G, S.h)
            units = [1 << s for s in key.shifts]
            for p in (1, 2):
                top = tuple(p * b for b in pf.lambda_bounds(S, G))
                box = itertools.product(*(range(t) for t in top))
                spec = {g for g in box if not any(all(l <= e for l, e in zip(lead, g)) for lead in leads)}
                grown = [key.unpack(m) for m in pf.groebner._grow(packed, top, key, units)]
                assert len(grown) == len(set(grown)), (S, order, p)
                assert set(grown) == spec, (S, order, p)
            assert pf.groebner._grow(packed, (0,) + top[1:], key, units) == []  # an empty box
        checked += 1


def test_reduced_basis_properties(example_S):
    G = pf.reduced_basis(example_S, GRLEX)
    leads = [b.lead for b in G]
    for b in G:
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
            got = pf.buchberger_reduced(gens, pf.OrderSpec(kind))
            expected = reference_reduced_basis(pairs, pf.OrderSpec(kind).key)
            assert [(b.lead, b.trail) for b in got] == expected, (gens, kind)
        got = _interreduce(_buchberger(pairs, key), key)
        assert [(b.lead, b.trail) for b in got] == reference_reduced_basis(pairs, key), gens
    # larger inputs: the kernel and circuit binomials of five pinned cases
    # under the last step's order, about 1.7 s (h8-draw and h9-wall take the
    # reference 30-40 s each)
    for case in PINNED_CASES:
        if case.id in ("h6-named", "h7-wall", "q3", "shared-factor", "box-scan"):
            S = pf.Semigroup(len(case.values[0][0]), case.values[0])
            pairs = _binomials(_kernel_basis(S) + _circuits(S))
            key = _revlex_key(tuple(sum(a) for a in S.generators), S.h - 1)
            got = _interreduce(_buchberger(pairs, key), key)
            assert [(b.lead, b.trail) for b in got] == reference_reduced_basis(pairs, key), S


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
            assert pairs(pf.buchberger_reduced(big, order)) == scaled(pf.buchberger_reduced(gens, order))
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


def test_engine_boundary():
    # every vector entering the engine is checked as a point with the basis's
    # number of variables, and a cap as an int >= 1 (>= 2 for the scan, with
    # h int weights and a box that is not empty): a wrong length was padded or
    # cut, a bool read as 1, a float or a negative entry raised a raw error,
    # a float cap was truncated, and the scan leaked a bare StopIteration or
    # IndexError
    G = pf.toric_ideal_generators(pf.numerical(3, 5))
    scan = pf.groebner.top_small_fibers
    for call in (
        lambda: pf.normal_form((1, 2, 3), G),
        lambda: pf.groebner.fiber_size((1,), G, 5),
        lambda: pf.normal_form((True, 2), G),
        lambda: pf.normal_form((1.5, 2), G),
        lambda: pf.normal_form((-1, 2), G),
        lambda: pf.buchberger_reduced([Binomial((1, 2, 3), (0, 1))], GRLEX),
        lambda: pf.groebner.fiber_size((5, 0), G, 2.5),
        lambda: pf.groebner.fiber_size((5, 0), G, True),
        lambda: Binomial((1, 2), (1, 2)),
        lambda: scan(G, (3, 5), [3, 5], 1),
        lambda: scan(G, (3, 5), [3, 5], 0),
        lambda: scan(G, (3, 5), [3, 5], True),
        lambda: scan(G, (3, 5), [3, 5], 2.5),
        lambda: scan(G, (3, 0), [3, 5], 2),
        lambda: scan(G, (3, 5), [3], 2),
        lambda: scan(G, (3, 5), [3, 5.0], 2),
        lambda: scan(G, (3, 5), [3, True], 2),
        lambda: scan(G, (1,), [3, 5], 2),
    ):
        with pytest.raises(pf.ValidationError):
            call()
    # a basis of mixed lengths, a binomial of another length or a lead and a
    # trail of different lengths, was cut to the point's length: normal_form
    # answered from the cut basis and the scan leaked a bare StopIteration
    # (the uncapped fiber walk ran until memory ran out, so it is left to CI)
    for H in (
        (Binomial((1, 0), (0, 1)), Binomial((1, 0, 0), (0, 0, 1))),
        (Binomial((1, 0), (0, 0, 1)),),
    ):
        for call in (
            lambda: pf.normal_form((2, 0), H),
            lambda: pf.groebner.in_ideal(Binomial((2, 0), (0, 2)), H),
            lambda: pf.groebner.fiber_size((2, 0), H, 50),
            lambda: scan(H, (3, 3), [1, 1], 2),
        ):
            with pytest.raises(pf.ValidationError):
                call()
    with pytest.raises(pf.OverflowGuardError):
        pf.normal_form((2**63, 0), G)
    assert pf.normal_form((5, 0), G) == (0, 3)
    assert pf.groebner.fiber_size((5, 0), G, 5) == 2
    assert scan(G, (3, 5), [3, 5], 2) == ((2, 2),)
    assert scan(G, (3, 5), [3, 5], 3) == ((2, 4),)


def test_buchberger_idempotent_cases():
    b = Binomial((3, 0), (0, 2))
    G = pf.buchberger_reduced([b], GRLEX)
    assert G == (b,)
    G = pf.buchberger_reduced([b, b], GRLEX)
    assert G == (b,)
    # a multiple, a reversed copy and a duplicate, in one input
    G = pf.buchberger_reduced([Binomial((0, 2), (3, 0)), b, Binomial((6, 0), (0, 4)), b], GRLEX)
    assert G == (b,)
    for kind in ("grlex", "grevlex"):
        assert pf.buchberger_reduced([], pf.OrderSpec(kind)) == ()


def test_determinism(example_S):
    pf.reduced_basis.cache_clear()
    first = pf.reduced_basis(example_S, GRLEX)
    pf.reduced_basis.cache_clear()
    second = pf.reduced_basis(example_S, GRLEX)
    assert first == second


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
            for b in reversed(G):
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
