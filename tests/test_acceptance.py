"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Where a stated reference value is wrong, the criterion checks the computed
value against an independent source instead and logs the stated value beside
it.  Criteria 1-3 do this for Lambda, F_1 and F_2 of the running example.
Criterion 4 does it for indispensability: the reference source claims every
binomial of the 14-element reduced basis of the running example is
indispensable, but a binomial is indispensable exactly when its S-degree has
two factorizations (with disjoint supports), and five of the fourteen
S-degrees have three or more.  For example (9,6) = 3*(3,0) + (0,6) =
2*(4,0) + (0,5) + (1,1) = (3,0) + 6*(1,1).  Indispensability does not depend
on the monomial order, so no reduced basis satisfies the claim; the test
checks the true 9/5 split against the oracle's counts and prints the five
counterexamples.
"""
from __future__ import annotations

import itertools
import random
import time
from math import gcd

import pytest

import pfrobenius as pf
from pfrobenius.frobenius import _apery_walk
from pfrobenius.oracle import _Budget, _direct_lambda
from conftest import EXAMPLE_GENS, criterion6_gluings, grid_counts, random_finite_semigroup, random_semigroup

GRLEX = pf.OrderSpec("grlex")


def report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.1f}s) — {detail}")


@pytest.fixture(scope="module")
def S():
    return pf.minimalize_generators(EXAMPLE_GENS, 2)


def test_criterion_1_reference_example_f1(S):
    # stated reference values: Lambda = (4,3,6,5,11), F_1 = (21,4); the
    # computed reduced basis disagrees, so per the fallback rule Lambda and
    # F_1 are validated against the oracle instead (the box cardinality 1835
    # is checked verbatim — it does match).
    pf.reduced_basis.cache_clear()
    pf.toric_ideal_generators.cache_clear()
    _apery_walk.cache_clear()
    t0 = time.perf_counter()
    G = pf.reduced_basis(S, GRLEX)
    lam = pf.lambda_bounds(S, G)
    n_candidates = len(pf.candidate_degrees(S, lam, 1))
    general = pf.fp_general(S, 1, GRLEX)
    oracle_lam = _direct_lambda(S, _Budget(None))
    oracle_f1 = pf.oracle_fp(S, 1, GRLEX).result
    elapsed = time.perf_counter() - t0
    ok = (
        lam == oracle_lam
        and n_candidates == 1835
        and general == oracle_f1
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        elapsed,
        f"|basis| = {len(G)}, Lambda = {lam} (reference states "
        f"(4,3,6,5,11)), |box| = {n_candidates}, F_1 = {general.point} "
        f"(reference states (21, 4)); oracle confirms both computed values",
    )
    assert lam == oracle_lam
    assert n_candidates == 1835
    assert general == oracle_f1
    assert elapsed < 10.0


def test_criterion_2_reference_example_staircase(S):
    # Omega is the set of basis monomials; the elements with one factorization
    # are the degrees of its staircase complement, all below the degree of the
    # top corner lambda - 1, counted here by the oracle's grid DP
    t0 = time.perf_counter()
    G = pf.reduced_basis(S, GRLEX)
    omega = {m for b in G for m in (b.lead, b.trail)}
    corner = pf.s_degree(S, tuple(b - 1 for b in pf.lambda_bounds(S, G)))
    n_single = grid_counts(S.generators, corner)[0].count(1)
    result = pf.fp_general(S, 1, GRLEX)
    oracle_f1 = pf.oracle_fp(S, 1, GRLEX).result
    elapsed = time.perf_counter() - t0
    ok = len(omega) == 28 and n_single == 179 and result == oracle_f1
    report(
        2,
        ok,
        elapsed,
        f"|Omega| = {len(omega)}, |degrees| = {n_single}, "
        f"F_1 = {result.point} (reference states (21, 4); oracle confirms "
        f"the computed value)",
    )
    assert len(omega) == 28
    assert n_single == 179
    assert result == oracle_f1


def test_criterion_3_f2_oracle_adjudication(S):
    t0 = time.perf_counter()
    f2 = pf.fp_general(S, 2, GRLEX)
    oracle_f2 = pf.oracle_fp(S, 2, GRLEX).result
    elapsed = time.perf_counter() - t0
    n_at_283 = pf.count_capped(S, (2, 83), 4)
    ok = f2 == oracle_f2 and elapsed < 60.0
    report(
        3,
        ok,
        elapsed,
        f"F_2 = {f2.point}, oracle = {oracle_f2.point}; the stated reference "
        f"value (2, 83) has {n_at_283} factorizations, so it does not qualify",
    )
    assert f2 == oracle_f2
    assert elapsed < 60.0


def test_criterion_4_all_basis_binomials_indispensable(S):
    # stated claim: every element of the reduced basis is indispensable.  It
    # is false: 5 of the 14 S-degrees have 3 or more factorizations, e.g.
    # x1^3*x4 - x2^2*x3*x5 at (9,6), where x1*x5^6 is a third factorization.
    # So check the true split instead, counting each fiber with the oracle's
    # grid DP, which shares no code with the factorization module.
    t0 = time.perf_counter()
    G = pf.reduced_basis(S, GRLEX)
    degrees = {b: pf.s_degree(S, b.lead) for b in G}
    maxes = tuple(max(m[j] for m in degrees.values()) for j in range(S.q))
    box = itertools.product(*(range(m + 1) for m in maxes))  # the grid's order
    counts = dict(zip(box, grid_counts(S.generators, maxes)[0]))
    expected = {(b.lead, b.trail) for b, m in degrees.items() if counts[m] == 2}
    dispensable = [b for b, m in degrees.items() if counts[m] != 2]
    ind = {(b.lead, b.trail) for b in pf.indispensable_binomials(S)}
    grevlex_basis = {
        frozenset((b.lead, b.trail))
        for b in pf.reduced_basis(S, pf.OrderSpec("grevlex"))
    }
    elapsed = time.perf_counter() - t0
    ok = (
        ind == expected
        and len(ind) == 9
        and all(counts[degrees[b]] >= 3 for b in dispensable)
        and all(frozenset(pair) in grevlex_basis for pair in ind)
    )
    witnesses = ", ".join(
        f"{pf.groebner.format_binomial(b)} at degree {degrees[b]} with "
        f"{counts[degrees[b]]} factorizations"
        for b in dispensable
    )
    report(
        4,
        ok,
        elapsed,
        f"{len(ind)} of {len(G)} basis binomials indispensable (reference "
        f"states all {len(G)}); counterexamples: {witnesses}",
    )
    assert ind == expected
    assert len(ind) == 9
    assert all(counts[degrees[b]] >= 3 for b in dispensable), witnesses
    # indispensability does not depend on the order: the grevlex basis
    # holds the same binomials, possibly with lead and trail swapped
    assert all(frozenset(pair) in grevlex_basis for pair in ind)


def test_criterion_5_numerical_baselines():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    pairs = []
    while len(pairs) < 20:
        a = rng.randint(2, 59)
        b = rng.randint(a + 1, 60)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    ok = True
    for a, b in pairs:
        S = pf.numerical(a, b)
        expected = (a * b - a - b,)
        ok &= pf.f0_numerical(S).point == expected
        ok &= pf.oracle_fp(S, 0).result.point == expected
    ok &= pf.oracle_fp(pf.numerical(2, 3), 1).result.point == (7,)
    ok &= pf.oracle_fp(pf.numerical(2, 3), 2).result.point == (13,)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(5, ok, elapsed, "20 coprime pairs vs a*b - a - b and the oracle")
    assert ok


def test_criterion_6_gluing_suite():
    t0 = time.perf_counter()
    rng = random.Random(6)
    ok = True
    checked_verdicts = 0
    for S, spec in criterion6_gluings(rng):
        glued = pf.glue(S, spec)
        if S.q == 1:
            # classical equality for the 0-Frobenius number
            bound0 = pf.fp_glued_bound(S, 0, spec, GRLEX)
            ok &= pf.f0_numerical(glued).point == bound0
        for p in (1, 2) if S.q == 1 else (1,):
            bound = pf.fp_glued_bound(S, p, spec, GRLEX)
            actual = pf.oracle_fp(glued, p, GRLEX).result.point
            ok &= pf.compare_graded(GRLEX, actual, bound) <= 0
            fp = pf.fp_general(S, p, GRLEX).point
            if len(pf.factorizations(S, fp)) == p:
                verdict = pf.gluing_equality(S, p, spec, GRLEX)
                attained = actual == bound
                ok &= (verdict is pf.GluingVerdict.EQUAL) == attained
                checked_verdicts += 1
        # gamma-coefficient shift on 10 random degrees
        for _ in range(10):
            n = tuple(rng.randint(0, 25) for _ in range(S.q))
            zn = pf.factorizations(glued, n)
            shifted = tuple(a + g for a, g in zip(n, spec.gamma))
            zshift = pf.factorizations(glued, shifted)
            bumped = {z[:-1] + (z[-1] + 1,) for z in zn}
            ok &= bumped == {z for z in zshift if z[-1] >= 1}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(
        6, ok, elapsed, f"30 gluings, {checked_verdicts} equality verdicts checked"
    )
    assert ok


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(7)
    ok = True

    # graded order axioms on sampled vectors
    for kind in ("grlex", "grevlex"):
        order = pf.OrderSpec(kind)
        for _ in range(200):
            u = tuple(rng.randint(0, 30) for _ in range(3))
            v = tuple(rng.randint(0, 30) for _ in range(3))
            w = tuple(rng.randint(0, 30) for _ in range(3))
            c = pf.compare_graded(order, u, v)
            ok &= c == -pf.compare_graded(order, v, u)
            ok &= (c == 0) == (u == v)
            if sum(u) < sum(v):
                ok &= c == -1
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            ok &= pf.compare_graded(order, uw, vw) == c

    # factorization completeness vs an independent enumerator
    from test_factorization import brute_force_factorizations

    for _ in range(50):
        q = rng.choice([1, 2])
        T = random_semigroup(rng, q, h_max=5, coord_max=12)
        n = tuple(rng.randint(0, 25) for _ in range(q))
        ok &= pf.factorizations(T, n) == brute_force_factorizations(
            T, n
        )

    # normal-form idempotence and S-degree preservation
    for _ in range(10):
        T = random_finite_semigroup(rng, rng.choice([1, 2]))
        G = pf.reduced_basis(T, GRLEX)
        for _ in range(20):
            m = tuple(rng.randint(0, 5) for _ in range(T.h))
            nf = pf.normal_form(m, G)
            ok &= pf.normal_form(nf, G) == nf
            ok &= pf.s_degree(T, nf) == pf.s_degree(T, m)

    # box-point lemma: a normal-form point has several factorizations of its
    # degree iff some basis trail divides it — on every Lambda-box point
    for _ in range(10):
        T = random_finite_semigroup(rng, 1)
        G = pf.reduced_basis(T, GRLEX)
        lam = pf.lambda_bounds(T, G)
        trails = [b.trail for b in G]
        for gamma in itertools.product(*(range(b + 1) for b in lam)):
            if pf.normal_form(gamma, G) != gamma:
                continue
            multiple = pf.count_capped(T, pf.s_degree(T, gamma), 2) > 1
            divisible = any(
                all(t <= g for t, g in zip(trail, gamma)) for trail in trails
            )
            ok &= multiple == divisible

    # finiteness verdict invariance across p and both orders
    for _ in range(5):
        q = rng.choice([1, 2])
        T = random_semigroup(rng, q, h_max=4, coord_max=8)
        verdicts = {
            pf.fp_general(T, p, pf.OrderSpec(kind)).is_infinite
            for p in (1, 2, 3)
            for kind in ("grlex", "grevlex")
        }
        ok &= len(verdicts) == 1

    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, "order axioms, completeness, normal forms, invariance")
    assert ok
