"""Seeded input generators for the three benchmark workloads.

Each generator takes the seed and returns a list of ops, one solve request
each.  An op is a plain JSON-able dict, so the worker process receives only
the generated semigroups and never this module's random state:

* ``{"kind": "fp", "q", "gens", "p", "order"}`` is one library call
  ``fp_general(S, p, order)``;
* ``{"kind": "cli", "argv", ...}`` is one ``cli.parse_and_dispatch(argv)``
  call on a JSON file written at set-up, with the fields the checker needs.

Every semigroup is accepted or rejected from its own structure (minimal
generating set, finite F_p, valid gluing), decided by the small membership
DP below, never by the program under test and never by run time.  Ops are
listed in the order a timed pass runs them.  Each list takes 4-5 s at the
seed commit on a shared 2-core x86 VM in a fast hour and up to twice that in
a slow one, so the three passes of a run (see run.py) fit in its seconds.

A pass holds 6-20 ops of 0.05-2 s (toric-2d, box-scan) or about 170
cheap ones (glue-verify), and a fresh seeded draw of that size moved
every metric by 10-30 % between seeds.  So every workload runs a fixed
set, enumerated or (glue-verify) picked once by stratified sampling, and
the seed orders it.
"""
from __future__ import annotations

import itertools
import json
import random
from math import gcd
from pathlib import Path

GRLEX = "grlex"
GREVLEX = "grevlex"

RUNNING_EXAMPLE = ((3, 0), (4, 0), (0, 5), (0, 6), (1, 1))
# q = 2, h = 6: the toric ideal runs for more than 7 minutes at the seed
# commit, so it is a probe with a short deadline, not a timed op.
NAMED_WALL = ((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1))
# gcd(4, 6) > 1: F_0 scans down from 4 * 6 = 24 and misses the true 103.
F0_GCD_CASE = ((4,), (6,), (101,))


def members(gens, top: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every point of the semigroup generated by gens that is <= top."""
    q = len(top)
    reach = {(0,) * q}
    frontier = [(0,) * q]
    while frontier:
        n = frontier.pop()
        for g in gens:
            m = tuple(a + b for a, b in zip(n, g))
            if m not in reach and all(c <= t for c, t in zip(m, top)):
                reach.add(m)
                frontier.append(m)
    return reach


def is_minimal(gens) -> bool:
    """No generator lies in the semigroup the others generate."""
    if len(set(gens)) != len(gens):
        return False
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1 :]
        if g in members(others, g):
            return False
    return True


def _fp_op(gens, p: int, order: str) -> dict:
    return {"kind": "fp", "q": len(gens[0]), "gens": [list(g) for g in gens],
            "p": p, "order": order}


def _planar_family(x_pairs, y_pairs, interior: int, coord_max: int):
    """Every minimal generating set with the given axis pairs and `interior`
    generators in [1, coord_max]^2, in a fixed order.

    Two minimal generators on each axis make both extremal rays carry two
    generators, so F_p is finite for every p >= 1.
    """
    points = [(x, y) for x in range(1, coord_max + 1) for y in range(1, coord_max + 1)]
    family = []
    for a, b in x_pairs:
        for c, d in y_pairs:
            for inner in itertools.combinations(points, interior):
                gens = ((a, 0), (b, 0), (0, c), (0, d)) + inner
                if is_minimal(gens):
                    family.append(gens)
    return family


# toric-2d: every q = 2, h = 6 semigroup with x-axis pair {2,3}, y-axis
# pair {2,3} or {3,4} and two interior generators in [1,3]^2 other than
# (1,1), 20 in all, solved once each at p = 1; 0.05-0.9 s per op.  The
# mirror family (x-axis {3,4}) and the (1,1) semigroups are left out so
# that three passes fit in a run.  With axes up to 5 and interior
# coordinates up to 4, single ops take 0.4-8 s and some run past 20 s.
def toric_2d(seed: int, workdir: Path) -> list[dict]:
    corpus = [g for g in _planar_family([(2, 3)], [(2, 3), (3, 4)], 2, 3)
              if (1, 1) not in g]
    random.Random(seed).shuffle(corpus)
    return [_fp_op(g, 1, GRLEX) for g in corpus]


# box-scan: the running example and the two h = 5 semigroups with axis
# pairs {2,3} and {2,3} plus the interior generator (1,2) or (2,1), at
# p = 2 under both orders, which share one toric ideal per semigroup: 6
# ops, so op_tail_s is the slowest op.  p = 3 on the running example takes
# about 19 s per order and p = 1 about 0.1-0.3 s, little of it in the box
# and the scan; the other small semigroups are left out so that three
# passes fit in a run.
def box_scan(seed: int, workdir: Path) -> list[dict]:
    bases = [RUNNING_EXAMPLE] + [g for g in _planar_family([(2, 3)], [(2, 3)], 1, 3)
                                 if sum(g[-1]) == 3]
    # The seed orders the semigroups; grlex always runs first, so the same
    # op always pays for the shared toric ideal.
    random.Random(seed).shuffle(bases)
    return [_fp_op(g, 2, order) for g in bases for order in (GRLEX, GREVLEX)]


def _small_bases(interior: int):
    """The h = 4 + interior semigroups with axis pairs {2,3} and {2,3} or
    {3,4} and interior generators in [1,3]^2."""
    return _planar_family([(2, 3)], [(2, 3), (3, 4)], interior, 3)


def _write_semigroup(workdir: Path, name: str, gens) -> str:
    path = workdir / f"{name}.json"
    doc = {"q": len(gens[0]), "generators": [list(g) for g in gens],
           "order": {"kind": GRLEX}}
    path.write_text(json.dumps(doc))
    return str(path)


def _stratified(rng: random.Random, population: list, count: int) -> list:
    """One pick from each of `count` equal slices of population.

    The op cost depends mostly on where an item sits in the enumeration
    (its generators' sizes), so the picks cover the range evenly.
    """
    bounds = [round(k * len(population) / count) for k in range(count + 1)]
    return [population[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def _numerical_gluings():
    """Every criterion-6 numerical gluing: S = <a, b> with a, b in 2..9
    coprime, gamma = i*a + j*b with i, j in 1..3, d in {2, 3, 5}."""
    out = []
    for a in range(2, 10):
        for b in range(2, 10):
            if gcd(a, b) != 1:
                continue
            for i, j, d in itertools.product((1, 2, 3), (1, 2, 3), (2, 3, 5)):
                gens, gamma = ((a,), (b,)), (a * i + b * j,)
                if gcd(d, gamma[0]) == 1 and is_minimal(
                        tuple((d * g[0],) for g in gens) + (gamma,)):
                    out.append((gens, d, gamma))
    return out


NUMERICAL_MAX = 20


def _numerical_triples():
    """Every minimal triple a1 < a2 < a3 from 3..NUMERICAL_MAX with gcd 1."""
    out = []
    for triple in itertools.combinations(range(3, NUMERICAL_MAX + 1), 3):
        gens = tuple((g,) for g in triple)
        if gcd(*triple) == 1 and is_minimal(gens):
            out.append(gens)
    return out


# 2-D gluings: the criterion-6 shape (gamma a combination of the generators
# with coefficients 0..2, d in {2, 3}) on the 14 small bases with axis
# pairs {2,3} and {2,3} or {3,4}, with or without one interior generator.
# One op takes 0.04-0.8 s; on the criterion-6 bases (axes up to 7, two
# interior points) ops take 0.1-20 s.
def _planar_gluing(rng: random.Random, gens, seen: set):
    while True:
        coeffs = [rng.randint(0, 2) for _ in gens]
        if sum(coeffs) < 2:
            continue
        gamma = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(2))
        d = rng.choice([2, 3])
        if any(c == 0 for c in gamma) or gcd(d, gcd(*gamma)) != 1 or gamma in gens:
            continue
        if (gens, d, gamma) in seen:
            continue
        if is_minimal(tuple(tuple(d * c for c in g) for g in gens) + (gamma,)):
            seen.add((gens, d, gamma))
            return gens, d, gamma


def _glue_op(path, gens, d, gamma, p) -> dict:
    argv = ["glue", "--input", path, "--d", str(d), "--gamma", ",".join(map(str, gamma)),
            "--p", str(p), "--verify"]
    return {"kind": "cli", "cmd": "glue", "argv": argv, "gens": [list(g) for g in gens],
            "d": d, "gamma": list(gamma), "p": p, "order": GRLEX}


def _cli_fp_op(path, gens, p) -> dict:
    argv = ["fp", "--input", path, "--p", str(p), "--verify"]
    return {"kind": "cli", "cmd": "fp", "argv": argv, "gens": [list(g) for g in gens],
            "p": p, "order": GRLEX}


GLUE_ROUNDS = 26
# The semigroups are picked once, by this seed; the run's seed orders them.
# With about 200 ops a run, picks that moved with the run's seed moved
# op_p50_s by 15 % from seed to seed.
PICK_SEED = 0


def glue_verify(seed: int, workdir: Path) -> list[dict]:
    """GLUE_ROUNDS rounds, each: one numerical gluing as ``glue`` at
    p = 0, 1, 2; one numerical triple as ``fp`` at p = 0, 1, 2; one 2-D
    gluing as ``glue`` at p = 1, all with ``--verify``.  The ops on one
    semigroup S run together, in the order of the rounds, and the seed
    orders the semigroups, so the same op always finds the caches of its S
    in the same state.

    A p = 0 ``fp`` op is issued only when the two smallest generators are
    coprime: with a shared factor the program's F_0 is wrong at the seed
    commit, and that case is reported by the F_0 probe instead.
    """
    rng = random.Random(PICK_SEED)
    gluings = _stratified(rng, _numerical_gluings(), GLUE_ROUNDS)
    triples = _stratified(rng, _numerical_triples(), GLUE_ROUNDS)
    bases = _small_bases(0) + _small_bases(1)
    seen: set = set()
    planar = [_planar_gluing(rng, bases[r % len(bases)], seen) for r in range(GLUE_ROUNDS)]
    by_semigroup: dict[tuple, list[dict]] = {}
    for r, ((gens, d, gamma), triple, (base, d2, gamma2)) in enumerate(
            zip(gluings, triples, planar)):
        path = _write_semigroup(workdir, f"n{r}", gens)
        by_semigroup.setdefault(gens, []).extend(
            _glue_op(path, gens, d, gamma, p) for p in (0, 1, 2))
        path = _write_semigroup(workdir, f"t{r}", triple)
        first = (0,) if gcd(triple[0][0], triple[1][0]) == 1 else ()
        by_semigroup.setdefault(triple, []).extend(
            _cli_fp_op(path, triple, p) for p in first + (1, 2))
        path = _write_semigroup(workdir, f"g{r}", base)
        by_semigroup.setdefault(base, []).append(_glue_op(path, base, d2, gamma2, 1))
    groups = list(by_semigroup.values())
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {"toric-2d": toric_2d, "box-scan": box_scan, "glue-verify": glue_verify}
