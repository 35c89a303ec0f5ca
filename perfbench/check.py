"""Reference answers for benchmark ops, computed outside every timed pass.

For p >= 1 the reference is the package's brute-force oracle, which shares
no code with the Groebner engine.  For p = 0 the oracle is not used: it
starts its scan from a_1 * a_2, the same wrong bound as ``f0_numerical``
when gcd(a_1, a_2) > 1, so the two agree on wrong answers.  A p = 0 answer
F is accepted only with a certificate from the membership DP here: F is not
in S, and the next min(a_i) integers all are, so every larger integer is.
"""
from __future__ import annotations

import itertools
import json
from functools import lru_cache


def numerical_members(gens: tuple[int, ...], limit: int) -> list[bool]:
    """member[n] for 0 <= n <= limit, by the coin-change DP."""
    member = [False] * (limit + 1)
    member[0] = True
    for n in range(1, limit + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    return member


def f0_certified(gens: tuple[int, ...], f: int) -> bool:
    """Is f the Frobenius number of the numerical semigroup <gens>?"""
    step = min(gens)
    if f < -1:
        return False
    member = numerical_members(gens, f + step)
    return (f < 0 or not member[f]) and all(member[f + k] for k in range(1, step + 1))


def f0_reference(gens: tuple[int, ...]) -> int:
    """The Frobenius number by the membership DP: the last gap before a run
    of min(gens) consecutive members."""
    step = min(gens)
    limit = step
    while True:
        member = numerical_members(gens, limit)
        run, last_gap = 0, -1
        for n, m in enumerate(member):
            run = run + 1 if m else 0
            if not m:
                last_gap = n
            if run == step:
                return last_gap
        limit *= 2


def count_factorizations(gens, n: tuple[int, ...]) -> int:
    """#Z_n by the unbounded coin-change DP over the box below n."""
    ways = {(0,) * len(n): 1}
    points = sorted(itertools.product(*(range(c + 1) for c in n)), key=sum)
    for g in gens:
        for m in points:
            prev = tuple(a - b for a, b in zip(m, g))
            if all(c >= 0 for c in prev):
                ways[m] = ways.get(m, 0) + ways.get(prev, 0)
    return ways.get(n, 0)


class Checker:
    """Checks op answers; reference values are memoized per (S, p, order)."""

    def __init__(self, pf) -> None:
        self.pf = pf
        self.oracle = lru_cache(maxsize=None)(self._oracle)

    def _oracle(self, gens, p, order):
        pf = self.pf
        S = pf.Semigroup(len(gens[0]), gens)
        return tuple(pf.oracle_fp(S, p, pf.OrderSpec(order)).result.point)

    def fp_reference(self, gens, p, order):
        if p == 0:
            return (f0_reference(tuple(g[0] for g in gens)),)
        return self.oracle(gens, p, order)

    def check(self, op: dict, value) -> bool:
        """True iff the op's returned value is right."""
        gens = tuple(tuple(g) for g in op["gens"])
        if op["kind"] == "fp":
            return value == list(self.fp_reference(gens, op["p"], op["order"]))
        if value["status"] != 0:
            return False
        try:
            out = json.loads(value["output"].strip().splitlines()[-1])
        except (IndexError, ValueError):
            return False
        if not (isinstance(out, dict) and isinstance(out.get("result"), list)):
            return False
        if op["cmd"] == "fp":
            if op["p"] == 0:
                return f0_certified(tuple(g[0] for g in gens), out["result"][0])
            return out["result"] == list(self.fp_reference(gens, op["p"], op["order"]))
        return self._check_glue(op, gens, out)

    def _check_glue(self, op, gens, out) -> bool:
        """bound = d*F_p(S) + (d-1)*gamma, and the equality verdict.

        For p = 0 the bound is F_0 of the gluing itself, certified on it.
        For p >= 1 the verdict is 'equal' iff the oracle's F_p of the
        gluing equals the bound, when F_p(S) has exactly p factorizations,
        and 'precondition-failed' otherwise.
        """
        p, d, gamma = op["p"], op["d"], tuple(op["gamma"])
        fp = self.fp_reference(gens, p, op["order"])
        bound = [d * f + (d - 1) * g for f, g in zip(fp, gamma)]
        if out["result"] != bound:
            return False
        glued = tuple(tuple(d * c for c in g) for g in gens) + (gamma,)
        if p == 0:
            return f0_certified(tuple(g[0] for g in glued), bound[0])
        verdict = out.get("meta", {}).get("verdict")
        if count_factorizations(gens, fp) != p:
            return verdict == "precondition-failed"
        attained = list(self.oracle(glued, p, op["order"])) == bound
        return verdict == ("equal" if attained else "strictly-less")
