from __future__ import annotations

import ast
import copy
import json
import pickle
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pfrobenius as pf
from pfrobenius import factorization
from pfrobenius.core import EQUAL, GREATER, LESS
from conftest import EXAMPLE_GENS, unstepped_factor_tuples

vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=4)
orders = st.sampled_from(["grlex", "grevlex"])


def test_degree_dominates():
    assert pf.compare_graded(pf.OrderSpec("grlex"), (21, 4), (2, 83)) == LESS


def test_lex_tiebreak():
    assert pf.compare_graded(pf.OrderSpec("grlex"), (2, 1), (1, 2)) == GREATER


def test_reflexive():
    assert pf.compare_graded(pf.OrderSpec("grlex"), (3, 3), (3, 3)) == EQUAL


def test_grevlex_tiebreak():
    # rightmost non-zero coordinate of u - v negative => u greater
    assert pf.compare_graded(pf.OrderSpec("grevlex"), (2, 1), (1, 2)) == GREATER
    assert pf.compare_graded(pf.OrderSpec("grevlex"), (1, 0, 1), (0, 2, 0)) == LESS


def test_length_mismatch_rejected():
    with pytest.raises(pf.ValidationError):
        pf.compare_graded(pf.OrderSpec("grlex"), (1, 2), (1, 2, 3))


@pytest.mark.parametrize("bad", [(1.5, 2), (1, "a"), 5])
def test_compare_graded_checks_points(bad):
    # each point passes _as_point: (1.5, 2) used to answer 1, and (1, "a")
    # and a bare 5 ended in a raw TypeError
    for u, v in ((bad, (1, 2)), ((1, 2), bad)):
        with pytest.raises(pf.ValidationError):
            pf.compare_graded(pf.OrderSpec("grlex"), u, v)


def test_non_graded_order_rejected():
    with pytest.raises(pf.ValidationError):
        pf.OrderSpec("lex")


# every library call that takes a graded order, with that order as its last argument
ORDER_CALLS = {
    "fp_general-q1-p0": lambda o: pf.fp_general(pf.numerical(3, 5), 0, o),
    "fp_general-q1-p1": lambda o: pf.fp_general(pf.numerical(3, 5), 1, o),
    "fp_general-q2": lambda o: pf.fp_general(pf.minimalize_generators(EXAMPLE_GENS), 1, o),
    "oracle_fp-q1-p0": lambda o: pf.oracle_fp(pf.numerical(3, 5), 0, o),
    "oracle_fp-q1-p1": lambda o: pf.oracle_fp(pf.numerical(3, 5), 1, o),
    "oracle_fp-q2": lambda o: pf.oracle_fp(pf.minimalize_generators(EXAMPLE_GENS), 1, o),
    "compare_graded": lambda o: pf.compare_graded(o, (2, 1), (1, 2)),
    "reduced_basis": lambda o: pf.reduced_basis(pf.numerical(3, 5), o),
    "reduced_basis-zero-ideal": lambda o: pf.reduced_basis(pf.numerical(1), o),
    "buchberger_reduced": lambda o: pf.buchberger_reduced([pf.Binomial((5, 0), (0, 3))], o),
    "semigroup_to_json": lambda o: pf.semigroup_to_json(pf.numerical(3, 5), o),
    "fp_glued_bound": lambda o: pf.fp_glued_bound(pf.numerical(3, 4), 1, pf.GluingSpec(2, (15,)), o),
    "gluing_equality": lambda o: pf.gluing_equality(pf.numerical(3, 4), 1, pf.GluingSpec(2, (15,)), o),
}


@pytest.mark.parametrize(
    "name, order",
    [(name, order) for name in ORDER_CALLS for order in ("grlex", 1, None)
     if not (name == "semigroup_to_json" and order is None)],  # there None means no order
)
def test_order_that_is_no_orderspec_is_refused(name, order):
    # a name, an int or None is refused at every q and p, also where the
    # order is never read (q = 1), never answered nor an AttributeError
    with pytest.raises(pf.ValidationError, match="OrderSpec"):
        ORDER_CALLS[name](order)
    ORDER_CALLS[name](pf.OrderSpec("grevlex"))


@given(orders, vectors, vectors, vectors)
def test_order_axioms(kind, u, v, w):
    n = min(len(u), len(v), len(w))
    u, v, w = tuple(u[:n]), tuple(v[:n]), tuple(w[:n])
    order = pf.OrderSpec(kind)
    cuv = pf.compare_graded(order, u, v)
    # totality + antisymmetry
    assert cuv == -pf.compare_graded(order, v, u)
    assert (cuv == EQUAL) == (u == v)
    # degree compatibility
    if sum(u) < sum(v):
        assert cuv == LESS
    # multiplicativity
    uw = tuple(a + b for a, b in zip(u, w))
    vw = tuple(a + b for a, b in zip(v, w))
    assert pf.compare_graded(order, uw, vw) == cuv


@given(orders, vectors, vectors, vectors)
def test_order_transitive(kind, u, v, w):
    n = min(len(u), len(v), len(w))
    u, v, w = tuple(u[:n]), tuple(v[:n]), tuple(w[:n])
    order = pf.OrderSpec(kind)
    if (
        pf.compare_graded(order, u, v) != GREATER
        and pf.compare_graded(order, v, w) != GREATER
    ):
        assert pf.compare_graded(order, u, w) != GREATER


def test_downset_finite_bound():
    # everything below a under a graded order has total degree <= |a|
    order = pf.OrderSpec("grlex")
    a = (3, 4)
    below = [
        (i, j)
        for i in range(20)
        for j in range(20)
        if pf.compare_graded(order, (i, j), a) != GREATER
    ]
    assert all(i + j <= sum(a) for i, j in below)


def test_s_degree_example_value(example_S):
    assert pf.s_degree(example_S, (3, 2, 0, 0, 4)) == (21, 4)


def test_s_degree_zero_and_unit(example_S):
    assert pf.s_degree(example_S, (0, 0, 0, 0, 0)) == (0, 0)
    assert pf.s_degree(example_S, (0, 0, 0, 0, 1)) == (1, 1)


def test_s_degree_overflow_guard():
    S = pf.numerical(2, 3)
    with pytest.raises(pf.OverflowGuardError):
        pf.s_degree(S, (2**62, 0))


def test_s_degree_rejects_non_int_exponents():
    S = pf.numerical(3, 5)
    for lam in ((1.5, 0), (True, 0), ("1", 0), (-1, 2), (1,)):
        with pytest.raises(pf.ValidationError):
            pf.s_degree(S, lam)


def test_minimalize_drops_redundant():
    assert pf.minimalize_generators([(2,), (3,), (4,)]).generators == ((2,), (3,))
    assert pf.minimalize_generators([(2,), (4,)]).generators == ((2,),)


def test_minimalize_keeps_minimal(example_S):
    again = pf.minimalize_generators(example_S.generators, 2)
    assert again.generators == example_S.generators


def test_minimalize_idempotent():
    rng = random.Random(7)
    for _ in range(10):
        gens = [
            tuple(rng.randint(0, 9) for _ in range(2)) for _ in range(rng.randint(2, 5))
        ]
        gens = [g for g in gens if any(g)] or [(1, 2)]
        S = pf.minimalize_generators(gens, 2)
        assert pf.minimalize_generators(S.generators, 2).generators == S.generators
        # output generates the same semigroup: every input gen factors over it
        for g in gens:
            assert pf.contains(S, g)


def test_minimalize_list_and_tuple_input_agree():
    # the atom test is cached on the deduplicated tuple; the input's container
    # type, a repeat or a list-valued generator must not change the answer
    for gens in ([(2,), (3,), (4,)], [(6, 0), (0, 4), (3, 2), (9, 2), (3, 2)]):
        S = pf.minimalize_generators(gens)
        assert pf.minimalize_generators(tuple(gens)) == S
        assert pf.minimalize_generators([list(g) for g in gens]) == S
        assert pf.minimalize_generators(gens[::-1]).generators == tuple(
            g for g in dict.fromkeys(gens[::-1]) if g in S.generators
        )


def leave_one_out_atoms(gens) -> tuple:
    """The generators of the distinct nonzero gens that do not factor over
    the others, one unstepped search per generator."""
    return tuple(g for i, g in enumerate(gens) if not unstepped_factor_tuples(gens[:i] + gens[i + 1 :], g, 1))


def test_atoms_match_leave_one_out():
    # g is an atom iff it has one factorization over the whole set, and one
    # that lies above no other generator is an atom with no search: 2000
    # seeded sets at q = 1-3 and h up to 20, with non-atoms, generators of
    # equal degree and single generators
    rng = random.Random(97)
    seen = Counter()
    for i in range(2000):
        q = i % 3 + 1
        h = 1 if i % 20 == 0 else rng.randint(2, 12 if q == 1 else 20)
        gens = set()
        while len(gens) < h:
            g = tuple(rng.randint(0 if q > 1 else 1, (40, 9, 5)[q - 1]) for _ in range(q))
            if any(g):
                gens.add(g)
        gens = tuple(sorted(gens, key=lambda _: rng.random()))
        atoms = leave_one_out_atoms(gens)
        assert pf.minimalize_generators(gens, q).generators == atoms, gens
        seen["non-atoms"] += len(atoms) < h
        seen["equal degree"] += len({sum(g) for g in gens}) < h
        seen["single"] += h == 1
    assert min(seen.values()) >= 100, seen


def test_atoms_share_one_plan_with_the_semigroup():
    # the atom tests, a membership test and a capped count on a fresh minimal
    # tuple all search on one plan: one miss of the plan cache, where one
    # plan per leave-one-out made six
    gens = ((11, 0), (13, 0), (0, 7), (0, 17), (5, 3))
    misses = factorization._plan.cache_info().misses
    S = pf.minimalize_generators(gens)
    assert S.generators == gens
    assert pf.contains(S, (16, 3)) and pf.count_capped(S, (26, 0), 3) == 1
    assert factorization._plan.cache_info().misses == misses + 1


def test_minimalize_rejects_bad_input():
    with pytest.raises(pf.ValidationError):
        pf.minimalize_generators([], 1)
    with pytest.raises(pf.ValidationError):
        pf.minimalize_generators([(0, 0), (1, 2)], 2)
    # a q given from outside is an int >= 1, checked as Semigroup checks it
    for q in ("1", 0, True):
        with pytest.raises(pf.ValidationError):
            pf.minimalize_generators([(2,), (3,)], q)


def test_semigroup_invariants():
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(2, ((1, 2), (1, 2)))
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(2, ((1, -2),))
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(0, ((1,),))
    with pytest.raises(pf.ValidationError, match="at least one generator"):
        pf.Semigroup(1, ())
    with pytest.raises(pf.ValidationError, match="zero vector"):
        pf.Semigroup(2, ((0, 0), (1, 2)))
    # a float, a string or a bool is no coordinate and no dimension
    for q, gens in (
        (1, ((2.9,), (3,))),
        (1, (("2",), (3,))),
        (1, ((True,), (3,))),
        (1.0, ((2,), (3,))),
        (True, ((2,), (3,))),
    ):
        with pytest.raises(pf.ValidationError):
            pf.Semigroup(q, gens)


@pytest.mark.parametrize(
    "cls, fields, args, text, bad, loose, default",
    [
        pytest.param(
            pf.OrderSpec, ("kind",), ("grevlex",), "OrderSpec(kind='grevlex')",
            [("lex",), (None,)], None, ("grlex",), id="OrderSpec",
        ),
        pytest.param(
            pf.Semigroup, ("q", "generators"), (1, ((3,), (5,))),
            "Semigroup(q=1, generators=((3,), (5,)))",
            [(1, ()), (2, ((3,), (5,))), (1, ((3,), (0,))), (1, ((3,), (3,))), (1, ((3.0,), (5,))),
             (None, ((2,), (3, 5)))],
            (1, [[3], [5]]), None, id="Semigroup",
        ),
        pytest.param(
            pf.Binomial, ("lead", "trail"), ((5, 0), (0, 3)), "Binomial(lead=(5, 0), trail=(0, 3))",
            [((1, 2), (1, 2))], None, None, id="Binomial",
        ),
        pytest.param(
            pf.GluingSpec, ("d", "gamma"), (2, (15,)), "GluingSpec(d=2, gamma=(15,))",
            [(1, (15,)), (True, (15,)), (2.0, (15,)), (2, (0,)), (2, (4, 6)), (2, (-1,))],
            (2, [15]), None, id="GluingSpec",
        ),
        pytest.param(
            pf.FrobeniusResult, ("point",), ((7,),), "FrobeniusResult(7,)",
            [], None, (None,), id="FrobeniusResult",
        ),
        pytest.param(
            pf.OracleReport, ("result", "scanned_bound", "certificate"), (pf.INFINITE, 22, "c"),
            "OracleReport(result=FrobeniusResult(infinite), scanned_bound=22, certificate='c')",
            [], None, None, id="OracleReport",
        ),
    ],
)
def test_domain_type_contract(cls, fields, args, text, bad, loose, default):
    # immutable records: built by position or keyword, equal and hashed by
    # their fields within one class, checked on construction
    a, b = cls(*args), cls(**dict(zip(fields, args)))
    assert a == b and not a != b and hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in fields) == args
    other = pf.INFINITE if cls is pf.OrderSpec else pf.OrderSpec()
    assert a != args and a != other and other != a
    assert repr(a) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(TypeError):
        cls(*args, extra=1)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    for values in bad:
        with pytest.raises(pf.ValidationError):
            cls(*values)
    if loose is not None:  # lists are stored as tuples
        assert cls(*loose) == a and hash(cls(*loose)) == hash(a)
    if default is not None:
        assert cls() == cls(*default)
    else:
        with pytest.raises(TypeError):
            cls()


def test_json_round_trip(example_S, tmp_path):
    doc = pf.semigroup_to_json(example_S, pf.OrderSpec("grevlex"))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    loaded, order = pf.load_semigroup(path)
    assert loaded == example_S
    assert order.kind == "grevlex"


def test_json_minimalizes_with_warning(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"q": 1, "generators": [[2], [3], [4]]}))
    with pytest.warns(UserWarning):
        S, _ = pf.load_semigroup(path)
    assert S.generators == ((2,), (3,))


def test_json_warning_on_every_load(tmp_path):
    # the second load of the same file reaches the cached atoms and still warns
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"q": 1, "generators": [[2], [3], [4]]}))
    for _ in range(2):
        with pytest.warns(UserWarning):
            S, _ = pf.load_semigroup(path)
        assert S.generators == ((2,), (3,))


def test_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(pf.ValidationError):
        pf.load_semigroup(path)
    with pytest.raises(pf.ValidationError, match="must be an object"):
        pf.semigroup_from_json([1, 2])
    with pytest.raises(pf.ValidationError, match="malformed semigroup JSON"):
        pf.semigroup_from_json({"q": 1})


def test_frobenius_result_json():
    assert pf.INFINITE.to_json() == "infinite"
    assert pf.FrobeniusResult.finite((21, 4)).to_json() == [21, 4]
    assert repr(pf.INFINITE) == "FrobeniusResult(infinite)"
    assert repr(pf.FrobeniusResult.finite((21, 4))) == "FrobeniusResult(21, 4)"


def test_frobenius_result_takes_ints():
    # a coordinate is an int, never truncated; a negative one is a value
    # too, F_0(N) = -1
    assert pf.FrobeniusResult.finite((-1,)).point == (-1,)
    for point in ((2.9,), (True,), ("2",)):
        with pytest.raises(pf.ValidationError):
            pf.FrobeniusResult.finite(point)
    # every built point passes the 64-bit guard, this one too
    for point in ((2**63,), (-2**64,)):
        with pytest.raises(pf.OverflowGuardError):
            pf.FrobeniusResult.finite(point)


S35 = pf.numerical(3, 5)

# calls that iterate a point or a list of generators, each given a bare int
BARE_INT_CALLS = {
    "count_capped": lambda: pf.count_capped(S35, 8, 2),
    "factorizations": lambda: pf.factorizations(S35, 8),
    "oracle_count": lambda: pf.oracle_count(S35, 8),
    "s_degree": lambda: pf.s_degree(S35, 5),
    "candidate_degrees": lambda: pf.candidate_degrees(S35, 5, 1),
    "primitive_direction": lambda: pf.primitive_direction(5),
    "normal_form": lambda: pf.normal_form(5, pf.toric_ideal_generators(S35)),
    "GluingSpec": lambda: pf.GluingSpec(2, 8),
    "minimalize_generators": lambda: pf.minimalize_generators([3, 5]),
    "Semigroup-int-generators": lambda: pf.Semigroup(1, [3, 5]),
    "Semigroup-int-list": lambda: pf.Semigroup(1, 5),
    "FrobeniusResult.finite": lambda: pf.FrobeniusResult.finite(5),
}


@pytest.mark.parametrize("name", [*BARE_INT_CALLS, "contains"])
def test_bare_int_for_a_point_is_refused(name):
    # a validation error, not a raw TypeError from iterating the int;
    # membership refuses such a point by answering False
    if name == "contains":
        assert pf.contains(S35, 5) is False
        return
    with pytest.raises(pf.ValidationError, match="must be iterable"):
        BARE_INT_CALLS[name]()


def test_package_imports_stdlib_only():
    # no runtime dependencies: every module imports the standard library or
    # its own package, nothing else
    package = Path(pf.__file__).parent
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "pfrobenius", (module.name, name)
