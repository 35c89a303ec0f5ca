from __future__ import annotations

import ast
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pfrobenius as pf
from pfrobenius.core import EQUAL, GREATER, LESS

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


def test_non_graded_order_rejected():
    with pytest.raises(pf.ValidationError):
        pf.OrderSpec("lex")


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


def test_minimalize_rejects_bad_input():
    with pytest.raises(pf.ValidationError):
        pf.minimalize_generators([], 1)
    with pytest.raises(pf.ValidationError):
        pf.minimalize_generators([(0, 0), (1, 2)], 2)


def test_semigroup_invariants():
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(2, ((1, 2), (1, 2)))
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(2, ((1, -2),))
    with pytest.raises(pf.ValidationError):
        pf.Semigroup(0, ((1,),))


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


def test_frobenius_result_json():
    assert pf.INFINITE.to_json() == "infinite"
    assert pf.FrobeniusResult.finite((21, 4)).to_json() == [21, 4]


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
