from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pfrobenius as pf
from pfrobenius.cli import parse_and_dispatch
from conftest import Q3, RANK2_Q3

BIG2D = {
    "q": 2,
    "generators": [[3, 0], [4, 0], [0, 5], [0, 6], [1, 1]],
    "order": {"kind": "grlex"},
}
NUM23 = {"q": 1, "generators": [[2], [3]], "order": {"kind": "grlex"}}
INFINITE_CASE = {"q": 2, "generators": [[0, 1], [1, 1], [2, 0], [3, 0]]}


def write(tmp_path, doc, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, args):
    """Exit status and stdout of one CLI call."""
    status = parse_and_dispatch(args)
    return status, capsys.readouterr().out


def python(*args, **kwargs):
    """A fresh interpreter that imports this package, as a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(Path(pf.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def run_json(capsys, args):
    status, out = run(capsys, args)
    return status, json.loads(out)


GOLDEN_FILES = {
    "t1": {"q": 1, "generators": [[5], [7], [11]]},
    "t2": {"q": 1, "generators": [[4], [9], [14]]},
    "t3": {"q": 1, "generators": [[6], [9], [20]]},
    "n1": {"q": 1, "generators": [[3], [4]]},
    "n2": {"q": 1, "generators": [[5], [7]]},
    "g1": {"q": 2, "generators": [[2, 0], [3, 0], [0, 3], [0, 4], [1, 2]]},
    "g2": {"q": 2, "generators": [[2, 0], [3, 0], [0, 2], [0, 3]]},
    "g3": {"q": 2, "generators": [[2, 0], [3, 0], [0, 2], [0, 3], [1, 1]]},
    "ex": BIG2D,
}
# (command, input file, options), exit status, stdout and stderr: each call's
# bytes as the CLI printed them before the fixed per-call work was cut; the
# second g1 gluing's off-axis generator (2, 4) has lambda = 3, and the first
# has F_1(S) - gamma = (-4, 14), with a negative coordinate
GOLDEN = [
    (("fp", "t1", "--p", "0", "--verify"), 0, '{"meta": {"oracle": [13], "oracle_agrees": true, "order": "grlex"}, "result": [13]}\n', ""),
    (("fp", "t1", "--p", "1", "--verify"), 0, '{"meta": {"oracle": [24], "oracle_agrees": true, "order": "grlex"}, "result": [24]}\n', ""),
    (("fp", "t1", "--p", "2", "--verify"), 0, '{"meta": {"oracle": [34], "oracle_agrees": true, "order": "grlex"}, "result": [34]}\n', ""),
    (("fp", "t2", "--p", "0", "--verify"), 0, '{"meta": {"oracle": [19], "oracle_agrees": true, "order": "grlex"}, "result": [19]}\n', ""),
    (("fp", "t2", "--p", "1", "--verify"), 0, '{"meta": {"oracle": [33], "oracle_agrees": true, "order": "grlex"}, "result": [33]}\n', ""),
    (("fp", "t2", "--p", "2", "--verify"), 0, '{"meta": {"oracle": [47], "oracle_agrees": true, "order": "grlex"}, "result": [47]}\n', ""),
    (("fp", "t3", "--p", "0", "--verify"), 0, '{"meta": {"oracle": [43], "oracle_agrees": true, "order": "grlex"}, "result": [43]}\n', ""),
    (("fp", "t3", "--p", "1", "--verify"), 0, '{"meta": {"oracle": [61], "oracle_agrees": true, "order": "grlex"}, "result": [61]}\n', ""),
    (("fp", "t3", "--p", "2", "--verify"), 0, '{"meta": {"oracle": [79], "oracle_agrees": true, "order": "grlex"}, "result": [79]}\n', ""),
    (("glue", "n1", "--d", "2", "--gamma", "15", "--p", "0", "--verify"), 0,
     '{"meta": {"bound": [25], "glued": {"generators": [[6], [8], [15]], "q": 1}, "oracle": [25]}, "result": [25]}\n', ""),
    (("glue", "n1", "--d", "2", "--gamma", "15", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [49], "glued": {"generators": [[6], [8], [15]], "q": 1}, "oracle": [49], "verdict": "equal"}, "result": [49]}\n', ""),
    (("glue", "n1", "--d", "2", "--gamma", "15", "--p", "2", "--verify"), 0,
     '{"meta": {"bound": [73], "glued": {"generators": [[6], [8], [15]], "q": 1}, "oracle": [55], "verdict": "strictly-less"}, "result": [73]}\n', ""),
    (("glue", "n2", "--d", "3", "--gamma", "19", "--p", "0", "--verify"), 0,
     '{"meta": {"bound": [107], "glued": {"generators": [[15], [21], [19]], "q": 1}, "oracle": [107]}, "result": [107]}\n', ""),
    (("glue", "n2", "--d", "3", "--gamma", "19", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [212], "glued": {"generators": [[15], [21], [19]], "q": 1}, "oracle": [149], "verdict": "strictly-less"}, "result": [212]}\n', ""),
    (("glue", "n2", "--d", "3", "--gamma", "19", "--p", "2", "--verify"), 0,
     '{"meta": {"bound": [317], "glued": {"generators": [[15], [21], [19]], "q": 1}, "oracle": [191], "verdict": "strictly-less"}, "result": [317]}\n', ""),
    (("glue", "g1", "--d", "3", "--gamma", "5,5", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [13, 67], "glued": {"generators": [[6, 0], [9, 0], [0, 9], [0, 12], [3, 6], [5, 5]], "q": 2}, '
     '"oracle": [13, 67], "verdict": "equal"}, "result": [13, 67]}\n', ""),
    (("glue", "g1", "--d", "3", "--gamma", "2,4", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [7, 65], "glued": {"generators": [[6, 0], [9, 0], [0, 9], [0, 12], [3, 6], [2, 4]], "q": 2}, '
     '"oracle": [7, 65], "verdict": "equal"}, "result": [7, 65]}\n', ""),
    (("glue", "g2", "--d", "2", "--gamma", "5,5", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [19, 19], "glued": {"generators": [[4, 0], [6, 0], [0, 4], [0, 6], [5, 5]], "q": 2}, '
     '"oracle": [19, 13], "verdict": "strictly-less"}, "result": [19, 19]}\n', ""),
    (("glue", "g3", "--d", "3", "--gamma", "4,2", "--p", "1", "--verify"), 0,
     '{"meta": {"bound": [32, 7], "glued": {"generators": [[6, 0], [9, 0], [0, 6], [0, 9], [3, 3], [4, 2]], "q": 2}, '
     '"oracle": [32, 7], "verdict": "equal"}, "result": [32, 7]}\n', ""),
    (("oracle", "ex", "--p", "1"), 0,
     '{"meta": {"certificate": "all 1265 points of the box [0, (22, 54)] (lambda = (4, 3, 6, 5, 6), p = 1) counted exactly", '
     '"scanned_bound": 76}, "result": [2, 51]}\n', ""),
    (("fp", "t1", "--p", "1", "--verify", "--format", "text"), 0,
     "result: [24]\nmeta.order: grlex\nmeta.oracle: [24]\nmeta.oracle_agrees: True\n", ""),
    (("fp", "t1", "--verify"), 2, "", "pfrobenius fp: error: missing --p; see pfrobenius fp --help\n"),
    (("glue", "n1", "--d", "2", "--gamma", "5", "--verify"), 4,
     '{"error": {"code": "VALIDATION", "message": "gamma = (5,) is not an element of S"}}\n', ""),
]


def test_golden_outputs(capsys, tmp_path):
    # every call prints these bytes and exits with this status, in one
    # process, so later calls on a file meet the caches of earlier ones
    paths = {name: write(tmp_path, doc, f"{name}.json") for name, doc in GOLDEN_FILES.items()}
    got = []
    for (cmd, name, *options), *_ in GOLDEN:
        status = parse_and_dispatch([cmd, "--input", paths[name], *options])
        captured = capsys.readouterr()
        got.append(((cmd, name, *options), status, captured.out, captured.err))
    assert got == GOLDEN


def test_check_finite(capsys, tmp_path):
    status, out = run_json(capsys, ["check-finite", "--input", write(tmp_path, BIG2D)])
    assert status == 0
    assert out["result"] is True
    assert out["meta"]["extremal_rays"] == [[0, 1], [1, 0]]


def test_check_finite_negative(capsys, tmp_path):
    _, out = run_json(
        capsys, ["check-finite", "--input", write(tmp_path, INFINITE_CASE)]
    )
    assert out["result"] is False


def test_groebner(capsys, tmp_path):
    status, out = run_json(capsys, ["groebner", "--input", write(tmp_path, NUM23)])
    assert status == 0
    assert out["result"] == [{"lead": [3, 0], "trail": [0, 2], "pretty": "x1^3 - x2^2"}]
    assert out["meta"] == {"size": 1, "order": "grlex"}


def test_factorize(capsys, tmp_path):
    _, out = run_json(
        capsys,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "12"],
    )
    assert out["meta"]["count"] == 3
    assert sorted(map(tuple, out["result"])) == [(0, 4), (3, 2), (6, 0)]


@pytest.mark.parametrize(
    "gens, args, seconds, check",
    [
        # the 21 factorizations of one degree, by the fiber walk over the
        # toric basis; listing them all by the capped search ran past 20 s
        pytest.param(
            [[6, 11, 6], [6, 1, 9], [10, 3, 12], [10, 4, 5], [1, 4, 5]],
            ["factorize", "--element", "2790,837,3348"],
            30,
            lambda out: out["meta"]["count"] == 21,
            id="factorize-fiber-walk",
        ),
        # F_10 of <1001, 1234, 1777> by the p-Apery walk; the scan of the box
        # prod [0, p*lambda_i) took about 4 s
        pytest.param(
            [[1001], [1234], [1777]],
            ["fp", "--p", "10"],
            30,
            lambda out: out["result"] == [237757],
            id="fp-numerical",
        ),
        # the README's 22-digit count: the oracle's line of <10, ..., 19> up
        # to 20000 needs 16-byte fields, and the JSON holds the exact int
        pytest.param(
            [[c] for c in range(10, 20)],
            ["oracle", "--element", "20000"],
            60,
            lambda out: type(out["result"]) is int and out["result"] == 4348220030937770017981,
            id="oracle-wide-count",
        ),
    ],
)
def test_large_answers(capsys, tmp_path, gens, args, seconds, check):
    path = write(tmp_path, {"q": len(gens[0]), "generators": gens})
    t0 = time.perf_counter()
    status, out = run_json(capsys, [args[0], "--input", path, *args[1:]])
    assert time.perf_counter() - t0 < seconds
    assert status == 0 and check(out), out


def test_factorize_bad_element(capsys, tmp_path):
    status, out = run_json(
        capsys,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "1,2"],
    )
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"
    # a coordinate that is no integer
    status, out = run_json(
        capsys,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "1,x"],
    )
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"


def test_factorize_overflow(capsys, tmp_path):
    doc = {"q": 2, "generators": [[1, 0], [0, 1]]}
    status, out = run_json(
        capsys,
        ["factorize", "--input", write(tmp_path, doc), "--element", f"0,{2**70}"],
    )
    assert status == 3
    assert out["error"]["code"] == "OVERFLOW"


def test_fp_general(capsys, tmp_path):
    status, out = run_json(
        capsys, ["fp", "--input", write(tmp_path, NUM23), "--p", "1"]
    )
    assert status == 0
    assert out["result"] == [7]
    assert out["meta"]["order"] == "grlex"


def test_fp_overflow(capsys, tmp_path):
    status, out = run_json(
        capsys, ["fp", "--input", write(tmp_path, BIG2D), "--p", str(2**62)]
    )
    assert status == 3
    assert out["error"]["code"] == "OVERFLOW"


def test_fp_infinite_encoding(capsys, tmp_path):
    status, out = run_json(
        capsys, ["fp", "--input", write(tmp_path, INFINITE_CASE), "--p", "1"]
    )
    assert status == 0
    assert out["result"] == "infinite"


def test_fp_verify(capsys, tmp_path):
    _, out = run_json(
        capsys,
        ["fp", "--input", write(tmp_path, NUM23), "--p", "2", "--verify"],
    )
    assert out["result"] == [13]
    assert out["meta"]["oracle"] == [13]
    assert out["meta"]["oracle_agrees"] is True


@pytest.mark.parametrize(
    "doc, p",
    [
        pytest.param({"q": 2, "generators": [[2, 0], [3, 0], [0, 2], [1, 1]]}, "1", id="unpaired-ray"),
        pytest.param({"q": 1, "generators": [[4], [6]]}, "0", id="shared-gcd"),
    ],
)
def test_fp_verify_infinite(capsys, tmp_path, doc, p):
    # an infinite F_p is a result under --verify too, and the oracle agrees
    status, out = run_json(capsys, ["fp", "--input", write(tmp_path, doc), "--p", p, "--verify"])
    assert status == 0
    assert out["result"] == out["meta"]["oracle"] == "infinite"
    assert out["meta"]["oracle_agrees"] is True


def test_fp_p0_unsupported_in_dim2(capsys, tmp_path):
    status, out = run_json(
        capsys, ["fp", "--input", write(tmp_path, BIG2D), "--p", "0"]
    )
    assert status == 2
    assert out["error"]["code"] == "UNSUPPORTED"


def test_oracle_p0_unsupported_in_dim2(capsys, tmp_path):
    # the oracle refuses p = 0 beyond q = 1 as fp does: same code, same words
    path = write(tmp_path, BIG2D)
    _, fp_out = run_json(capsys, ["fp", "--input", path, "--p", "0"])
    status, out = run_json(capsys, ["oracle", "--input", path, "--p", "0"])
    assert status == 2
    assert out == fp_out


def test_order_override(capsys, tmp_path):
    _, out = run_json(
        capsys,
        [
            "fp",
            "--input",
            write(tmp_path, NUM23),
            "--p",
            "1",
            "--order",
            "grevlex",
        ],
    )
    assert out["meta"]["order"] == "grevlex"
    assert out["result"] == [7]


@pytest.mark.parametrize(
    "doc, args, status",
    [
        pytest.param(NUM23, ["check-finite"], 0, id="check-finite"),
        pytest.param(NUM23, ["groebner"], 0, id="groebner"),
        pytest.param(NUM23, ["factorize", "--element", "6"], 0, id="factorize"),
        pytest.param(NUM23, ["fp", "--p", "1", "--verify"], 0, id="fp"),
        pytest.param(NUM23, ["indispensable"], 0, id="indispensable"),
        pytest.param(NUM23, ["nabla", "--element", "6"], 0, id="nabla"),
        pytest.param(NUM23, ["glue", "--d", "3", "--gamma", "5", "--verify"], 0, id="glue"),
        pytest.param(NUM23, ["oracle", "--p", "1"], 0, id="oracle"),
        pytest.param(NUM23, ["oracle"], 4, id="oracle-without-p"),
        pytest.param(NUM23, ["factorize", "--element", "6,1"], 4, id="factorize-bad-element"),
        pytest.param(BIG2D, ["fp", "--p", "0"], 2, id="fp-p0-in-dim2"),
        pytest.param({"q": 1, "generators": [[2.9], [3]]}, ["nabla", "--element", "6"], 4, id="unloadable"),
    ],
)
def test_each_command_loads_its_input_once(capsys, tmp_path, monkeypatch, doc, args, status):
    # the dispatcher loads --input once, inside its error mapping, whether the
    # command succeeds, fails, or the file itself is refused
    loads = []

    def load(path):
        loads.append(path)
        return pf.core.load_semigroup(path)

    monkeypatch.setattr(pf.cli, "load_semigroup", load)
    path = write(tmp_path, doc)
    assert run_json(capsys, [args[0], "--input", path, *args[1:]])[0] == status
    assert loads == [path]


# the module each library call is reached through from the CLI
LIBRARY_MODULE = {"reduced_basis": "groebner", "fp_general": "frobenius", "oracle_fp": "oracle",
                  "fp_glued_bound": "gluing", "gluing_equality": "gluing"}


@pytest.mark.parametrize(
    "args, calls",
    [
        pytest.param(["groebner"], ["reduced_basis"], id="groebner"),
        pytest.param(["factorize", "--element", "9,6"], [], id="factorize"),
        pytest.param(["fp", "--p", "1", "--verify"], ["fp_general", "oracle_fp"], id="fp"),
        pytest.param(["glue", "--d", "3", "--gamma", "5,5", "--verify"],
                     ["fp_glued_bound", "gluing_equality", "oracle_fp"], id="glue"),
        pytest.param(["oracle", "--p", "1"], ["oracle_fp"], id="oracle"),
    ],
)
def test_order_override_reaches_every_command(capsys, tmp_path, monkeypatch, args, calls):
    # --order grevlex on a grlex file reaches the command, and every library
    # call it makes with an order (factorize only sorts by it)
    seen = []

    def spy(name, fn):
        def call(*a, **kw):
            seen.extend((name, x.kind) for x in (*a, *kw.values()) if isinstance(x, pf.OrderSpec))
            return fn(*a, **kw)
        return call

    cmd = args[0]
    fn, table = pf.cli._COMMANDS[cmd]
    monkeypatch.setitem(pf.cli._COMMANDS, cmd, (spy(cmd, fn), table))
    for name in calls:
        module = getattr(pf, LIBRARY_MODULE[name])
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    status, _ = run_json(capsys, [cmd, "--input", write(tmp_path, BIG2D), *args[1:], "--order", "grevlex"])
    assert status == 0
    assert seen == [(cmd, "grevlex")] + [(name, "grevlex") for name in calls]


def test_indispensable(capsys, tmp_path):
    _, out = run_json(capsys, ["indispensable", "--input", write(tmp_path, NUM23)])
    assert out["meta"]["count"] == 1
    assert out["result"][0]["pretty"] == "x1^3 - x2^2"


def test_nabla(capsys, tmp_path):
    _, out = run_json(
        capsys,
        ["nabla", "--input", write(tmp_path, NUM23), "--element", "6"],
    )
    assert out["meta"]["components"] == 2
    assert out["result"] == [[[3, 0]], [[0, 2]]]


def test_glue(capsys, tmp_path):
    doc = {"q": 1, "generators": [[3], [4]], "order": {"kind": "grlex"}}
    _, out = run_json(
        capsys,
        [
            "glue",
            "--input",
            write(tmp_path, doc),
            "--d",
            "2",
            "--gamma",
            "15",
            "--p",
            "1",
            "--verify",
        ],
    )
    assert out["result"] == [49]
    assert out["meta"]["verdict"] == "equal"
    assert out["meta"]["oracle"] == [49]
    assert out["meta"]["glued"]["generators"] == [[6], [8], [15]]


def test_glue_validates_once(capsys, tmp_path, monkeypatch):
    # glue, fp_glued_bound and gluing_equality each validate the gluing, and
    # a glue command calls all three: the membership search for gamma runs
    # once, and the equality criterion asks once for F_1(S) - gamma = 17 - gamma
    calls = []

    def contains(S, n):
        calls.append(n)
        return pf.factorization.contains(S, n)

    monkeypatch.setattr(pf.gluing, "contains", contains)
    pf.validate_gluing.cache_clear()
    path = write(tmp_path, {"q": 1, "generators": [[3], [4]]})
    for gamma in ("15", "7"):
        before = len(calls)
        _, out = run_json(
            capsys, ["glue", "--input", path, "--d", "2", "--gamma", gamma, "--p", "1", "--verify"]
        )
        assert {"verdict", "oracle"} <= out["meta"].keys()
        assert calls[before:] == [(int(gamma),), (17 - int(gamma),)]


def test_glue_invalid_gamma(capsys, tmp_path):
    doc = {"q": 1, "generators": [[3], [4]]}
    status, _ = run(
        capsys,
        ["glue", "--input", write(tmp_path, doc), "--d", "2", "--gamma", "5"],
    )
    assert status == 4


def test_oracle_fp(capsys, tmp_path):
    _, out = run_json(
        capsys, ["oracle", "--input", write(tmp_path, NUM23), "--p", "1"]
    )
    assert out["result"] == [7]
    assert out["meta"]["scanned_bound"] >= 7
    assert "certificate" in out["meta"]


def test_oracle_element(capsys, tmp_path):
    _, out = run_json(
        capsys, ["oracle", "--input", write(tmp_path, NUM23), "--element", "12"]
    )
    assert out["result"] == 3


def test_oracle_element_counts_on_its_box(capsys, tmp_path):
    # one grid over [0, n] (226 981 points), well inside the budget
    gens = [[3, 0, 0], [5, 0, 0], [0, 3, 0], [0, 4, 0], [0, 0, 2], [0, 0, 5], [1, 2, 1]]
    doc = {"q": 3, "generators": gens}
    status, out = run_json(
        capsys,
        ["oracle", "--input", write(tmp_path, doc), "--element", "60,60,60", "--budget", "1"],
    )
    assert status == 0
    assert out["result"] == 1806
    # (1,2,1) is the one generator off the axes: fix its multiplicity k and
    # the rest splits into three numerical semigroups, one per coordinate
    def count(a, b, m):
        return pf.count_capped(pf.numerical(a, b), (m,), m + 1)

    assert sum(
        count(3, 5, 60 - k) * count(3, 4, 60 - 2 * k) * count(2, 5, 60 - k)
        for k in range(31)
    ) == 1806


def test_oracle_f0_overflow(capsys, tmp_path):
    # the Schur bound (a_1 - 1)(a_h - 1) - 1 is about 2^80: refused before
    # the grid over [0, bound] is sized
    doc = {"q": 1, "generators": [[2**40 + 1], [2**40 + 3]]}
    status, out = run_json(capsys, ["oracle", "--input", write(tmp_path, doc), "--p", "0"])
    assert status == 3
    assert out["error"]["code"] == "OVERFLOW"


def test_oracle_grid_refused_by_allocator(capsys, tmp_path):
    # the packed line over [0, 2^62] needs 8 * (2^62 + 1) bytes: its mask is
    # refused (an int that large overflows) before any memory is touched,
    # and reported as the budget's error
    status, out = run_json(
        capsys,
        ["oracle", "--input", write(tmp_path, {"q": 1, "generators": [[3], [5]]}),
         "--element", str(2**62), "--budget", "1"],
    )
    assert status == 5
    assert out["error"]["code"] == "ORACLE_BUDGET"


def test_fp_numerical_tables_refused_by_allocator(capsys, tmp_path):
    # the p-Apery tables over 2^61 + 1 residues need 8 * (2^61 + 1) bytes of
    # list: refused before any memory is touched, and named as unsupported
    doc = {"q": 1, "generators": [[2**61 + 1], [2**61 + 3]]}
    status, out = run_json(capsys, ["fp", "--input", write(tmp_path, doc), "--p", "0"])
    assert status == 2
    assert out["error"]["code"] == "UNSUPPORTED"
    assert str(2**61 + 1) in out["error"]["message"]


def test_oracle_needs_p_or_element(capsys, tmp_path):
    status, _ = run(capsys, ["oracle", "--input", write(tmp_path, NUM23)])
    assert status == 4


def test_oracle_budget_exhausted(capsys, tmp_path):
    status, out = run_json(
        capsys,
        [
            "oracle",
            "--input",
            write(tmp_path, BIG2D),
            "--p",
            "2",
            "--budget",
            "0.0",
        ],
    )
    assert status == 5
    assert out["error"]["code"] == "ORACLE_BUDGET"


@pytest.mark.parametrize(
    "args",
    [["oracle", "--p", "1"], ["oracle", "--element", "7"], ["fp", "--p", "1", "--verify"], ["fp", "--p", "1"],
     ["glue", "--d", "2", "--gamma", "7"]],
    ids=["oracle-p", "oracle-element", "fp-verify", "fp", "glue"],
)
def test_oracle_budget_nan_is_validation(capsys, tmp_path, args):
    # a NaN deadline never passes, so it would run with no limit; the CLI
    # refuses it on every command that takes --budget, oracle or not
    cmd, *rest = args
    status, out = run_json(capsys, [cmd, "--input", write(tmp_path, NUM23), *rest, "--budget", "nan"])
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"


def test_text_format(capsys, tmp_path):
    _, out = run(
        capsys,
        [
            "fp",
            "--input",
            write(tmp_path, NUM23),
            "--p",
            "1",
            "--format",
            "text",
        ],
    )
    assert "result: [7]" in out
    assert "meta.order: grlex" in out


def test_minimalization_warning_surfaces(capsys, tmp_path):
    doc = {"q": 1, "generators": [[2], [3], [4]]}
    with pytest.warns(UserWarning):
        _, out = run_json(capsys, ["fp", "--input", write(tmp_path, doc), "--p", "1"])
    assert out["result"] == [7]


def test_parse_and_dispatch_exit_codes(tmp_path, capsys):
    path = write(tmp_path, NUM23)
    assert parse_and_dispatch(["fp", "--input", path, "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == [7]
    assert parse_and_dispatch(["fp", "--input", path, "--p", "-1"]) == 4


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["fp", "--p", "1"], id="missing-input"),
        pytest.param(["fp", "--input", "{path}"], id="missing-p"),
        pytest.param(["fp", "--input", "{path}", "--p"], id="option-without-value"),
        pytest.param([], id="no-command"),
        pytest.param(["frobenius", "--input", "{path}"], id="unknown-command"),
        pytest.param(["fp", "--input", "{path}", "--p", "1", "--order", "lex"], id="bad-order"),
        pytest.param(["fp", "--input", "{path}", "--p", "1", "--format", "xml"], id="bad-format"),
        pytest.param(["fp", "--input", "{path}", "--p", "one"], id="non-integer-p"),
        pytest.param(["fp", "--input", "{missing}", "--p", "1"], id="nonexistent-input"),
        pytest.param(["fp", "--inp", "{path}", "--p", "1"], id="abbreviated-option"),
        pytest.param(["check-finite", "--input", "{path}", "--order", "grlex"], id="option-of-other-command"),
        pytest.param(["fp", "--input", "{path}", "--p", "1", "-h"], id="short-help"),
        pytest.param(["fp", "--input", "{path}", "--p", "1", "--verify=1"], id="switch-with-value"),
        pytest.param(["fp", "--input", "{path}", "--p", "1", "extra"], id="stray-positional"),
        pytest.param(["fp", "--input", "{path}", "--p="], id="empty-value"),
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, args):
    # usage errors go to stderr; stdout stays empty
    fill = {"path": write(tmp_path, NUM23), "missing": str(tmp_path / "missing.json")}
    status, out = run(capsys, [a.format(**fill) for a in args])
    assert status == 2
    assert out == ""


# each command's own options; every command also takes --input, --format and --help
COMMAND_OPTIONS = {
    "check-finite": [],
    "groebner": ["--order"],
    "factorize": ["--order", "--element"],
    "fp": ["--order", "--p", "--verify", "--budget"],
    "indispensable": [],
    "nabla": ["--element"],
    "glue": ["--order", "--d", "--gamma", "--p", "--verify", "--budget"],
    "oracle": ["--order", "--p", "--element", "--budget"],
}


@pytest.mark.parametrize(
    "args",
    [["--help"], ["fp", "--help"], ["glue", "--help"]]
    + [[cmd, "--help"] for cmd in COMMAND_OPTIONS if cmd not in ("fp", "glue")],
)
def test_help_exits_0(capsys, args):
    status, out = run(capsys, args)
    assert status == 0
    assert "--input" in out or "glue" in out
    # the top-level help names every command, a command's help every option
    if args == ["--help"]:
        names = list(COMMAND_OPTIONS)
    else:
        names = ["--input", "--format", *COMMAND_OPTIONS[args[0]], "--help"]
    firsts = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert [n for n in firsts if n in names] == names


def test_equals_form_matches_spaced_form(capsys, tmp_path):
    path = write(tmp_path, NUM23)
    for spaced, joined in [
        (["fp", "--input", path, "--p", "1"], ["fp", f"--input={path}", "--p=1"]),
        (["glue", "--input", path, "--d", "2", "--gamma", "15", "--verify"],
         ["glue", f"--input={path}", "--d=2", "--gamma=15", "--verify"]),
    ]:
        want = run(capsys, spaced)
        assert want[0] == 0
        assert run(capsys, joined) == want


def test_closed_stdout_exits_1_quietly(tmp_path):
    # the read end is closed before the child starts, so its first write
    # to stdout fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "pfrobenius.cli", "fp", "--input", write(tmp_path, NUM23), "--p", "1",
                      stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_startup_imports_no_argparse_dataclasses_inspect():
    # each cost milliseconds at every start of the console script, and so
    # does compiling the Groebner engine, which no q <= 2 run needs
    code = ("import sys, pfrobenius, pfrobenius.cli; "
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'pfrobenius.groebner'} & set(sys.modules)))")
    proc = python("-S", "-c", code, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


# each CLI call in argv order, in one fresh interpreter: its exit status and
# whether the Groebner engine is loaded after it
ENGINE_PROBE = """
import contextlib, io, json, sys
from pfrobenius.cli import parse_and_dispatch
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = parse_and_dispatch(argv)
    seen.append([status, "pfrobenius.groebner" in sys.modules])
print(json.dumps(seen))
"""


def test_engine_loads_only_for_the_commands_that_use_it(tmp_path):
    # no command on a semigroup of rank <= 2 needs a Groebner basis; the q = 3
    # semigroup of rank 3 and the factorize and groebner commands load the
    # engine on first call
    num, big, inf = (write(tmp_path, doc, f"{name}.json") for name, doc in
                     (("num", NUM23), ("big", BIG2D), ("inf", INFINITE_CASE)))
    q3, plane = (write(tmp_path, {"q": 3, "generators": [list(g) for g in gens]}, f"{name}.json")
                 for name, gens in (("q3", Q3), ("plane", RANK2_Q3)))

    def probe(*calls):
        proc = python("-c", ENGINE_PROBE, json.dumps(calls), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    engine_free = [
        ["fp", "--input", num, "--p", "1", "--verify"],
        ["fp", "--input", big, "--p", "2", "--verify"],
        ["fp", "--input", plane, "--p", "2", "--verify"],
        ["glue", "--input", num, "--d", "2", "--gamma", "5", "--verify"],
        ["glue", "--input", big, "--d", "3", "--gamma", "5,5", "--verify"],
        ["check-finite", "--input", big],
        ["check-finite", "--input", inf],
        ["oracle", "--input", big, "--p", "1"],
        ["oracle", "--input", big, "--element", "9,6"],
    ]
    assert probe(*engine_free) == [[0, False]] * len(engine_free)
    for argv in (["factorize", "--input", q3, "--element", "12,1,1"], ["groebner", "--input", q3],
                 ["fp", "--input", q3, "--p", "1"]):
        assert probe(argv) == [[0, True]], argv


ENGINE_NAMES = ("Binomial", "buchberger_reduced", "normal_form", "reduced_basis", "toric_ideal_generators")


def test_engine_reexports_resolve_on_first_use(monkeypatch):
    # the package names the engine and five of its objects without loading
    # it; each resolves on first use to the engine's own object, however the
    # engine was first imported, and stays so when the engine is patched
    code = """
import sys
import pfrobenius as pf
assert "pfrobenius.groebner" not in sys.modules
assert pf.groebner is sys.modules["pfrobenius.groebner"]
from pfrobenius import Binomial, toric_ideal_generators
assert (Binomial, toric_ideal_generators) == (pf.groebner.Binomial, pf.groebner.toric_ideal_generators)
"""
    assert python("-c", code).returncode == 0
    code = """
import pfrobenius.groebner as engine
original, engine.reduced_basis = engine.reduced_basis, None
import pfrobenius as pf
assert pf.reduced_basis is original
"""
    assert python("-c", code).returncode == 0
    for name in ENGINE_NAMES:
        assert getattr(pf, name) is getattr(pf.groebner, name), name
    original = pf.reduced_basis
    monkeypatch.setattr(pf.groebner, "reduced_basis", lambda S, order: ())
    assert pf.reduced_basis is original
    assert not hasattr(pf, "no_such_name")
    assert pf.__all__ == [
        "Binomial", "FrobeniusResult", "GluingSpec", "GluingVerdict", "INFINITE", "OracleBudgetError",
        "OracleReport", "OrderSpec", "OverflowGuardError", "Semigroup", "UnsupportedError", "ValidationError",
        "buchberger_reduced", "candidate_degrees", "compare_graded", "cone", "contains", "core", "count_capped",
        "extremal_ray_directions", "f0_numerical", "factorization", "factorizations", "fp_general",
        "fp_glued_bound", "frobenius", "glue", "gluing", "gluing_equality", "groebner",
        "indispensable_binomials", "is_fp_finite", "lambda_bounds", "load_semigroup", "minimalize_generators",
        "nabla_components", "normal_form", "numerical", "oracle", "oracle_count", "oracle_fp",
        "primitive_direction", "reduced_basis", "s_degree", "semigroup_from_json", "semigroup_to_json",
        "toric_ideal_generators", "validate_gluing", "verify_minimal_ideal_basis",
    ]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["glue", "--d", "2", "--gamma", "-3,4"], id="glue-gamma"),
        pytest.param(["glue", "--d", "2", "--gamma", "-3"], id="glue-gamma-number"),
        pytest.param(["factorize", "--element", "-3"], id="factorize-element"),
        pytest.param(["nabla", "--element", "-3,4"], id="nabla-element"),
        pytest.param(["oracle", "--element", "-3"], id="oracle-element"),
    ],
)
def test_leading_dash_values_are_values(capsys, tmp_path, args):
    # a value that starts with "-" is the option's value, not an option: the
    # coordinate check rejects it (test_parse_and_dispatch_exit_codes: --p -1)
    status, out = run_json(capsys, [args[0], "--input", write(tmp_path, NUM23)] + args[1:])
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"


def test_last_option_value_wins(capsys, tmp_path):
    path = write(tmp_path, NUM23)
    _, out = run_json(capsys, ["fp", "--input", path, "--p", "2", "--p", "1", "--verify"])
    assert out["result"] == [7]
    assert out["meta"]["oracle_agrees"] is True


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(None, id="directory"),
        pytest.param(b'{"q": 1, "generators": [[2], [3]], "x": "\xff"}', id="not-utf8"),
        pytest.param(b'{"q": 1, "generators": [[2], [3]], "order": {"foo": 1}}', id="order-key"),
        pytest.param(b'{"q": 1, "generators": [[2], [3]], "order": "grlex"}', id="order-string"),
        # a coordinate or a dimension that is not an int is refused, not truncated
        pytest.param(b'{"q": 1, "generators": [[2.9], [3]]}', id="float-generator"),
        pytest.param(b'{"q": 1.7, "generators": [[2], [3]]}', id="float-q"),
        pytest.param(b'{"q": 1, "generators": [["2"], [3]]}', id="string-generator"),
        pytest.param(b'{"q": 1, "generators": [[true], [3]]}', id="bool-generator"),
        pytest.param(b'{"q": 1, "generators": [[Infinity], [3]]}', id="infinite-generator"),
        # json.load raises RecursionError and ValueError on these two
        pytest.param(b'{"q": 1, "generators": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="nested-too-deep"),
        pytest.param(b'{"q": 1, "generators": [[' + b"1" * 5000 + b'], [3]]}', id="int-too-long"),
        # json.loads would decode both from bytes; the loader reads UTF-8 text only
        pytest.param(b'\xef\xbb\xbf{"q": 1, "generators": [[2], [3]]}', id="utf8-bom"),
        pytest.param('{"q": 1, "generators": [[2], [3]]}'.encode("utf-16"), id="utf16"),
    ],
)
def test_bad_input_file_is_validation(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    status, out = run_json(capsys, ["fp", "--input", str(path), "--p", "1"])
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"


def test_unreadable_input_file_is_validation(capsys, tmp_path, monkeypatch):
    # root reads any file, so the loader's open fails as it would for a file
    # its user may not read
    path = write(tmp_path, NUM23)

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(pf.core, "open", refuse, raising=False)
    status, out = run_json(capsys, ["fp", "--input", path, "--p", "1"])
    assert status == 4
    assert out["error"]["code"] == "VALIDATION"
