from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import pfrobenius as pf
from pfrobenius.cli import main

BIG2D = {
    "q": 2,
    "generators": [[3, 0], [4, 0], [0, 5], [0, 6], [1, 1]],
    "order": {"kind": "grlex"},
}
NUM23 = {"q": 1, "generators": [[2], [3]], "order": {"kind": "grlex"}}
INFINITE_CASE = {"q": 2, "generators": [[0, 1], [1, 1], [2, 0], [3, 0]]}


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, doc, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(runner, args):
    res = runner.invoke(main, args, catch_exceptions=False)
    return res, json.loads(res.output)


def test_check_finite(runner, tmp_path):
    res, out = run_json(runner, ["check-finite", "--input", write(tmp_path, BIG2D)])
    assert res.exit_code == 0
    assert out["result"] is True
    assert out["meta"]["extremal_rays"] == [[0, 1], [1, 0]]


def test_check_finite_negative(runner, tmp_path):
    _, out = run_json(
        runner, ["check-finite", "--input", write(tmp_path, INFINITE_CASE)]
    )
    assert out["result"] is False


def test_groebner(runner, tmp_path):
    res, out = run_json(runner, ["groebner", "--input", write(tmp_path, NUM23)])
    assert res.exit_code == 0
    assert out["result"] == [{"lead": [3, 0], "trail": [0, 2], "pretty": "x1^3 - x2^2"}]
    assert out["meta"] == {"size": 1, "order": "grlex"}


def test_factorize(runner, tmp_path):
    _, out = run_json(
        runner,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "12"],
    )
    assert out["meta"]["count"] == 3
    assert sorted(map(tuple, out["result"])) == [(0, 4), (3, 2), (6, 0)]


def test_factorize_bad_element(runner, tmp_path):
    res = runner.invoke(
        main,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "1,2"],
    )
    assert res.exit_code == 4
    assert json.loads(res.output)["error"]["code"] == "VALIDATION"


def test_factorize_overflow(runner, tmp_path):
    doc = {"q": 2, "generators": [[1, 0], [0, 1]]}
    res = runner.invoke(
        main,
        ["factorize", "--input", write(tmp_path, doc), "--element", f"0,{2**70}"],
    )
    assert res.exit_code == 3
    assert json.loads(res.output)["error"]["code"] == "OVERFLOW"


def test_fp_general(runner, tmp_path):
    res, out = run_json(
        runner, ["fp", "--input", write(tmp_path, NUM23), "--p", "1"]
    )
    assert res.exit_code == 0
    assert out["result"] == [7]
    assert out["meta"]["order"] == "grlex"


def test_fp_overflow(runner, tmp_path):
    res = runner.invoke(main, ["fp", "--input", write(tmp_path, BIG2D), "--p", str(2**62)])
    assert res.exit_code == 3
    assert json.loads(res.output)["error"]["code"] == "OVERFLOW"


def test_fp_infinite_encoding(runner, tmp_path):
    res, out = run_json(
        runner, ["fp", "--input", write(tmp_path, INFINITE_CASE), "--p", "1"]
    )
    assert res.exit_code == 0
    assert out["result"] == "infinite"


def test_fp_verify(runner, tmp_path):
    _, out = run_json(
        runner,
        ["fp", "--input", write(tmp_path, NUM23), "--p", "2", "--verify"],
    )
    assert out["result"] == [13]
    assert out["meta"]["oracle"] == [13]
    assert out["meta"]["oracle_agrees"] is True


def test_fp_p0_unsupported_in_dim2(runner, tmp_path):
    res = runner.invoke(
        main, ["fp", "--input", write(tmp_path, BIG2D), "--p", "0"]
    )
    assert res.exit_code == 2
    assert json.loads(res.output)["error"]["code"] == "UNSUPPORTED"


def test_order_override(runner, tmp_path):
    _, out = run_json(
        runner,
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


def test_indispensable(runner, tmp_path):
    _, out = run_json(runner, ["indispensable", "--input", write(tmp_path, NUM23)])
    assert out["meta"]["count"] == 1
    assert out["result"][0]["pretty"] == "x1^3 - x2^2"


def test_nabla(runner, tmp_path):
    _, out = run_json(
        runner,
        ["nabla", "--input", write(tmp_path, NUM23), "--element", "6"],
    )
    assert out["meta"]["components"] == 2
    assert out["result"] == [[[3, 0]], [[0, 2]]]


def test_glue(runner, tmp_path):
    doc = {"q": 1, "generators": [[3], [4]], "order": {"kind": "grlex"}}
    _, out = run_json(
        runner,
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


def test_glue_validates_once(runner, tmp_path, monkeypatch):
    # glue, fp_glued_bound and gluing_equality each validate the gluing, and
    # a glue command calls all three: the membership search runs once
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
            runner, ["glue", "--input", path, "--d", "2", "--gamma", gamma, "--p", "1", "--verify"]
        )
        assert {"verdict", "oracle"} <= out["meta"].keys()
        assert calls[before:] == [(int(gamma),)]


def test_glue_invalid_gamma(runner, tmp_path):
    doc = {"q": 1, "generators": [[3], [4]]}
    res = runner.invoke(
        main,
        ["glue", "--input", write(tmp_path, doc), "--d", "2", "--gamma", "5"],
    )
    assert res.exit_code == 4


def test_oracle_fp(runner, tmp_path):
    _, out = run_json(
        runner, ["oracle", "--input", write(tmp_path, NUM23), "--p", "1"]
    )
    assert out["result"] == [7]
    assert out["meta"]["scanned_bound"] >= 7
    assert "certificate" in out["meta"]


def test_oracle_element(runner, tmp_path):
    _, out = run_json(
        runner, ["oracle", "--input", write(tmp_path, NUM23), "--element", "12"]
    )
    assert out["result"] == 3


def test_oracle_element_counts_on_its_box(runner, tmp_path):
    # one grid over [0, n] (226 981 points), well inside the budget
    gens = [[3, 0, 0], [5, 0, 0], [0, 3, 0], [0, 4, 0], [0, 0, 2], [0, 0, 5], [1, 2, 1]]
    doc = {"q": 3, "generators": gens}
    res, out = run_json(
        runner,
        ["oracle", "--input", write(tmp_path, doc), "--element", "60,60,60", "--budget", "1"],
    )
    assert res.exit_code == 0
    assert out["result"] == 1806
    # (1,2,1) is the one generator off the axes: fix its multiplicity k and
    # the rest splits into three numerical semigroups, one per coordinate
    def count(a, b, m):
        return pf.count_capped(pf.numerical(a, b), (m,), m + 1)

    assert sum(
        count(3, 5, 60 - k) * count(3, 4, 60 - 2 * k) * count(2, 5, 60 - k)
        for k in range(31)
    ) == 1806


def test_oracle_needs_p_or_element(runner, tmp_path):
    res = runner.invoke(main, ["oracle", "--input", write(tmp_path, NUM23)])
    assert res.exit_code == 4


def test_oracle_budget_exhausted(runner, tmp_path):
    res = runner.invoke(
        main,
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
    assert res.exit_code == 5
    assert json.loads(res.output)["error"]["code"] == "ORACLE_BUDGET"


def test_text_format(runner, tmp_path):
    res = runner.invoke(
        main,
        [
            "fp",
            "--input",
            write(tmp_path, NUM23),
            "--p",
            "1",
            "--format",
            "text",
        ],
        catch_exceptions=False,
    )
    assert "result: [7]" in res.output
    assert "meta.order: grlex" in res.output


def test_minimalization_warning_surfaces(runner, tmp_path):
    doc = {"q": 1, "generators": [[2], [3], [4]]}
    with pytest.warns(UserWarning):
        _, out = run_json(runner, ["fp", "--input", write(tmp_path, doc), "--p", "1"])
    assert out["result"] == [7]


def test_parse_and_dispatch_exit_codes(tmp_path, capsys):
    from pfrobenius.cli import parse_and_dispatch

    path = write(tmp_path, NUM23)
    assert parse_and_dispatch(["fp", "--input", path, "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == [7]
    assert parse_and_dispatch(["fp", "--input", path, "--p", "-1"]) == 4
