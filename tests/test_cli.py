from __future__ import annotations

import json

import pytest

import pfrobenius as pf
from pfrobenius.cli import parse_and_dispatch

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


def run_json(capsys, args):
    status, out = run(capsys, args)
    return status, json.loads(out)


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


def test_factorize_bad_element(capsys, tmp_path):
    status, out = run_json(
        capsys,
        ["factorize", "--input", write(tmp_path, NUM23), "--element", "1,2"],
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


def test_fp_p0_unsupported_in_dim2(capsys, tmp_path):
    status, out = run_json(
        capsys, ["fp", "--input", write(tmp_path, BIG2D), "--p", "0"]
    )
    assert status == 2
    assert out["error"]["code"] == "UNSUPPORTED"


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
            capsys, ["glue", "--input", path, "--d", "2", "--gamma", gamma, "--p", "1", "--verify"]
        )
        assert {"verdict", "oracle"} <= out["meta"].keys()
        assert calls[before:] == [(int(gamma),)]


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
    # the grid over [0, 2^62] needs 8 * (2^62 + 1) bytes of list: refused
    # before any memory is touched, and reported as the budget's error
    status, out = run_json(
        capsys,
        ["oracle", "--input", write(tmp_path, {"q": 1, "generators": [[3], [5]]}),
         "--element", str(2**62), "--budget", "1"],
    )
    assert status == 5
    assert out["error"]["code"] == "ORACLE_BUDGET"


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
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, args):
    # usage errors go to stderr; stdout stays empty
    fill = {"path": write(tmp_path, NUM23), "missing": str(tmp_path / "missing.json")}
    status, out = run(capsys, [a.format(**fill) for a in args])
    assert status == 2
    assert out == ""


@pytest.mark.parametrize("args", [["--help"], ["fp", "--help"], ["glue", "--help"]])
def test_help_exits_0(capsys, args):
    status, out = run(capsys, args)
    assert status == 0
    assert "--input" in out or "glue" in out


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
