"""Command-line interface: JSON in, JSON (or text) out.

Every subcommand loads a semigroup description from ``--input``, dispatches
to the library, and prints a single JSON object ``{"result": ..., "meta":
{...}}``.  Errors exit non-zero with ``{"error": {"code": ..., "message":
...}}``; an infinite Frobenius vector is a result, never an error.
"""
from __future__ import annotations

import functools
import json
import sys

import click

from . import cone, factorization, frobenius, gluing, groebner, oracle
from .core import (
    OrderSpec,
    OverflowGuardError,
    Semigroup,
    UnsupportedError,
    ValidationError,
    _as_point,
    load_semigroup,
    semigroup_to_json,
)
from .oracle import OracleBudgetError

_ERROR_CODES = [
    (UnsupportedError, "UNSUPPORTED", 2),
    (OverflowGuardError, "OVERFLOW", 3),
    (OracleBudgetError, "ORACLE_BUDGET", 5),
    (ValidationError, "VALIDATION", 4),
]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
        return
    # text rendering: one "key: value" line per entry
    def lines(obj, prefix=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix.rstrip('.')}: {obj}"

    for line in lines(payload):
        click.echo(line)


def _fail(exc: Exception, code: str, status: int, fmt: str) -> None:
    _emit({"error": {"code": code, "message": str(exc)}}, fmt)
    sys.exit(status)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fmt = kwargs.get("fmt", "json")
        try:
            return fn(*args, **kwargs)
        except tuple(t for t, _, _ in _ERROR_CODES) as exc:
            for etype, code, status in _ERROR_CODES:
                if isinstance(exc, etype):
                    _fail(exc, code, status, fmt)
            raise

    return wrapper


def _parse_element(text: str, q: int) -> tuple[int, ...]:
    try:
        coords = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad element {text!r}: {exc}") from exc
    return _as_point(coords, q)


def _load(input_path: str, order_flag: str | None) -> tuple[Semigroup, OrderSpec]:
    S, order = load_semigroup(input_path)
    if order_flag is not None:
        order = OrderSpec(order_flag)
    return S, order


def _binomial_json(b: groebner.Binomial) -> dict:
    return {
        "lead": list(b.lead),
        "trail": list(b.trail),
        "pretty": groebner.format_binomial(b),
    }


input_option = click.option(
    "--input", "input_path", required=True, type=click.Path(exists=True),
    help="Path to the semigroup JSON file.",
)
order_option = click.option(
    "--order", "order_flag", type=click.Choice(["grlex", "grevlex"]), default=None,
    help="Override the graded order from the input file.",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    help="Output format.",
)


@click.group()
def main() -> None:
    """p-Frobenius vectors of affine semigroups, exactly."""


@main.command("check-finite")
@input_option
@format_option
@handle_errors
def check_finite(input_path, fmt) -> None:
    """Decide finiteness of F_p(S) for all p >= 1."""
    S, _ = load_semigroup(input_path)
    rays = sorted(cone.extremal_ray_directions(S))
    _emit(
        {
            "result": cone.is_fp_finite(S),
            "meta": {"extremal_rays": [list(r) for r in rays]},
        },
        fmt,
    )


@main.command("groebner")
@input_option
@order_option
@format_option
@handle_errors
def groebner_cmd(input_path, order_flag, fmt) -> None:
    """Reduced Groebner basis of the semigroup ideal."""
    S, order = _load(input_path, order_flag)
    G = groebner.reduced_basis(S, order)
    _emit(
        {
            "result": [_binomial_json(b) for b in G.elements],
            "meta": {"size": len(G), "order": order.kind},
        },
        fmt,
    )


@main.command("factorize")
@input_option
@order_option
@format_option
@click.option("--element", required=True, help="Comma-separated coordinates.")
@handle_errors
def factorize(input_path, order_flag, fmt, element) -> None:
    """All factorizations of an element over the minimal generators."""
    S, order = _load(input_path, order_flag)
    n = _parse_element(element, S.q)
    facs = sorted(factorization.factorizations(S, n), key=order.key, reverse=True)
    _emit(
        {"result": [list(f) for f in facs], "meta": {"count": len(facs)}},
        fmt,
    )


@main.command("fp")
@input_option
@order_option
@format_option
@click.option("--p", "p", type=int, required=True)
@click.option("--verify", is_flag=True, help="Cross-check against the oracle.")
@click.option("--budget", type=float, default=None, help="Oracle budget in seconds.")
@handle_errors
def fp_cmd(input_path, order_flag, fmt, p, verify, budget) -> None:
    """The p-Frobenius vector of the semigroup."""
    S, order = _load(input_path, order_flag)
    result = frobenius.fp_general(S, p, order)
    meta: dict = {"order": order.kind}
    if verify:
        report = oracle.oracle_fp(S, p, order, budget_seconds=budget)
        meta["oracle"] = report.result.to_json()
        meta["oracle_agrees"] = report.result == result
    _emit({"result": result.to_json(), "meta": meta}, fmt)


@main.command("indispensable")
@input_option
@format_option
@handle_errors
def indispensable(input_path, fmt) -> None:
    """Indispensable binomials of the semigroup ideal."""
    S, _ = load_semigroup(input_path)
    ind = frobenius.indispensable_binomials(S)
    _emit(
        {"result": [_binomial_json(b) for b in ind], "meta": {"count": len(ind)}},
        fmt,
    )


@main.command("nabla")
@input_option
@format_option
@click.option("--element", required=True, help="Comma-separated coordinates.")
@handle_errors
def nabla(input_path, fmt, element) -> None:
    """Connected components of the factorization complex of an element."""
    S, _ = load_semigroup(input_path)
    n = _parse_element(element, S.q)
    comps = frobenius.nabla_components(S, n)
    comps_json = sorted(
        (sorted((list(f) for f in comp), reverse=True) for comp in comps),
        reverse=True,
    )
    _emit(
        {"result": comps_json, "meta": {"components": len(comps)}},
        fmt,
    )


@main.command("glue")
@input_option
@order_option
@format_option
@click.option("--d", "d", type=int, required=True)
@click.option("--gamma", required=True, help="Comma-separated coordinates.")
@click.option("--p", "p", type=int, default=1)
@click.option("--verify", is_flag=True, help="Oracle value of F_p of the gluing.")
@click.option("--budget", type=float, default=None)
@handle_errors
def glue_cmd(input_path, order_flag, fmt, d, gamma, p, verify, budget) -> None:
    """Glue with N^q and report the F_p bound and the equality verdict."""
    S, order = _load(input_path, order_flag)
    spec = gluing.GluingSpec(d, _parse_element(gamma, S.q))
    glued = gluing.glue(S, spec)
    bound = gluing.fp_glued_bound(S, p, spec, order)
    meta: dict = {"glued": semigroup_to_json(glued), "bound": list(bound)}
    if p >= 1:
        meta["verdict"] = gluing.gluing_equality(S, p, spec, order).value
    if verify:
        report = oracle.oracle_fp(glued, p, order, budget_seconds=budget)
        meta["oracle"] = report.result.to_json()
    _emit({"result": list(bound), "meta": meta}, fmt)


@main.command("oracle")
@input_option
@order_option
@format_option
@click.option("--p", "p", type=int, default=None)
@click.option("--element", default=None, help="Count factorizations of one element.")
@click.option("--budget", type=float, default=None)
@handle_errors
def oracle_cmd(input_path, order_flag, fmt, p, element, budget) -> None:
    """Brute-force reference answers (slow, trusted)."""
    S, order = _load(input_path, order_flag)
    if element is not None:
        n = _parse_element(element, S.q)
        count = oracle.oracle_count(S, n, budget_seconds=budget)
        _emit({"result": count, "meta": {"element": list(n)}}, fmt)
        return
    if p is None:
        raise ValidationError("oracle needs --p or --element")
    report = oracle.oracle_fp(S, p, order, budget_seconds=budget)
    _emit(
        {
            "result": report.result.to_json(),
            "meta": {
                "scanned_bound": report.scanned_bound,
                "certificate": report.certificate,
            },
        },
        fmt,
    )


def parse_and_dispatch(argv: list[str]) -> int:
    """Programmatic entry point; returns the process exit status."""
    try:
        main.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    return 0


if __name__ == "__main__":
    main()
