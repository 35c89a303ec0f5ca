"""Command-line interface: JSON in, JSON (or text) out.

Every subcommand loads a semigroup description from ``--input``, dispatches
to the library, and prints a single JSON object ``{"result": ..., "meta":
{...}}``.  Errors exit non-zero with ``{"error": {"code": ..., "message":
...}}``; an infinite Frobenius vector is a result, never an error.  Usage
errors (unknown command or option, missing or invalid option value) exit 2
with a message on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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
        print(json.dumps(payload, sort_keys=True))
        return
    # text rendering: one "key: value" line per entry
    def lines(obj, prefix=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix.rstrip('.')}: {obj}"

    for line in lines(payload):
        print(line)


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


def _existing_path(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser(**kwargs) -> argparse.ArgumentParser:
    # options are spelled out in full, and --help is the only help flag
    return argparse.ArgumentParser(add_help=False, allow_abbrev=False, **kwargs)


_PARSER = _parser(prog="pfrobenius", description="p-Frobenius vectors of affine semigroups, exactly.")
_PARSER.add_argument("--help", action="help", help="Show this message and exit.")
_COMMANDS = _PARSER.add_subparsers(
    dest="cmd", metavar="COMMAND", required=True, parser_class=_parser
)
# the options that take a value; see _bind_values
_VALUED = {"--input", "--format"}

_ORDER = ("--order", dict(dest="order_flag", choices=["grlex", "grevlex"],
                         help="Override the graded order from the input file."))
_ELEMENT = ("--element", dict(required=True, help="Comma-separated coordinates."))
_BUDGET = ("--budget", dict(type=float, help="Oracle budget in seconds."))


def _command(name: str, *options):
    """Register fn(args) -> payload as subcommand name, with --input,
    --format and the given (flag, add_argument keywords) options."""

    def register(fn):
        sub = _COMMANDS.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                         type=_existing_path, help="Path to the semigroup JSON file.")
        sub.add_argument("--format", dest="fmt", choices=["json", "text"], default="json",
                         help="Output format.")
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
            if kwargs.get("action") != "store_true":
                _VALUED.add(flag)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=fn)
        return fn

    return register


@_command("check-finite")
def check_finite(args) -> dict:
    """Decide finiteness of F_p(S) for all p >= 1."""
    S, _ = load_semigroup(args.input_path)
    rays = sorted(cone.extremal_ray_directions(S))
    return {
        "result": cone.is_fp_finite(S),
        "meta": {"extremal_rays": [list(r) for r in rays]},
    }


@_command("groebner", _ORDER)
def groebner_cmd(args) -> dict:
    """Reduced Groebner basis of the semigroup ideal."""
    S, order = _load(args.input_path, args.order_flag)
    G = groebner.reduced_basis(S, order)
    return {
        "result": [_binomial_json(b) for b in G.elements],
        "meta": {"size": len(G), "order": order.kind},
    }


@_command("factorize", _ORDER, _ELEMENT)
def factorize(args) -> dict:
    """All factorizations of an element over the minimal generators."""
    S, order = _load(args.input_path, args.order_flag)
    n = _parse_element(args.element, S.q)
    facs = sorted(factorization.factorizations(S, n), key=order.key, reverse=True)
    return {"result": [list(f) for f in facs], "meta": {"count": len(facs)}}


@_command(
    "fp", _ORDER, ("--p", dict(type=int, required=True)),
    ("--verify", dict(action="store_true", help="Cross-check against the oracle.")), _BUDGET,
)
def fp_cmd(args) -> dict:
    """The p-Frobenius vector of the semigroup."""
    S, order = _load(args.input_path, args.order_flag)
    result = frobenius.fp_general(S, args.p, order)
    meta: dict = {"order": order.kind}
    if args.verify:
        report = oracle.oracle_fp(S, args.p, order, budget_seconds=args.budget)
        meta["oracle"] = report.result.to_json()
        meta["oracle_agrees"] = report.result == result
    return {"result": result.to_json(), "meta": meta}


@_command("indispensable")
def indispensable(args) -> dict:
    """Indispensable binomials of the semigroup ideal."""
    S, _ = load_semigroup(args.input_path)
    ind = frobenius.indispensable_binomials(S)
    return {"result": [_binomial_json(b) for b in ind], "meta": {"count": len(ind)}}


@_command("nabla", _ELEMENT)
def nabla(args) -> dict:
    """Connected components of the factorization complex of an element."""
    S, _ = load_semigroup(args.input_path)
    n = _parse_element(args.element, S.q)
    comps = frobenius.nabla_components(S, n)
    comps_json = sorted(
        (sorted((list(f) for f in comp), reverse=True) for comp in comps),
        reverse=True,
    )
    return {"result": comps_json, "meta": {"components": len(comps)}}


@_command(
    "glue", _ORDER, ("--d", dict(type=int, required=True)),
    ("--gamma", dict(required=True, help="Comma-separated coordinates.")),
    ("--p", dict(type=int, default=1)),
    ("--verify", dict(action="store_true", help="Oracle value of F_p of the gluing.")), _BUDGET,
)
def glue_cmd(args) -> dict:
    """Glue with N^q and report the F_p bound and the equality verdict."""
    S, order = _load(args.input_path, args.order_flag)
    p = args.p
    spec = gluing.GluingSpec(args.d, _parse_element(args.gamma, S.q))
    glued = gluing.glue(S, spec)
    bound = gluing.fp_glued_bound(S, p, spec, order)
    meta: dict = {"glued": semigroup_to_json(glued), "bound": list(bound)}
    if p >= 1:
        meta["verdict"] = gluing.gluing_equality(S, p, spec, order).value
    if args.verify:
        report = oracle.oracle_fp(glued, p, order, budget_seconds=args.budget)
        meta["oracle"] = report.result.to_json()
    return {"result": list(bound), "meta": meta}


@_command(
    "oracle", _ORDER, ("--p", dict(type=int)),
    ("--element", dict(help="Count factorizations of one element.")), _BUDGET,
)
def oracle_cmd(args) -> dict:
    """Brute-force reference answers (slow, trusted)."""
    S, order = _load(args.input_path, args.order_flag)
    if args.element is not None:
        n = _parse_element(args.element, S.q)
        count = oracle.oracle_count(S, n, budget_seconds=args.budget)
        return {"result": count, "meta": {"element": list(n)}}
    if args.p is None:
        raise ValidationError("oracle needs --p or --element")
    report = oracle.oracle_fp(S, args.p, order, budget_seconds=args.budget)
    return {
        "result": report.result.to_json(),
        "meta": {
            "scanned_bound": report.scanned_bound,
            "certificate": report.certificate,
        },
    }


def _bind_values(argv: list[str]) -> list[str]:
    """Join each valued option to the token after it, as --opt=value: the
    next token is its value even where it starts with "-" (--gamma -3,4)."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUED and i + 1 < len(argv):
            i += 1
            tok = f"{tok}={argv[i]}"
        out.append(tok)
        i += 1
    return out


def parse_and_dispatch(argv: list[str]) -> int:
    """Programmatic entry point; returns the process exit status."""
    try:
        args = _PARSER.parse_args(_bind_values(argv))
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return int(exc.code or 0)
    try:
        payload, status = args.run(args), 0
    except tuple(t for t, _, _ in _ERROR_CODES) as exc:
        code, status = next((c, s) for t, c, s in _ERROR_CODES if isinstance(exc, t))
        payload = {"error": {"code": code, "message": str(exc)}}
    _emit(payload, args.fmt)
    return status


def main() -> None:
    """Console entry point."""
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
