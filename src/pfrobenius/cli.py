"""Command-line interface: JSON in, JSON (or text) out.

The dispatcher loads ``--input`` once, its order under ``--order`` where the
command takes one, and prints the single JSON object ``{"result": ...,
"meta": {...}}`` of the command's ``fn(S, order, args)``.  Errors exit
non-zero with ``{"error": {"code": ..., "message": ...}}``; an infinite
Frobenius vector is a result, never an error.  Usage errors (unknown command
or option, missing or invalid option value) exit 2 with a message on stderr.

The options of every command are one table, ``_COMMANDS``.  An option is
``--flag value`` or ``--flag=value``, spelled out in full; a value may start
with "-" (``--gamma -3,4``), and the last value given wins.
"""
from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import cone, factorization, frobenius, gluing, oracle
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
_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(payload, sort_keys=True), built once


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_ENCODER.encode(payload))
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


def _binomial_json(b) -> dict:
    from . import groebner

    return {"lead": list(b.lead), "trail": list(b.trail), "pretty": groebner.format_binomial(b)}


class _UsageError(Exception):
    """A malformed command line: exit status 2, the message on stderr."""


def _existing_path(path: str) -> str:
    if not os.path.exists(path):
        raise ValueError(f"path {path!r} does not exist")
    return path


def check_finite(S: Semigroup, order: OrderSpec, args) -> dict:
    """Decide finiteness of F_p(S) for all p >= 1."""
    rays = sorted(cone.extremal_ray_directions(S))
    return {
        "result": cone.is_fp_finite(S),
        "meta": {"extremal_rays": [list(r) for r in rays]},
    }


def groebner_cmd(S: Semigroup, order: OrderSpec, args) -> dict:
    """Reduced Groebner basis of the semigroup ideal."""
    from . import groebner

    G = groebner.reduced_basis(S, order)
    return {
        "result": [_binomial_json(b) for b in G],
        "meta": {"size": len(G), "order": order.kind},
    }


def factorize(S: Semigroup, order: OrderSpec, args) -> dict:
    """All factorizations of an element over the minimal generators."""
    n = _parse_element(args.element, S.q)
    facs = sorted(factorization.factorizations(S, n), key=order.key, reverse=True)
    return {"result": [list(f) for f in facs], "meta": {"count": len(facs)}}


def fp_cmd(S: Semigroup, order: OrderSpec, args) -> dict:
    """The p-Frobenius vector of the semigroup."""
    result = frobenius.fp_general(S, args.p, order)
    meta: dict = {"order": order.kind}
    if args.verify:
        report = oracle.oracle_fp(S, args.p, order, budget_seconds=args.budget)
        meta["oracle"] = report.result.to_json()
        meta["oracle_agrees"] = report.result == result
    return {"result": result.to_json(), "meta": meta}


def indispensable(S: Semigroup, order: OrderSpec, args) -> dict:
    """Indispensable binomials of the semigroup ideal."""
    ind = frobenius.indispensable_binomials(S)
    return {"result": [_binomial_json(b) for b in ind], "meta": {"count": len(ind)}}


def nabla(S: Semigroup, order: OrderSpec, args) -> dict:
    """Connected components of the factorization complex of an element."""
    n = _parse_element(args.element, S.q)
    comps = frobenius.nabla_components(S, n)
    comps_json = sorted(
        (sorted((list(f) for f in comp), reverse=True) for comp in comps),
        reverse=True,
    )
    return {"result": comps_json, "meta": {"components": len(comps)}}


def glue_cmd(S: Semigroup, order: OrderSpec, args) -> dict:
    """Glue with N^q and report the F_p bound and the equality verdict."""
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


def oracle_cmd(S: Semigroup, order: OrderSpec, args) -> dict:
    """Brute-force reference answers (slow, trusted)."""
    if args.element is not None:
        n = _parse_element(args.element, S.q)
        count = oracle.oracle_count(S, n, budget_seconds=args.budget)
        return {"result": count, "meta": {"element": list(n)}}
    if args.p is None:
        raise ValidationError("oracle needs --p or --element")
    report = oracle.oracle_fp(S, args.p, order, budget_seconds=args.budget)
    return {"result": report.result.to_json(),
            "meta": {"scanned_bound": report.scanned_bound, "certificate": report.certificate}}


_SHARED = {
    "--input": ("input_path", _existing_path, True, None, "Path to the semigroup JSON file."),
    "--format": ("fmt", ("json", "text"), False, "json", "Output format: json (the default) or text."),
}
_ORDER = {"--order": ("order", OrderSpec, False, None, "grlex or grevlex, in place of the input file's order.")}
_ELEMENT = {"--element": ("element", str, True, None, "Comma-separated coordinates.")}
_BUDGET = {"--budget": ("budget", float, False, None, "Oracle budget in seconds.")}
# command -> (fn(S, order, args), {flag: (dest, convert, required, default, help)}):
# convert is a callable, a tuple of the allowed values, or None for a switch
_COMMANDS = {name: (fn, {**_SHARED, **options}) for name, fn, options in [
    ("check-finite", check_finite, {}),
    ("groebner", groebner_cmd, _ORDER),
    ("factorize", factorize, {**_ORDER, **_ELEMENT}),
    ("fp", fp_cmd, {**_ORDER, "--p": ("p", int, True, None, "F_p is the largest element with at most p factorizations."),
                    "--verify": ("verify", None, False, False, "Cross-check against the oracle."), **_BUDGET}),
    ("indispensable", indispensable, {}),
    ("nabla", nabla, _ELEMENT),
    ("glue", glue_cmd, {**_ORDER, "--d": ("d", int, True, None, "The gluing factor, at least 2."),
                        "--gamma": ("gamma", str, True, None, "Comma-separated coordinates of a non-generator of S."),
                        "--p": ("p", int, False, 1, "The p of the bound d*F_p(S) + (d-1)*gamma; 1 by default."),
                        "--verify": ("verify", None, False, False, "Oracle value of F_p of the gluing."), **_BUDGET}),
    ("oracle", oracle_cmd, {**_ORDER, "--p": ("p", int, False, None, "F_p by brute force."),
                            "--element": ("element", str, False, None, "Count factorizations of one element."), **_BUDGET}),
]}
# built once per command, not per call: the option defaults, and the required flags with their dests
_DEFAULTS = {name: {dest: default for dest, _, _, default, _ in table.values()} for name, (_, table) in _COMMANDS.items()}
_REQUIRED = {name: [(flag, dest) for flag, (dest, _, required, _, _) in table.items() if required]
             for name, (_, table) in _COMMANDS.items()}


def _help(name: str | None) -> str:
    """The commands, or one command's options, with their help strings."""
    if name is None:
        head = "usage: pfrobenius COMMAND [options]\n\np-Frobenius vectors of affine semigroups, exactly.\n\ncommands:"
        rows = [(cmd, fn.__doc__) for cmd, (fn, _) in _COMMANDS.items()]
    else:
        fn, table = _COMMANDS[name]
        head = f"usage: pfrobenius {name} [options]\n\n{fn.__doc__}\n\noptions:"
        rows = [(flag if convert is None else f"{flag} {flag[2:].upper()}", text + (" (required)" if required else ""))
                for flag, (_, convert, required, _, text) in table.items()]
    rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([head, *(f"  {left:<{width}}{text}" for left, text in rows)])


def _parse(argv: list[str]):
    """(function, args) of the command in argv, or None once help is printed."""
    name, *rest = argv or [None]
    if name == "--help":
        print(_help(None))
        return None
    if name not in _COMMANDS:
        raise _UsageError(f"expected a command: {', '.join(_COMMANDS)}")
    fn, table = _COMMANDS[name]
    args = dict(_DEFAULTS[name])
    tokens = iter(rest)
    for token in tokens:
        if token == "--help":
            print(_help(name))
            return None
        flag, eq, text = token.partition("=")
        if flag not in table:
            raise _UsageError(f"unrecognized argument {token!r}")
        dest, convert = table[flag][:2]
        if convert is None:  # a switch
            if eq:
                raise _UsageError(f"{flag} takes no value")
            args[dest] = True
            continue
        if not eq and (text := next(tokens, None)) is None:
            raise _UsageError(f"{flag} expects a value")
        if isinstance(convert, tuple) and text not in convert:
            raise _UsageError(f"{flag}: {text!r} is not one of {', '.join(convert)}")
        try:
            args[dest] = text if isinstance(convert, tuple) else convert(text)
        except ValueError as exc:  # a ValidationError too
            raise _UsageError(f"{flag}: {exc}") from None
    # a required option has no default, and a given value is never None
    missing = [flag for flag, dest in _REQUIRED[name] if args[dest] is None]
    if missing:
        raise _UsageError(f"missing {', '.join(missing)}")
    return fn, SimpleNamespace(**args)


def parse_and_dispatch(argv: list[str]) -> int:
    """Programmatic entry point; returns the process exit status."""
    try:
        parsed = _parse(argv)
    except _UsageError as exc:
        prog = "pfrobenius " + argv[0] if argv and argv[0] in _COMMANDS else "pfrobenius"
        print(f"{prog}: error: {exc}; see {prog} --help", file=sys.stderr)
        return 2
    if parsed is None:  # --help
        return 0
    fn, args = parsed
    try:
        # the oracle's rule for a budget, applied even where no oracle runs
        oracle._Budget(getattr(args, "budget", None))
        S, order = load_semigroup(args.input_path)
        payload, status = fn(S, getattr(args, "order", None) or order, args), 0
    except tuple(t for t, _, _ in _ERROR_CODES) as exc:
        code, status = next((c, s) for t, c, s in _ERROR_CODES if isinstance(exc, t))
        payload = {"error": {"code": code, "message": str(exc)}}
    _emit(payload, args.fmt)
    return status


def main() -> None:
    """Console entry point; a closed stdout (``| true``) ends it with status 1, quietly."""
    try:
        status = parse_and_dispatch(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:  # Python flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
