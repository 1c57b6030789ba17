"""Command-line front end.

Every subcommand prints a stable record: human-readable ``key = value``
lines by default, or, with ``--format json``, a single JSON object
``{"command", "inputs", "outputs"}`` in which every integer is rendered as a
decimal string so arbitrary precision survives the trip.  Exit codes: 0 on
success, 1 on domain errors (precondition violations), 2 on parse errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .contfrac import KSequence, eval_cf, expand_simple
from .correspondence import (
    dimension_tower,
    invariant_to_k,
    invariant_to_rational,
    k_to_invariant,
    rational_to_invariant,
)
from .errors import DomainError
from .exact import ExtendedRational
from .invariants import (
    ExtensionDescriptor,
    brute_force_quotient,
    build_quotient,
    is_isomorphic,
    project,
    projection_matches_brute_force,
    tensor_factor,
)
from .literals import ParseError, parse_cf, parse_rational, render_cf
from .paths import DEFAULT_CAP, enumerate_paths, path_counts


def _ints_csv(text: str, *, count: int | None = None, what: str = "integer list") -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"expected a comma-separated {what}, found {text!r}", 0)
    if count is not None and len(values) != count:
        raise ParseError(f"expected {count} comma-separated integers, found {len(values)}", 0)
    return values


def _nonneg_csv(text: str, what: str) -> list[int]:
    values = _ints_csv(text, what=what)
    for v in values:
        if v < 0:
            raise DomainError(f"{what} entries must be >= 0, got {v}")
    return values


def _descriptor(text: str) -> ExtensionDescriptor:
    n, a_plus, a_minus, k_plus, k_minus = _ints_csv(text, count=5, what="descriptor")
    return ExtensionDescriptor(n=n, index=(a_plus, a_minus), defects=(k_plus, k_minus))


def _fmt(value) -> str:
    """Text rendering: rationals as p/q, booleans lowercase, lists compact."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (ExtendedRational, Fraction, int, str)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, dict):
        return " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def _jsonable(value):
    """Integers (and rationals) become decimal strings; structure is preserved."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (Fraction, ExtendedRational)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if value is None:
        return None
    return str(value)


def _emit(args, record: dict, bare_key: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(_jsonable(record), sort_keys=True, separators=(",", ":")))
        return
    outputs = record["outputs"]
    if bare_key is not None and list(outputs) == [bare_key]:
        print(_fmt(outputs[bare_key]))
        return
    for key, value in outputs.items():
        if key == "levels":
            for level in value:
                print(f"level {_fmt(level['level'])}: dims={_fmt(level['dims'])} mult={_fmt(level['mult'])}")
        else:
            print(f"{key} = {_fmt(value)}")


def cmd_eval(args) -> tuple[dict, str | None]:
    cf = parse_cf(args.cf)
    value = eval_cf(cf)
    record = {
        "command": "eval",
        "inputs": {"cf": render_cf(cf)},
        "outputs": {"value": value},
    }
    return record, "value"


def cmd_invariant(args) -> tuple[dict, str | None]:
    r = parse_rational(args.r)
    inv = rational_to_invariant(r)
    record = {
        "command": "invariant",
        "inputs": {"r": str(inv.theta)},
        "outputs": {
            "n": inv.n,
            "m": inv.m,
            "k": list(inv.k.entries),
            "theta": inv.theta,
        },
    }
    return record, None


def cmd_rational(args) -> tuple[dict, str | None]:
    k = invariant_to_k(args.n, args.m)
    theta = invariant_to_rational(args.n, args.m)
    record = {
        "command": "rational",
        "inputs": {"n": args.n, "m": args.m},
        "outputs": {"theta": theta, "k": list(k.entries)},
    }
    return record, None


def cmd_oracle(args) -> tuple[dict, str | None]:
    k = KSequence(tuple(_nonneg_csv(args.k, "k-sequence")))
    cap = args.cap if args.cap is not None else DEFAULT_CAP
    counts = path_counts(k)
    enumerated = [len(enumerate_paths(k, f, cap=cap)) for f in range(k.h + 1)]
    defect = sum((k.h - f) * c for f, c in enumerate(enumerated))
    _, m = k_to_invariant(k)
    match = enumerated == list(counts.per_length) and defect == m
    record = {
        "command": "oracle",
        "inputs": {"k": list(k.entries)},
        "outputs": {
            "psi": list(counts.per_length),
            "phi": list(counts.cumulative),
            "defect": defect,
            "enumerated_counts": enumerated,
            "match": match,
        },
    }
    return record, None


def cmd_group(args) -> tuple[dict, str | None]:
    a_plus, a_minus = _ints_csv(args.a, count=2, what="index pair")
    q = build_quotient((a_plus, a_minus), args.n)
    kwargs = {"cap": args.cap} if args.cap is not None else {}
    bf = brute_force_quotient(q.a, q.n, **kwargs)
    record = {
        "command": "group",
        "inputs": {"a": list(q.a), "n": q.n},
        "outputs": {
            "c": q.c,
            "d": q.d,
            "order": bf.order,
            "generator_images": [list(project((1, 0), q)), list(project((0, 1), q))],
            "oracle_match": bf.order == q.order and projection_matches_brute_force(q, bf),
        },
    }
    return record, None


def cmd_iso(args) -> tuple[dict, str | None]:
    e = _descriptor(args.e)
    f = _descriptor(args.f)
    record = {
        "command": "iso",
        "inputs": {
            "e": {"n": e.n, "a": list(e.index), "defects": list(e.defects)},
            "f": {"n": f.n, "a": list(f.index), "defects": list(f.defects)},
        },
        "outputs": {"isomorphic": is_isomorphic(e, f)},
    }
    return record, "isomorphic"


def cmd_tensor(args) -> tuple[dict, str | None]:
    e = ExtensionDescriptor(n=args.n, index=(-1, 1), defects=(args.m, 0))
    p, l = tensor_factor(e, args.t)
    record = {
        "command": "tensor",
        "inputs": {"n": args.n, "m": args.m, "t": args.t},
        "outputs": {"p": p, "l": l},
    }
    return record, None


def cmd_tower(args) -> tuple[dict, str | None]:
    r = parse_rational(args.r)
    cf = expand_simple(r, args.parity)
    depth = args.depth if args.depth is not None else len(cf.terms)
    levels = dimension_tower(cf, depth)
    record = {
        "command": "tower",
        "inputs": {"r": str(Fraction(r)), "parity": args.parity, "cf": render_cf(cf)},
        "outputs": {
            "levels": [
                {
                    "level": lv.level,
                    "dims": list(lv.dims),
                    "mult": [list(row) for row in lv.mult] if lv.mult is not None else None,
                }
                for lv in levels
            ]
        },
    }
    return record, None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (default: text)")
    common.add_argument("--cap", type=int, default=None,
                        help="enumeration cap forwarded to oracle/group computations")

    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact continued-fraction arithmetic and extension invariants for rationals in [0,1).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a continued-fraction literal")
    p.add_argument("cf", help="literal like '[0;2,2]' or '[1,(0,1)^3]'")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("invariant", parents=[common],
                       help="invariant (n, m) and k-sequence of a rational in [0,1)")
    p.add_argument("r", help="rational like 2/5 or 0")
    p.set_defaults(handler=cmd_invariant)

    p = sub.add_parser("rational", parents=[common],
                       help="rational and k-sequence of an invariant pair (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=cmd_rational)

    p = sub.add_parser("oracle", parents=[common],
                       help="path counts by recurrence vs. exhaustive enumeration")
    p.add_argument("--k", required=True, help="k-sequence entries, e.g. 1,1")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("group", parents=[common],
                       help="quotient group Z^2/(Za + nZ^2), closed form vs. brute force")
    p.add_argument("--a", required=True, help="index pair, e.g. -1,1")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_group)

    p = sub.add_parser("iso", parents=[common],
                       help="decide isomorphism of two descriptors n,a+,a-,k+,k-")
    p.add_argument("--e", required=True, help="first descriptor, e.g. 5,-1,1,0,2")
    p.add_argument("--f", required=True, help="second descriptor")
    p.set_defaults(handler=cmd_iso)

    p = sub.add_parser("tensor", parents=[common],
                       help="factor a t x t matrix tensor out of an invariant (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("tower", parents=[common],
                       help="dimension tower of a rational's simple expansion")
    p.add_argument("r", help="rational in (0,1)")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(handler=cmd_tower)

    return parser


def _join_flag_values(argv: list[str]) -> list[str]:
    # argparse would read a value like "-1,1" as an option; fold it into "--a=-1,1".
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--a", "--e", "--f", "--k") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    # a negative fraction in positional spot ("-1/2") also looks like an option;
    # everything from the first one on is positional
    for i, tok in enumerate(out):
        if tok == "--":
            break
        if re.fullmatch(r"-\d+/\d+", tok):
            return out[:i] + ["--"] + out[i:]
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_join_flag_values(list(argv)))
    try:
        record, bare_key = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, record, bare_key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
