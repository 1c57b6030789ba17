"""Command-line front end.

Every subcommand prints a stable record: human-readable ``key = value``
lines by default, or, with ``--format json``, a single JSON object
``{"command", "inputs", "outputs"}`` in which every integer is rendered as a
decimal string so arbitrary precision survives the trip.  Integers of any
size are accepted up to ``MAX_LITERAL_DIGITS`` (100 000) digits per
integer literal, and negative values such as ``-1,1`` or ``-1/2`` may stand
anywhere in the argument list.  Exit codes: 0 on success, 1 on domain
errors (precondition violations, enumerations past the fixed bounds of
:mod:`cfkit.paths` and :mod:`cfkit.invariants`, literals longer than the
digit bound, repetition groups past the term bound of :mod:`cfkit.literals`,
and k-sequences above the height bound of :mod:`cfkit.contfrac`), 2 on
parse errors.

Each subcommand's handler imports what it calls from the module that defines
it, so a run loads only the modules of its subcommand: ``group``, ``iso`` and
``tensor`` load :mod:`cfkit.invariants` alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DomainError, ParseError

# Digits allowed in one integer literal.  int/str conversion is quadratic in
# the digit count: `invariant` on two 100 000-digit literals takes about 1.5 s,
# and 10**6 digits would take minutes.
MAX_LITERAL_DIGITS = 100_000


def _ints_csv(text: str, *, count: int | None = None, what: str = "integer list") -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"expected a comma-separated {what}, found {text!r}", 0)
    if count is not None and len(values) != count:
        raise ParseError(f"expected {count} comma-separated integers, found {len(values)}", 0)
    return values


def _descriptor(text: str):
    from .invariants import ExtensionDescriptor

    n, a_plus, a_minus, k_plus, k_minus = _ints_csv(text, count=5, what="descriptor")
    return ExtensionDescriptor(n=n, index=(a_plus, a_minus), defects=(k_plus, k_minus))


def _jsonable(value):
    """Lists and dicts keep their shape, booleans and None stay; all else becomes its str."""
    if isinstance(value, (list, tuple)):
        return [str(v) if type(v) is int else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value if value is None or isinstance(value, bool) else str(value)


def _text(value) -> str:
    """Text rendering of a converted value: lists compact, true/false/null lowercase."""
    if isinstance(value, list):
        return "[" + ",".join([v if type(v) is str else _text(v) for v in value]) + "]"
    return value if isinstance(value, str) else json.dumps(value)


def _emit(fmt: str, record: dict) -> None:
    record = _jsonable(record)
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return
    outputs = record["outputs"]
    if "levels" in outputs:
        for level in outputs["levels"]:
            print(f"level {level['level']}: dims={_text(level['dims'])} mult={_text(level['mult'])}")
    elif len(outputs) == 1:
        (value,) = outputs.values()
        print(_text(value))
    else:
        for key, value in outputs.items():
            print(f"{key} = {_text(value)}")


def cmd_eval(args) -> dict:
    from .contfrac import eval_cf
    from .literals import parse_cf, render_cf

    cf = parse_cf(args.cf)
    return {"inputs": {"cf": render_cf(cf)}, "outputs": {"value": eval_cf(cf)}}


def cmd_invariant(args) -> dict:
    from .correspondence import rational_to_invariant
    from .literals import parse_rational

    inv = rational_to_invariant(parse_rational(args.r))
    return {
        "inputs": {"r": inv.theta},
        "outputs": {"n": inv.n, "m": inv.m, "k": inv.k.entries, "theta": inv.theta},
    }


def cmd_rational(args) -> dict:
    from .correspondence import _k_rational, invariant_to_k

    k = invariant_to_k(args.n, args.m)
    theta = _k_rational(k, args.n)
    return {"inputs": {"n": args.n, "m": args.m}, "outputs": {"theta": theta, "k": k.entries}}


def cmd_oracle(args) -> dict:
    from .contfrac import KSequence
    from .paths import enumerate_paths, path_counts

    k = KSequence(tuple(_ints_csv(args.k, what="k-sequence")))
    # Longest first, and counted in full only after, so an over-bound request fails at once.
    # A length f >= 1 with k_f = 0 has no wall to end on, so its count stays 0 unbuilt.
    enumerated = [0] * (k.h + 1)
    for f in range(k.h, -1, -1):
        if f == 0 or k.at(f):
            enumerated[f] = len(enumerate_paths(k, f))
    counts = path_counts(k)
    defect = sum((k.h - f) * c for f, c in enumerate(enumerated))
    m = sum(counts.cumulative[:k.h])
    return {
        "inputs": {"k": k.entries},
        "outputs": {
            "psi": counts.per_length,
            "phi": counts.cumulative,
            "defect": defect,
            "enumerated_counts": enumerated,
            "match": enumerated == list(counts.per_length) and defect == m,
        },
    }


def cmd_group(args) -> dict:
    from .invariants import brute_force_quotient, build_quotient, project, projection_matches_brute_force

    q = build_quotient(tuple(_ints_csv(args.a, count=2, what="index pair")), args.n)
    bf = brute_force_quotient(q.a, q.n)
    return {
        "inputs": {"a": q.a, "n": q.n},
        "outputs": {
            "c": q.c,
            "d": q.d,
            "order": bf.order,
            "generator_images": [project((1, 0), q), project((0, 1), q)],
            "oracle_match": projection_matches_brute_force(q, bf),
        },
    }


def cmd_iso(args) -> dict:
    from .invariants import is_isomorphic

    e = _descriptor(args.e)
    f = _descriptor(args.f)
    return {
        "inputs": {
            "e": {"n": e.n, "a": e.index, "defects": e.defects},
            "f": {"n": f.n, "a": f.index, "defects": f.defects},
        },
        "outputs": {"isomorphic": is_isomorphic(e, f)},
    }


def cmd_tensor(args) -> dict:
    from .invariants import ExtensionDescriptor, tensor_factor

    e = ExtensionDescriptor(n=args.n, index=(-1, 1), defects=(args.m, 0))
    p, l = tensor_factor(e, args.t)
    return {"inputs": {"n": args.n, "m": args.m, "t": args.t}, "outputs": {"p": p, "l": l}}


def cmd_tower(args) -> dict:
    from .contfrac import expand_simple
    from .correspondence import dimension_tower
    from .literals import parse_rational, render_cf

    r = parse_rational(args.r)
    cf = expand_simple(r, args.parity)
    depth = args.depth if args.depth is not None else len(cf.terms)
    levels = [
        {"level": lv.level, "dims": lv.dims, "mult": lv.mult}
        for lv in dimension_tower(cf, depth)
    ]
    return {
        "inputs": {"r": r, "parity": args.parity, "cf": render_cf(cf)},
        "outputs": {"levels": levels},
    }


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (default: text)")

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

    # argparse reads a token that starts with "-" as an option unless this
    # pattern matches it.  No option here looks like a negative number, so
    # every "-<digit>" token is a value (such as -1,1 or -1/2), kept as typed.
    negative = re.compile(r"-\d")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = negative
    return parser


def _check_literal_digits(argv) -> None:
    for token in argv:
        digits = max(map(len, re.findall(r"\d+", token)), default=0)
        if digits > MAX_LITERAL_DIGITS:
            raise DomainError(f"an integer literal has {digits} digits; "
                              f"at most {MAX_LITERAL_DIGITS} are accepted")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Literals are bounded by MAX_LITERAL_DIGITS; results (eval's, say) can be
    # longer, so lift the int/str digit limit (Python >= 3.10.7) for this run.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _check_literal_digits(argv)
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits on --help and on usage errors
            return exc.code
        _emit(args.format, {"command": args.subcommand, **args.handler(args)})
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

if __name__ == "__main__":
    sys.exit(main())
