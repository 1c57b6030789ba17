"""Seeded inputs, operations and expected answers for each workload.

Every workload is a closed loop with one client: an operation is issued
only after the previous one returned.  ``setup(seed, lib)`` builds a
:class:`Plan` whose operations hold their inputs and the answer they must
give; the library sees only the generated inputs.  Sizes are drawn by
stratified sampling (one draw per equal-width stratum of each size range),
so a different seed gives different inputs with the same size distribution.

Each operation exposes ``call(lib)`` (the timed work), ``check(out)``,
``line(out)`` (a canonical text form of the output for the digest) and
``cost`` (a sort key that grows with the work it does).  The
digest covers a seed-independent set: for ``farey`` the whole input set,
elsewhere a fixed list of anchor operations run after the timed phase.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_TIMEOUT_S = 60


@dataclass
class Plan:
    ops: list
    anchors: list = field(default_factory=list)
    digest_from_pass: bool = False  # digest the first full pass instead of the anchors


GOLDEN = 0.6180339887498949


def spread_order(ops: list, rng: random.Random) -> list:
    """Seeded order in which every stretch of a pass holds a like share of each kind and size.

    Ops are grouped by (kind, family) and ranked by cost; rank r of a group
    gets the key (offset + r * golden ratio) mod 1 with a seeded offset per
    group, a low-discrepancy sequence.  A run that stops part-way through a
    pass has then done a representative sample of the mix, which keeps
    throughput from depending on where the cut fell.
    """
    rng.shuffle(ops)  # seeded tie order within equal costs
    groups: dict[tuple, list] = {}
    for op in ops:
        groups.setdefault((op.kind, op.family), []).append(op)
    keyed = []
    for name in sorted(groups):
        offset = rng.random()
        ranked = sorted(groups[name], key=lambda op: op.cost)
        keyed.extend(((offset + r * GOLDEN) % 1.0, op) for r, op in enumerate(ranked))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of ``count`` equal-width strata of [lo, hi]."""
    out = []
    for i in range(count):
        a = lo + (hi - lo + 1) * i // count
        b = lo + (hi - lo + 1) * (i + 1) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


# ---------------------------------------------------------------------------
# farey and deep: one forward or one reverse call


class Forward:
    kind = "forward"
    __slots__ = ("family", "x", "n", "m", "k", "size", "cost")

    def __init__(self, p: int, q: int, family: str = ""):
        self.family = family
        self.x = Fraction(p, q)
        self.n, self.m, self.k = ref.forward(p, q)
        self.size = ref.size_axes(p, q)
        self.cost = (self.size["h"], self.size["bits"])

    def call(self, lib):
        return lib.rational_to_invariant(self.x)

    def check(self, out) -> bool:
        return (out.n == self.n and out.m == self.m and out.theta == self.x
                and out.k.entries == self.k)

    def line(self, out) -> str:
        return f"F {self.x} -> {out.theta} {out.n} {out.m} {','.join(map(str, out.k.entries))}"


class Reverse:
    kind = "reverse"
    __slots__ = ("family", "x", "n", "m", "size", "cost")

    def __init__(self, p: int, q: int, family: str = ""):
        self.family = family
        self.x = Fraction(p, q)
        self.n, self.m, _ = ref.forward(p, q)
        self.size = ref.size_axes(p, q)
        self.cost = (self.size["h"], self.size["bits"])

    def call(self, lib):
        return lib.invariant_to_rational(self.n, self.m)

    def check(self, out) -> bool:
        return type(out) is Fraction and out == self.x

    def line(self, out) -> str:
        return f"R {self.n} {self.m} {out}"


def _both(pairs, family: str = "") -> list:
    ops = []
    for p, q in pairs:
        ops.append(Forward(p, q, family))
        ops.append(Reverse(p, q, family))
    return ops


FAREY_MAX_Q = 200


def setup_farey(seed: int, lib) -> Plan:
    pairs = [(p, q) for q in range(1, FAREY_MAX_Q + 1) for p in range(q) if gcd(p, q) == 1]
    ops = spread_order(_both(pairs), random.Random(seed))
    return Plan(ops, digest_from_pass=True)


DEEP_PER_FAMILY = 40
DEEP_MAX_H = 1500


def _fib(count: int) -> list[int]:
    f = [0, 1]
    while len(f) < count:
        f.append(f[-1] + f[-2])
    return f


def setup_deep(seed: int, lib) -> Plan:
    """Three families with large k-sequence height h.

    (a) 1/q, where h = q - 1 with few denominator bits; (b) F_n/F_{n+1},
    whose CF has about n terms and h about n/2; (c) random 64-512-bit
    rationals.  The height of a random rational is heavy-tailed, so (c) is
    redrawn until h lies in [2.0, 2.9] x bits (around its typical value) and
    h <= DEEP_MAX_H; otherwise the work per pass would swing with the seed.
    """
    rng = random.Random(seed)
    family_a = [(1, q) for q in strata(rng, 2, DEEP_MAX_H + 1, DEEP_PER_FAMILY)]
    fib = _fib(1002)
    family_b = [(fib[n], fib[n + 1]) for n in strata(rng, 3, 1000, DEEP_PER_FAMILY)]
    family_c = []
    for bits in strata(rng, 64, 512, DEEP_PER_FAMILY):
        while True:
            q = rng.getrandbits(bits) | (1 << (bits - 1))
            p = rng.randrange(1, q)
            g = gcd(p, q)
            p, q = p // g, q // g
            if 2.0 * bits <= ref.size_axes(p, q)["h"] <= min(2.9 * bits, DEEP_MAX_H):
                break
        family_c.append((p, q))
    ops = spread_order(_both(family_a, "a") + _both(family_b, "b") + _both(family_c, "c"), rng)
    anchors = [Forward(1, 1000, "anchor"), Forward(1, 3000, "anchor"), Reverse(1, 30000, "anchor")]
    return Plan(ops, anchors)


# ---------------------------------------------------------------------------
# oracle: one dual-route check


class PathsCheck:
    """Enumerated words per length and by defect against path_counts and k_to_invariant."""

    kind = "paths"
    family = "paths"
    __slots__ = ("entries", "per", "n", "m", "size", "cost")

    def __init__(self, entries: tuple[int, ...]):
        self.entries = entries
        self.per = tuple(ref.per_length_counts(entries))
        support = [(i, e) for i, e in enumerate(entries, start=1) if e]
        self.n, self.m = ref.invariant_of_support(support)
        self.size = {"h": len(entries), "support": len(support), "words": 2 * sum(self.per)}
        self.cost = self.size["words"]

    def call(self, lib):
        k = lib.KSequence(self.entries)
        counts = lib.path_counts(k)
        enumerated = tuple(len(lib.enumerate_paths(k, f)) for f in range(k.h + 1))
        defect = lib.defect_by_enumeration(k)
        return tuple(counts.per_length), enumerated, defect, lib.k_to_invariant(k)

    def check(self, out) -> bool:
        per, enumerated, defect, nm = out
        return per == self.per and enumerated == self.per and defect == self.m and nm == (self.n, self.m)

    def line(self, out) -> str:
        return f"P {self.entries} {out}"


class QuotientCheck:
    """Closed-form quotient group against the enumerated cosets."""

    kind = "quotient"
    family = "quotient"
    __slots__ = ("a", "n", "order", "size", "cost")

    def __init__(self, a: tuple[int, int], n: int):
        self.a, self.n = a, n
        self.order = ref.quotient_order(a, n)
        self.size = {"n": n, "order": self.order}
        self.cost = n ** 3 + self.order ** 2

    def call(self, lib):
        q = lib.build_quotient(self.a, self.n)
        bf = lib.brute_force_quotient(self.a, self.n)
        return q.order, bf.order, lib.projection_matches_brute_force(q, bf)

    def check(self, out) -> bool:
        return out == (self.order, self.order, True)

    def line(self, out) -> str:
        return f"Q {self.a} {self.n} {out}"


class IsoCheck:
    """is_isomorphic(e, f) against equality of invariant classes."""

    kind = "iso"
    family = "iso"
    __slots__ = ("e", "f", "truth", "size", "cost")

    def __init__(self, e: tuple, f: tuple):
        self.e, self.f = e, f
        self.truth = ref.isomorphic(e, f)
        self.size = {"n": e[0]}
        self.cost = e[0]

    def call(self, lib):
        e = lib.ExtensionDescriptor(n=self.e[0], index=self.e[1], defects=self.e[2])
        f = lib.ExtensionDescriptor(n=self.f[0], index=self.f[1], defects=self.f[2])
        return lib.is_isomorphic(e, f), lib.invariant_class(e) == lib.invariant_class(f)

    def check(self, out) -> bool:
        return out == (self.truth, self.truth)

    def line(self, out) -> str:
        return f"I {self.e} {self.f} {out}"


def random_k(rng: random.Random, lo_words: int, hi_words: int) -> tuple[int, ...]:
    """A k-sequence whose wall-terminated word count sum(psi) lies in [lo, hi]."""
    while True:
        h = rng.randint(3, 9)
        entries = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(h)]
        entries[-1] = entries[-1] or 1
        if lo_words <= sum(ref.per_length_counts(tuple(entries))) <= hi_words:
            return tuple(entries)


def _nonzero_pair(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        a = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if a != (0, 0):
            return a


def descriptor_pair(rng: random.Random, n: int, isomorphic: bool) -> tuple[tuple, tuple]:
    """(e, f) descriptors; f is built isomorphic to e when asked, else drawn at random.

    The isomorphic twin applies a symmetry to e and shifts its defects by
    nZ^2, which the quotient kills.
    """
    a = _nonzero_pair(rng, 5)
    e = (n, a, (rng.randrange(3 * n), rng.randrange(3 * n)))
    sym = rng.choice(ref.SYMMETRIES)
    fa, fk = ref.apply_symmetry(sym, a, e[2])
    if isomorphic:
        fk = (fk[0] + n * rng.randint(0, 2), fk[1] + n * rng.randint(0, 2))
    else:
        fk = (rng.randrange(3 * n), rng.randrange(3 * n))
    return e, (n, fa, fk)


ORACLE_PATHS = 16
ORACLE_QUOTIENTS = 32
ORACLE_ISO = 16


def _index_with_content(rng: random.Random, c: int) -> tuple[int, int]:
    """c * (x, y) with gcd(x, y) = 1, so the index has content exactly c."""
    while True:
        x, y = _nonzero_pair(rng, 4)
        if gcd(x, y) == 1:
            return c * x, c * y


def setup_oracle(seed: int, lib) -> Plan:
    """Per pass: 16 path-word checks, 32 quotient checks and 16 isomorphism checks.

    Path checks take most of the time; the median operation falls in the
    middle of the quotient checks, whose cost (n^3 box points plus a table
    of order^2 entries) is fixed by n and the index content c, both drawn
    on a fixed pattern so the median does not move with the seed.
    """
    rng = random.Random(seed)
    ops = []
    # Word counts from 200 to 2600 per k-sequence: about 2 x 48k words/s at the seed.
    for i in range(ORACLE_PATHS):
        lo = 200 + 150 * i
        ops.append(PathsCheck(random_k(rng, lo, lo + 149)))
    for i, n in enumerate(strata(rng, 2, 32, ORACLE_QUOTIENTS)):
        ops.append(QuotientCheck(_index_with_content(rng, 1 + i % 3), n))
    for i, n in enumerate(strata(rng, 2, 40, ORACLE_ISO)):
        ops.append(IsoCheck(*descriptor_pair(rng, n, isomorphic=i % 2 == 0)))
    ops = spread_order(ops, rng)
    anchors = [
        PathsCheck((1, 1)), PathsCheck((2, 0, 1)), PathsCheck((1, 2, 1, 1)),
        QuotientCheck((-1, 1), 5), QuotientCheck((2, 4), 6), QuotientCheck((3, -6), 9),
        IsoCheck((5, (-1, 1), (0, 2)), (5, (1, -1), (2, 0))),
        IsoCheck((6, (2, 4), (1, 3)), (6, (4, 2), (3, 2))),
    ]
    return Plan(ops, anchors)


# ---------------------------------------------------------------------------
# cli: one subprocess per operation


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _js(value):
    """The CLI's JSON rendering: integers and rationals become decimal strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_js(v) for v in value]
    if isinstance(value, dict):
        return {k: _js(v) for k, v in value.items()}
    return str(value)


class CliCall:
    """``python -m cfkit.cli <argv> --format json`` and the exit code and record it must give."""

    kind = "cli"
    __slots__ = ("family", "argv", "code", "record", "size", "cost")

    def __init__(self, subcommand: str, args: list[str], code: int = 0, record: dict | None = None):
        self.family = subcommand if code == 0 else f"exit{code}"
        self.argv = [subcommand, *args, "--format", "json"]
        self.code = code
        self.record = _js(record) if record is not None else None
        self.size = {"subcommand": subcommand, "argv_chars": sum(map(len, self.argv))}
        self.cost = self.size["argv_chars"]

    def call(self, lib):
        proc = subprocess.run(
            [sys.executable, "-m", "cfkit.cli", *self.argv],
            capture_output=True, text=True, cwd=ROOT, env=cli_env(), timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def call_in_process(self, lib):
        """The same argv through cfkit.cli.main in this process, output captured."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lib.cli.main(list(self.argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, out) -> bool:
        code, stdout, stderr = out
        if code != self.code or "Traceback" in stderr:
            return False
        if code != 0:
            return stdout == "" and stderr.strip() != ""
        try:
            return json.loads(stdout) == self.record
        except ValueError:
            return False

    def line(self, out) -> str:
        return f"C {' '.join(self.argv)} -> {out[0]} {out[1].strip()}"


def _eval_call(lib, text: str) -> CliCall:
    cf = lib.parse_cf(text)
    return CliCall("eval", [text], record={
        "command": "eval", "inputs": {"cf": lib.render_cf(cf)}, "outputs": {"value": lib.eval_cf(cf)},
    })


def _invariant_call(p: int, q: int) -> CliCall:
    n, m, k = ref.forward(p, q)
    theta = Fraction(p, q)
    return CliCall("invariant", [f"{p}/{q}"], record={
        "command": "invariant", "inputs": {"r": theta},
        "outputs": {"n": n, "m": m, "k": list(k), "theta": theta},
    })


def _rational_call(p: int, q: int) -> CliCall:
    n, m, k = ref.forward(p, q)
    return CliCall("rational", ["--n", str(n), "--m", str(m)], record={
        "command": "rational", "inputs": {"n": n, "m": m},
        "outputs": {"theta": Fraction(p, q), "k": list(k)},
    })


def _oracle_call(entries: tuple[int, ...]) -> CliCall:
    per = ref.per_length_counts(entries)
    phi = [sum(per[: f + 1]) for f in range(len(per))]
    support = [(i, e) for i, e in enumerate(entries, start=1) if e]
    _, m = ref.invariant_of_support(support)
    return CliCall("oracle", ["--k", ",".join(map(str, entries))], record={
        "command": "oracle", "inputs": {"k": list(entries)},
        "outputs": {"psi": per, "phi": phi, "defect": m, "enumerated_counts": per, "match": True},
    })


def _group_call(lib, a: tuple[int, int], n: int) -> CliCall:
    q = lib.build_quotient(a, n)
    return CliCall("group", ["--a", f"{a[0]},{a[1]}", "--n", str(n)], record={
        "command": "group", "inputs": {"a": list(a), "n": n},
        "outputs": {
            "c": q.c, "d": q.d, "order": ref.quotient_order(a, n),
            "generator_images": [list(lib.project((1, 0), q)), list(lib.project((0, 1), q))],
            "oracle_match": True,
        },
    })


def _iso_call(e: tuple, f: tuple) -> CliCall:
    def text(d):
        return f"{d[0]},{d[1][0]},{d[1][1]},{d[2][0]},{d[2][1]}"

    def inputs(d):
        return {"n": d[0], "a": list(d[1]), "defects": list(d[2])}

    return CliCall("iso", ["--e", text(e), "--f", text(f)], record={
        "command": "iso", "inputs": {"e": inputs(e), "f": inputs(f)},
        "outputs": {"isomorphic": ref.isomorphic(e, f)},
    })


def _tensor_call(lib, n: int, m: int, t: int) -> CliCall:
    e = lib.ExtensionDescriptor(n=n, index=(-1, 1), defects=(m, 0))
    p, l = lib.tensor_factor(e, t)
    return CliCall("tensor", ["--n", str(n), "--m", str(m), "--t", str(t)], record={
        "command": "tensor", "inputs": {"n": n, "m": m, "t": t}, "outputs": {"p": p, "l": l},
    })


def _tower_call(lib, p: int, q: int, parity: str) -> CliCall:
    r = Fraction(p, q)
    cf = lib.expand_simple(r, parity)
    levels = lib.dimension_tower(cf, len(cf.terms))
    return CliCall("tower", [f"{p}/{q}", "--parity", parity], record={
        "command": "tower", "inputs": {"r": r, "parity": parity, "cf": lib.render_cf(cf)},
        "outputs": {"levels": [
            {"level": lv.level, "dims": list(lv.dims),
             "mult": [list(row) for row in lv.mult] if lv.mult is not None else None}
            for lv in levels
        ]},
    })


def _coprime(rng: random.Random, q: int) -> int:
    while True:
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            return p


def setup_cli(seed: int, lib) -> Plan:
    """A seeded mix of all 8 subcommands at moderate sizes plus expected errors.

    Per pass: 52 calls.  The 8 ``rational --n N --m N-1`` calls (N in
    5000..10000, h = N - 1) take 2-3 times a plain call, so the p90 tail
    lands inside that group and follows the reverse fold; 8 calls must exit
    2 (malformed literal) or 1 (domain error).
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(4):
        terms = [rng.randint(0, 9) for _ in range(rng.randint(10, 30))]
        ops.append(_eval_call(lib, f"[{rng.randint(0, 5)};{','.join(map(str, terms))}]"))
    for count in strata(rng, 1000, 2000, 4):
        ops.append(_eval_call(lib, f"[{rng.randint(0, 5)},(0,{rng.randint(1, 3)})^{count}]"))
    for q in strata(rng, 3, 400, 5):
        ops.append(_invariant_call(_coprime(rng, q), q))
    for q in strata(rng, 3, 400, 5):
        ops.append(_rational_call(_coprime(rng, q), q))
    for big in strata(rng, 5000, 10000, 8):
        ops.append(_rational_call(1, big))
    for i in range(4):
        ops.append(_oracle_call(random_k(rng, 20 + 100 * i, 119 + 100 * i)))
    for n in strata(rng, 2, 16, 4):
        ops.append(_group_call(lib, _nonzero_pair(rng, 4), n))
    for i, n in enumerate(strata(rng, 2, 30, 4)):
        ops.append(_iso_call(*descriptor_pair(rng, n, isomorphic=i % 2 == 0)))
    for n in strata(rng, 4, 60, 4):
        divisors = [t for t in range(1, n + 1) if n % t == 0]
        t = rng.choice(divisors)
        ops.append(_tensor_call(lib, n, t * rng.randrange(n // t), t))
    for q in strata(rng, 3, 300, 4):
        ops.append(_tower_call(lib, _coprime(rng, q), q, rng.choice(("even", "odd"))))
    # Expected failures: 2 for parse errors, 1 for precondition violations.
    a, b = rng.randint(0, 9), rng.randint(1, 9)
    ops.append(CliCall("eval", [f"[{a};{b},]"], code=2))
    ops.append(CliCall("eval", [f"[{a},({b},1)^0]"], code=2))
    ops.append(CliCall("invariant", [f"{a}/{b}x"], code=2))
    ops.append(CliCall("eval", [f"[{a};{b}"], code=2))
    q = rng.randint(3, 400)
    ops.append(CliCall("invariant", [f"{q + 1}/{q}"], code=1))
    ops.append(CliCall("rational", ["--n", str(2 * q), "--m", str(2 * rng.randint(1, q - 1))], code=1))
    ops.append(CliCall("tensor", ["--n", str(2 * q + 1), "--m", "1", "--t", "2"], code=1))
    ops.append(CliCall("oracle", ["--k", f"{a},-{b}"], code=1))
    ops = spread_order(ops, rng)
    anchors = [
        _eval_call(lib, "[1,(0,1)^3]"), _eval_call(lib, "[1,0]"), _invariant_call(2, 5),
        _rational_call(2, 5), _oracle_call((1, 1)), _group_call(lib, (-1, 1), 5),
        _iso_call((5, (-1, 1), (0, 2)), (5, (1, -1), (2, 0))), _tensor_call(lib, 6, 2, 2),
        _tower_call(lib, 2, 5, "even"),
    ]
    return Plan(ops, anchors)


def known_defect_call(seed: int) -> CliCall:
    """ROADMAP open item 3: ``invariant K/(K+1)`` with more than 4300 digits.

    The CF is [0; 1, K], so h = 1 and the work is trivial, but the CLI dies
    parsing the integer (Python's int/str digit limit) with a traceback.
    """
    rng = random.Random(seed)
    k = rng.randrange(10**4400, 10**4401)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _invariant_call(k, k + 1)
    finally:
        sys.set_int_max_str_digits(limit)


SETUPS = {
    "farey": setup_farey,
    "deep": setup_deep,
    "oracle": setup_oracle,
    "cli": setup_cli,
}
