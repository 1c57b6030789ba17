"""CLI checks that a recorded output cannot make.

Outputs themselves are pinned by the golden corpus in ``cli_corpus.json``
(see ``test_cli_corpus.py``).  The named replays below keep the ids of the
hand-written per-argv tests the corpus replaced; each replays the entries
for the argv that test ran.
"""

import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit.cli
import cfkit.correspondence
import cfkit.paths
from cfkit.cli import main
from cfkit.paths import enumerate_paths
from test_cli_corpus import replay

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_text():
    replay("eval.readme-groups")


def test_eval_fraction():
    replay("eval.fraction")


def test_eval_infinity():
    replay("eval.readme-inf")


def test_eval_json_inf():
    replay("eval.readme-inf.json")


def test_eval_parse_error_exits_2():
    replay("eval.parse-trailing-comma")


def test_term_bound_exits_1():
    replay("eval.term-bound")


def test_invariant_text():
    replay("invariant.readme")


def test_invariant_zero():
    replay("invariant.zero")


def test_invariant_domain_error_exits_1():
    replay("invariant.negative")


def test_negative_rational_before_flags_exits_1():
    replay("invariant.negative.json", "tower.negative")


def test_invariant_bad_literal_exits_2():
    replay("invariant.bad-literal")


def test_json_is_deterministic_and_stringly_typed():
    replay("invariant.readme.json", "invariant.readme.json")


def test_rational_command():
    replay("rational.readme")


def test_rational_builds_the_k_sequence_once(capsys, monkeypatch):
    calls = []
    real = cfkit.correspondence.invariant_to_k

    def counted(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(cfkit.correspondence, "invariant_to_k", counted)
    assert run(capsys, "rational", "--n", "5", "--m", "2") == (0, "theta = 2/5\nk = [0,2]\n", "")
    assert calls == [(5, 2)]


def test_rational_rejects_noncoprime():
    replay("rational.noncoprime")


@pytest.mark.parametrize("command", ["invariant", "rational"])
def test_height_bound_exits_1(command):
    replay(f"{command}.height-bound")


def test_invariant_at_the_height_bound_within_budget(capsys):
    # the forward map takes about a quarter of this; rendering the 10**6 entries of k takes the rest
    start = time.perf_counter()
    code, out, err = run(capsys, "invariant", "1/1000001", "--format", "json")
    elapsed = time.perf_counter() - start
    outputs = json.loads(out)["outputs"]
    assert (code, err, outputs["n"], outputs["m"], len(outputs["k"])) == (0, "", "1000001", "1000000", 10**6)
    assert elapsed < 1


@contextmanager
def no_str_digit_limit():
    """Lift the int/str digit limit (Python >= 3.10.7), for a test's own literals."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@cache
def fibonacci_ratio(digits):
    """F_{i-1}/F_i for the first F_i of the given number of digits: [0; 1, ..., 1, 2]."""
    a, b, bound = 0, 1, 10 ** (digits - 1)
    while b < bound:
        a, b = b, a + b
    return a, b


def test_invariant_on_a_fibonacci_ratio_within_budget(capsys):
    # The longest expansion for its size: 95 694 Euclid steps of quotient 1 and a last 2.  Measured
    # in-process: 0.39-0.63 s, against 0.51-0.84 s when path_counts kept all 2h + 2 counts and
    # 1.12-1.16 s when every step divided and m summed h + 1 counts (shared 2-vCPU Xeon, CPython
    # 3.11); the budget is about three times that.  Traced by tracemalloc, a second run peaks at
    # 6.8 MiB, against 409 MiB with all the counts kept; the bound is about twice that.
    p, q = fibonacci_ratio(20_000)  # F_95696/F_95697
    with no_str_digit_limit():
        argv = ("invariant", f"{p}/{q}", "--format", "json")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        outputs = json.loads(out)["outputs"]
        assert (code, err, int(outputs["n"]), int(outputs["m"])) == (0, "", q, -pow(p, -1, q) % q)
        tracemalloc.start()
        try:
            assert run(capsys, *argv) == (code, out, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert outputs["k"] == ["1"] * 47_848  # the even expansion is 95 696 ones
    assert elapsed < 1.5 and peak < 16 << 20


def test_rational_on_a_fibonacci_pair_within_budget(capsys):
    # The reverse fold takes 2h = 95 696 add/reciprocal steps on integers of up to 20 000 digits.
    # Measured in-process: 1.08-1.47 s, against 1.60-1.67 s when every Euclid step divided (shared
    # 2-vCPU Xeon, CPython 3.11); the budget is about three times that.
    p, q = fibonacci_ratio(20_000)
    with no_str_digit_limit():
        m = -pow(p, -1, q) % q
        start = time.perf_counter()
        code, out, err = run(capsys, "rational", "--n", str(q), "--m", str(m), "--format", "json")
        elapsed = time.perf_counter() - start
        assert (code, err, json.loads(out)["outputs"]["theta"]) == (0, "", f"{p}/{q}")
    assert elapsed < 3.5


@pytest.mark.parametrize("fmt, budget", [("text", 2.5), ("json", 6.5)])
def test_iso_at_the_literal_bound_within_budget(capsys, fmt, budget):
    # e = n,-3,a-,k+,k- with n, a-, k+ and k- at the 100 000-digit literal bound, and its swapped,
    # negated and n-shifted twin.  Measured in-process: text 0.85-0.92 s, json 2.13-2.15 s, nearly
    # all of it int/str conversion (shared 2-vCPU Xeon, CPython 3.11); each budget is about three
    # times that.  a+ = -3 keeps the Bezout companion cheap: pow(a, -1, m) on two 100 000-digit
    # integers alone takes about 7 s.
    rng = random.Random(29)
    low = 10 ** 99_999  # the least 100 000-digit integer; below 4*low, km + n keeps 100 000 digits
    n, a, kp, km = (rng.randrange(low, 4 * low) for _ in range(4))
    with no_str_digit_limit():
        e, f = f"{n},-3,{a},{kp},{km}", f"{n},{-a},3,{km + n},{kp}"
        start = time.perf_counter()
        code, out, err = run(capsys, "iso", "--e", e, "--f", f, "--format", fmt)
        elapsed = time.perf_counter() - start
        if fmt == "json":
            record = json.loads(out)
            assert record["inputs"]["f"] == {"n": str(n), "a": [str(-a), "3"], "defects": [str(km + n), str(kp)]}
            out = json.dumps(record["outputs"])
    assert (code, err, out) == (0, "", "true\n" if fmt == "text" else '{"isomorphic": true}')
    assert elapsed < budget


@pytest.mark.parametrize("fmt, budget", [("text", 1.3), ("json", 2.2)])
def test_tensor_at_the_literal_bound_within_budget(capsys, fmt, budget):
    # n = t*p and m = t*l of about 100 000 digits, from 50 000-digit t, p and l.  Measured in-process:
    # text 0.39-0.45 s, json 0.72-0.75 s, nearly all of it int/str conversion (shared 2-vCPU Xeon,
    # CPython 3.11); each budget is about three times that.
    rng = random.Random(29)
    t, p, l = (rng.randrange(10 ** 49_999, 10 ** 50_000) for _ in range(3))
    with no_str_digit_limit():
        start = time.perf_counter()
        code, out, err = run(capsys, "tensor", "--n", str(t * p), "--m", str(t * l), "--t", str(t), "--format", fmt)
        elapsed = time.perf_counter() - start
        if fmt == "json":
            outputs = json.loads(out)["outputs"]
        else:
            outputs = dict(line.split(" = ") for line in out.splitlines())
        assert (code, err, int(outputs["p"]), int(outputs["l"])) == (0, "", p, l)
    assert elapsed < budget


def test_oracle_command():
    replay("oracle.readme")


def test_oracle_zero_sequence():
    replay("oracle.zero")


def test_oracle_cap_exits_1():
    replay("oracle.cap-exceeded")


def test_oracle_refuses_before_building_shorter_lengths(capsys, monkeypatch):
    lengths = []

    def counted(k, length):
        lengths.append(length)
        return enumerate_paths(k, length)

    monkeypatch.setattr(cfkit.paths, "enumerate_paths", counted)
    code, out, err = run(capsys, "oracle", "--k", "965,890,143,536,536")
    assert code == 1 and out == "" and "1000000 words of length <= 5" in err
    assert lengths == [5]


def test_oracle_refuses_a_long_sequence_before_counting_it(capsys):
    # counted in full, the counts of 50 000 ones run to about 70 000 bits
    argv = ["oracle", "--k", ",".join(["1"] * 50_000)]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5 and peak < 64 << 20
    assert (code, out, err) == (1, "", "error: more than 1000000 words of length <= 50000 to enumerate\n")


def test_oracle_zero_chain_at_length_1000(capsys):
    # 1000 words of 1000 edges; built level by level this took 2.5-5.4 s
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--k", ",".join(["0"] * 999 + ["1"]), "--format", "json")
    assert time.perf_counter() - start < 0.5
    outputs = json.loads(out)["outputs"]
    assert (code, err, outputs["match"], outputs["enumerated_counts"][-1]) == (0, "", True, "1000")


def test_oracle_builds_only_lengths_that_end_on_a_wall(capsys, monkeypatch):
    # lengths f >= 1 with k_f = 0 hold no words; only length 0 and the support are built
    lengths = []

    def counted(k, length):
        lengths.append(length)
        return enumerate_paths(k, length)

    monkeypatch.setattr(cfkit.paths, "enumerate_paths", counted)
    entries = ["0"] * 40 + ["2"] + ["0"] * 18 + ["1"]
    code, out, err = run(capsys, "oracle", "--k", ",".join(entries), "--format", "json")
    outputs = json.loads(out)["outputs"]
    assert (code, err, outputs["match"]) == (0, "", True)
    assert lengths == [60, 41, 0]  # support size + 1, longest first
    assert [f for f, c in enumerate(outputs["enumerated_counts"]) if c != "0"] == [0, 41, 60]


def test_oracle_refuses_a_long_zero_chain_before_building_it(capsys):
    # 50 000 words of 50 000 edges would be 2.5 * 10^9 edge references
    argv = ["oracle", "--k", ",".join(["0"] * 49_999 + ["1"])]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 64 << 20
    assert (code, out) == (1, "")
    assert err == "error: more than 10000000 edges in the 50000 words of length 50000 to enumerate\n"


def test_group_command():
    replay("group.readme", "group.negative-pair")


def test_group_order_twelve():
    replay("group.order-twelve")


def test_group_degenerate_exits_1():
    replay("group.degenerate")


def test_group_index_pair_needs_two_integers():
    replay("group.three-integers")


def test_group_cap(capsys):
    # d = 1: the n^2 box and the table both have n^2 entries, at most 2^20
    code, out, err = run(capsys, "group", "--a", "1,2", "--n", "1024", "--format", "json")
    assert code == 0 and json.loads(out)["outputs"]["order"] == "1024" and not err
    replay("group.cap-default-forty", "group.cap-over")  # n = 40 accepted, n = 1025 refused


@pytest.mark.parametrize("command", ["eval", "invariant", "rational", "iso", "tensor", "tower"])
def test_cap_is_rejected_outside_oracle_and_group(command):
    replay(f"{command}.cap-rejected")


@pytest.mark.parametrize("command", ["oracle", "group"])
def test_cap_is_rejected_by_oracle_and_group(command):
    replay(f"{command}.cap-rejected")


@pytest.mark.parametrize("command", ["eval", "oracle", "group", "rational"])
def test_malformed_negative_values_read_as_typed(command):
    replay(f"{command}.malformed-negative")


def test_iso_command():
    replay("iso.defect-moved", "iso.size-differs")


def test_json_booleans_stay_boolean():
    replay("iso.readme.json")


def test_tensor_command():
    replay("tensor.readme")


def test_tensor_no_factorization_exits_1():
    replay("tensor.no-factorization")


def test_tower_command():
    replay("tower.readme")


def test_tower_odd_parity():
    replay("tower.odd")


def test_json_tower_levels():
    replay("tower.default.json")


def test_integers_beyond_the_str_digit_limit():
    # main lifts the int/str digit limit for its run only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    replay("invariant.digits-4400.json")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_literal_digit_bound(capsys):
    bound = 100_000  # documented in README "Command line"
    at_bound = "1" + "0" * (bound - 1)
    code, _, err = run(capsys, "invariant", at_bound)
    assert code == 1 and "0 <= r < 1" in err
    code, out, err = run(capsys, "invariant", f"1/{at_bound}1")
    assert code == 1 and out == ""
    assert err == (f"error: an integer literal has {bound + 1} digits;"
                   f" at most {bound} are accepted\n")


def test_help_exits_0(capsys):
    # help text differs across Python versions, so the corpus leaves it out
    assert main(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: cfkit")


def _fibonacci_ratio(index):
    a, b = 0, 1
    for _ in range(index):
        a, b = b, a + b
    return f"{a}/{b}"


# Each prints far more than a pipe holds: F_4785/F_4786 (about 1 000 digits) has thousands of tower
# levels, and the k-sequence of 1/1000000 has 999 999 entries.
@pytest.mark.parametrize("argv", [["tower", _fibonacci_ratio(4785)], ["invariant", "1/1000000"],
                                  ["invariant", "1/1000000", "--format", "json"]],
                         ids=["tower-fibonacci", "invariant-text", "invariant-json"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cfkit.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "cfkit.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1)  # the output has begun
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, "")  # no traceback, and no message either


def test_an_interrupt_exits_1_without_a_traceback(capsys, monkeypatch):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit, seen = get_limit(), []

    def interrupted(args):
        seen.append(get_limit())
        raise KeyboardInterrupt

    monkeypatch.setattr(cfkit.cli, "cmd_tower", interrupted)
    assert run(capsys, "tower", "2/5") == (1, "", "interrupted\n")  # one line, no traceback
    # the handler ran with the digit limit lifted, and main restored it
    assert seen == [None if limit is None else 0] and get_limit() == limit


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```text", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines() if line.startswith("cfkit ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and not err


# Short argv tokens: integers of at most three digits, alone, in comma lists,
# as p/q or in continued-fraction literals, and text over the literal
# alphabet.  Each flag of a subcommand gets a value of its own type, one time
# in four any token; one time in four a few more tokens, flags among them,
# follow.
_int = st.integers(-999, 999).map(str)
_csv = st.lists(_int, min_size=1, max_size=5).map(",".join)
_pair = st.lists(_int, min_size=2, max_size=2).map(",".join)
_descriptor = st.lists(_int, min_size=5, max_size=5).map(",".join)
_ratio = st.tuples(_int, _int).map("/".join)
_text = st.text("0123456789[](),;^-/ ", max_size=8)
_cf = st.builds(
    lambda a0, terms: f"[{a0};{','.join(terms)}]",
    _int,
    st.lists(st.one_of(_int, st.tuples(_csv, _int).map("^".join).map("({})".format)), max_size=4),
)
_any = st.one_of(_int, _csv, _ratio, _text, st.sampled_from(["even", "odd", "json"]))
_flags = st.sampled_from(["--n", "--m", "--t", "--k", "--a", "--e", "--f", "--depth", "--parity", "--format", "--cap"])
_SLOTS = {
    "eval": [(None, st.one_of(_cf, _text))],
    "invariant": [(None, _ratio)],
    "rational": [("--n", _int), ("--m", _int)],
    "oracle": [("--k", _csv)],
    "group": [("--a", _pair), ("--n", _int)],
    "iso": [("--e", _descriptor), ("--f", _descriptor)],
    "tensor": [("--n", _int), ("--m", _int), ("--t", _int)],
    "tower": [(None, _ratio), ("--parity", st.sampled_from(["even", "odd"])), ("--depth", _int)],
}


@st.composite
def _argv(draw):
    subcommand = draw(st.sampled_from(sorted(_SLOTS)))
    argv = [subcommand]
    for flag, values in _SLOTS[subcommand]:
        value = draw(_any if draw(st.integers(0, 3)) == 3 else values)
        argv += [value] if flag is None else [flag, value]
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(st.one_of(_any, _flags), min_size=1, max_size=2))
    return argv


@given(_argv())
@settings(deadline=None)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
