"""CLI checks that a recorded output cannot make.

Outputs themselves are pinned by the golden corpus in ``cli_corpus.json``
(see ``test_cli_corpus.py``).  The named replays below keep the ids of the
hand-written per-argv tests the corpus replaced; each replays the entries
for the argv that test ran.
"""

import io
import json
import shlex
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
