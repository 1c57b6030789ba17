import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit.cli
from cfkit.cli import main
from cfkit.paths import enumerate_paths

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "[1,(0,1)^3]")
    assert code == 0 and out == "4\n"


def test_eval_fraction(capsys):
    code, out, _ = run(capsys, "eval", "[0;2,2]")
    assert code == 0 and out == "2/5\n"


def test_eval_infinity(capsys):
    code, out, _ = run(capsys, "eval", "[1,0]")
    assert code == 0 and out == "inf\n"


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "[1,0,]")
    assert code == 2 and "parse error" in err and "position" in err


def test_invariant_text(capsys):
    code, out, _ = run(capsys, "invariant", "2/5")
    assert code == 0
    assert out.splitlines() == ["n = 5", "m = 2", "k = [0,2]", "theta = 2/5"]


def test_invariant_zero(capsys):
    code, out, _ = run(capsys, "invariant", "0/1")
    assert code == 0
    assert "n = 1" in out and "m = 0" in out and "k = []" in out


def test_invariant_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "invariant", "-1/2")
    assert code == 1 and "error" in err


def test_negative_rational_before_flags_exits_1(capsys):
    code, out, err = run(capsys, "invariant", "-1/2", "--format", "json")
    assert code == 1 and out == "" and "0 <= r < 1" in err
    code, out, err = run(capsys, "tower", "-2/5", "--parity", "odd")
    assert code == 1 and out == "" and "0 <= r < 1" in err


def test_invariant_bad_literal_exits_2(capsys):
    code, _, err = run(capsys, "invariant", "two fifths")
    assert code == 2 and "parse error" in err


def test_rational_command(capsys):
    code, out, _ = run(capsys, "rational", "--n", "5", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["theta = 2/5", "k = [0,2]"]


def test_rational_rejects_noncoprime(capsys):
    code, _, err = run(capsys, "rational", "--n", "4", "--m", "2")
    assert code == 1 and "gcd" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert "psi = [1,1,3]" in lines
    assert "phi = [1,2,5]" in lines
    assert "defect = 3" in lines
    assert "match = true" in lines


def test_oracle_zero_sequence(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "0")
    assert code == 0
    assert "phi = [1]" in out and "defect = 0" in out and "match = true" in out


def test_oracle_cap_exits_1(capsys):
    code, _, err = run(capsys, "oracle", "--k", "3,3,3,3,3,3", "--cap", "10")
    assert code == 1 and "cap" in err


def test_oracle_refuses_before_building_shorter_lengths(capsys, monkeypatch):
    lengths = []

    def counted(k, length, cap):
        lengths.append(length)
        return enumerate_paths(k, length, cap=cap)

    monkeypatch.setattr(cfkit.cli, "enumerate_paths", counted)
    code, out, err = run(capsys, "oracle", "--k", "965,890,143,536,536")
    assert code == 1 and out == "" and "cap" in err
    assert lengths == [5]


def test_group_cap(capsys):
    code, out, err = run(capsys, "group", "--a", "1,2", "--n", "40")
    assert code == 1 and out == "" and err == "error: n=40 exceeds the brute-force cap 32\n"
    code, out, err = run(capsys, "group", "--a", "1,2", "--n", "40", "--cap", "50")
    assert code == 0 and not err
    assert "order = 40" in out.splitlines() and "oracle_match = true" in out


@pytest.mark.parametrize("argv", [
    ["eval", "[0;2,2]"],
    ["invariant", "2/5"],
    ["rational", "--n", "5", "--m", "2"],
    ["iso", "--e", "5,-1,1,0,2", "--f", "5,1,-1,2,0"],
    ["tensor", "--n", "6", "--m", "2", "--t", "2"],
    ["tower", "2/5"],
], ids=lambda argv: argv[0])
def test_cap_is_rejected_outside_oracle_and_group(capsys, argv):
    with pytest.raises(SystemExit) as exc:  # argparse reports its own errors this way
        main([*argv, "--cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


def test_group_command(capsys):
    code, out, _ = run(capsys, "group", "--a", "-1,1", "--n", "5")
    assert code == 0
    assert "d = 1" in out and "order = 5" in out and "oracle_match = true" in out
    code, out, _ = run(capsys, "group", "--a", "-1,-1", "--n", "5")
    assert code == 0
    assert "d = 1" in out and "order = 5" in out and "oracle_match = true" in out


def test_group_order_twelve(capsys):
    code, out, _ = run(capsys, "group", "--a", "2,4", "--n", "6")
    assert code == 0 and "order = 12" in out


def test_group_degenerate_exits_1(capsys):
    code, _, err = run(capsys, "group", "--a", "0,0", "--n", "3")
    assert code == 1 and "degenerate" in err


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "--e", "5,-1,1,0,2", "--f", "5,-1,1,1,1")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "iso", "--e", "5,-1,1,0,2", "--f", "7,-1,1,0,2")
    assert code == 0 and out == "false\n"


def test_tensor_command(capsys):
    code, out, _ = run(capsys, "tensor", "--n", "6", "--m", "2", "--t", "2")
    assert code == 0
    assert out.splitlines() == ["p = 3", "l = 1"]


def test_tensor_no_factorization_exits_1(capsys):
    code, _, err = run(capsys, "tensor", "--n", "5", "--m", "2", "--t", "2")
    assert code == 1 and "no factorization" in err


def test_tower_command(capsys):
    code, out, _ = run(capsys, "tower", "2/5", "--parity", "even")
    assert code == 0
    assert out.splitlines() == [
        "level 1: dims=[2,1] mult=[[2,1],[1,0]]",
        "level 2: dims=[5,2] mult=null",
    ]


def test_tower_odd_parity(capsys):
    code, out, _ = run(capsys, "tower", "2/5", "--parity", "odd")
    assert code == 0
    assert out.splitlines()[-1] == "level 3: dims=[5,3] mult=null"


def test_json_is_deterministic_and_stringly_typed(capsys):
    code, out1, _ = run(capsys, "invariant", "2/5", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "invariant", "2/5", "--format", "json")
    assert out1 == out2
    record = json.loads(out1)
    assert set(record) == {"command", "inputs", "outputs"}
    assert record["command"] == "invariant"
    assert record["outputs"]["n"] == "5"
    assert record["outputs"]["k"] == ["0", "2"]
    assert record["outputs"]["theta"] == "2/5"


def test_json_booleans_stay_boolean(capsys):
    code, out, _ = run(capsys, "iso", "--e", "5,-1,1,0,2", "--f", "5,1,-1,2,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"]["isomorphic"] is True


def test_json_tower_levels(capsys):
    code, out, _ = run(capsys, "tower", "2/5", "--format", "json")
    record = json.loads(out)
    levels = record["outputs"]["levels"]
    assert levels[0] == {"level": "1", "dims": ["2", "1"], "mult": [["2", "1"], ["1", "0"]]}
    assert levels[1]["mult"] is None


def test_eval_json_inf(capsys):
    code, out, _ = run(capsys, "eval", "[1,0]", "--format", "json")
    assert json.loads(out)["outputs"]["value"] == "inf"


def test_integers_beyond_the_str_digit_limit(capsys):
    # digits built as text, so no int/str conversion happens in the test itself
    num, den = "1" + "0" * 4400, "1" + "0" * 4399 + "1"
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "invariant", f"{num}/{den}", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["outputs"]["n"] == den
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_literal_digit_bound(capsys):
    bound = 100_000  # documented in README "Command line"
    code, out, _ = run(capsys, "rational", "--n", "1" * 5000 + "3", "--m", "2", "--format", "json")
    assert code == 0 and json.loads(out)["outputs"]["theta"].endswith("/" + "1" * 5000 + "3")
    at_bound = "1" + "0" * (bound - 1)
    code, _, err = run(capsys, "invariant", at_bound)
    assert code == 1 and "0 <= r < 1" in err
    code, out, err = run(capsys, "invariant", f"1/{at_bound}1")
    assert code == 1 and out == ""
    assert err == (f"error: an integer literal has {bound + 1} digits;"
                   f" at most {bound} are accepted\n")


@pytest.mark.parametrize("argv", [
    ["invariant", f"1/{2**200}"],
    ["rational", "--n", str(2**200), "--m", str(2**200 - 1)],
], ids=["invariant", "rational"])
def test_height_bound_exits_1(capsys, argv):
    # both have k-sequence height 2**200 - 1, far above the dense-entry bound
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: k-sequence height h = ") and err.count("\n") == 1
    assert "exceeds the bound 1000000" in err


def test_term_bound_exits_1(capsys):
    code, out, err = run(capsys, "eval", "[1,(0,1)^1000000000000000]")
    assert code == 1 and out == ""
    assert err == ("error: the literal expands to at least 2000000000000000 terms;"
                   " at most 1000000 are accepted\n")


@pytest.mark.parametrize("argv,message", [
    (["eval", "-1"], "parse error: expected '[', found '-1' (at position 0)"),
    (["oracle", "--k", "-1,x"], "found '-1,x' (at position 0)"),
    (["group", "--a", "-1,x", "--n", "5"], "found '-1,x' (at position 0)"),
    (["rational", "--n", "-5x", "--m", "2"], "argument --n: invalid int value: '-5x'"),
], ids=["eval", "oracle", "group", "rational"])
def test_malformed_negative_values_read_as_typed(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports its own errors this way
        code = exc.code
    assert code == 2 and message in capsys.readouterr().err


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
# follow.  `--cap` is left out: raising it asks for a large enumeration
# (`group --n 999 --cap 999` would build a table of 10^9 steps).
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
_flags = st.sampled_from(["--n", "--m", "--t", "--k", "--a", "--e", "--f", "--depth", "--parity", "--format"])
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports its own errors this way
            code = exc.code
    assert code in (0, 1, 2)
