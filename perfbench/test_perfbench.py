"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def lib():
    return run.import_cfkit(with_cli=True)


def describe(op) -> tuple:
    return (op.kind, op.family, *(repr(getattr(op, a)) for a in ("x", "entries", "a", "n", "e", "f", "argv")
                                  if hasattr(op, a)))


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_same_seed_gives_identical_inputs(lib, name):
    first = workloads.SETUPS[name](7, lib)
    second = workloads.SETUPS[name](7, lib)
    assert [describe(op) for op in first.ops] == [describe(op) for op in second.ops]


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_other_seed_gives_other_inputs_of_the_same_mix(lib, name):
    a = workloads.SETUPS[name](1, lib)
    b = workloads.SETUPS[name](2, lib)
    assert [describe(op) for op in a.ops] != [describe(op) for op in b.ops]
    assert Counter((op.kind, op.family) for op in a.ops) == Counter((op.kind, op.family) for op in b.ops)


def _sorted_axis(plan, kind, family, axis):
    return sorted(op.size[axis] for op in plan.ops if op.kind == kind and op.family == family)


def test_deep_size_distribution_is_seed_independent(lib):
    a = workloads.setup_deep(1, lib)
    b = workloads.setup_deep(2, lib)
    # (a) and (b) are stratified, so the i-th smallest h of both seeds share a stratum.
    for family, width in (("a", 1500 / 40), ("b", 1000 / 40)):
        ha = _sorted_axis(a, "forward", family, "h")
        hb = _sorted_axis(b, "forward", family, "h")
        assert len(ha) == len(hb) == workloads.DEEP_PER_FAMILY
        assert all(abs(x - y) <= width for x, y in zip(ha, hb))
    ba = _sorted_axis(a, "forward", "c", "bits")
    bb = _sorted_axis(b, "forward", "c", "bits")
    assert all(abs(x - y) <= 448 / 40 + 8 for x, y in zip(ba, bb))
    assert max(_sorted_axis(a, "forward", "c", "h")) <= workloads.DEEP_MAX_H


def test_oracle_size_distribution_is_seed_independent(lib):
    a = workloads.setup_oracle(1, lib)
    b = workloads.setup_oracle(2, lib)
    wa = _sorted_axis(a, "paths", "paths", "words")
    wb = _sorted_axis(b, "paths", "paths", "words")
    # Each path check draws its word count from its own band of 150 (words counts both routes).
    assert all(abs(x - y) < 2 * 150 for x, y in zip(wa, wb))
    na = _sorted_axis(a, "quotient", "quotient", "n")
    nb = _sorted_axis(b, "quotient", "quotient", "n")
    assert all(abs(x - y) <= 1 for x, y in zip(na, nb))


def test_farey_is_every_reduced_fraction_once(lib):
    plan = workloads.setup_farey(3, lib)
    forward = {op.x for op in plan.ops if op.kind == "forward"}
    assert len(forward) == 12232
    assert forward == {Fraction(p, q) for q in range(1, 201) for p in range(q) if gcd(p, q) == 1}


def test_reference_agrees_with_the_library(lib):
    for p, q in [(0, 1), (2, 5), (1, 300), (13, 21), (355, 1131), (987, 1597)]:
        inv = lib.rational_to_invariant(Fraction(p, q))
        assert (inv.n, inv.m, inv.k.entries) == ref.forward(p, q)
        assert lib.invariant_to_rational(inv.n, inv.m) == Fraction(p, q)
    k = lib.KSequence((1, 0, 2))
    assert list(lib.path_counts(k).per_length) == ref.per_length_counts((1, 0, 2))
    e = lib.ExtensionDescriptor(n=6, index=(2, 4), defects=(1, 3))
    f = lib.ExtensionDescriptor(n=6, index=(4, 2), defects=(3, 2))
    assert lib.is_isomorphic(e, f) == ref.isomorphic((6, (2, 4), (1, 3)), (6, (4, 2), (3, 2)))


def run_main(args: list[str]) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(args) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_result_names_every_metric_with_its_unit():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    report, result = run_main(["--workload", "oracle", "--seed", "5", "--seconds", "1", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["seed"] == 5
    assert {"machine", "nproc", "python", "commit"} <= set(report["machine"])
    assert report["digest"]["ok"] is True

    report, result = run_main(["--workload", "oracle", "--seed", "5", "--seconds", "1", "--trace", "1"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert all(c["ok"] for c in report["tracing"]["span_checks"].values())


def test_benchmark_json_matches_the_runner():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SETUPS)


def test_injected_wrong_answer_raises_fail_ratio(monkeypatch):
    real_import = run.import_cfkit

    def broken_import(with_cli):
        cfkit = real_import(with_cli)
        real = cfkit.defect_by_enumeration
        cfkit.defect_by_enumeration = lambda k, *a, **kw: real(k, *a, **kw) + 1
        return cfkit

    monkeypatch.setattr(run, "import_cfkit", broken_import)
    report, result = run_main(["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert report["fail_ratio"] > 0


def test_self_consistent_wrong_outputs_fail_the_digest(lib):
    plan = workloads.setup_deep(0, lib)
    outputs = [op.call(lib) for op in plan.anchors]
    recorded = json.loads(run.DIGESTS.read_text())["deep"]
    assert run.digest(run.canonical_lines(zip(plan.anchors, outputs))) == recorded
    # Swap two outputs: each still looks like a valid invariant, but the set differs.
    outputs[0], outputs[1] = outputs[1], outputs[0]
    assert run.digest(run.canonical_lines(zip(plan.anchors, outputs))) != recorded


def test_tail_is_the_workload_percentile_and_counts_samples_beyond():
    t = run.tail([float(i) for i in range(1, 1001)], 99)
    assert t["percentile"] == "p99" and t["beyond"] == 10 and t["value"] == 990.0
    t = run.tail([float(i) for i in range(1, 201)], 90)
    assert t["percentile"] == "p90" and t["beyond"] == 20 and t["enough_beyond"]
    assert set(run.TAIL_PERCENTILE) == set(workloads.SETUPS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "farey", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
