"""cfkit benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload farey --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``farey``, ``deep``, ``oracle``, ``cli``.  Each
is a closed loop with one client and no worker threads.  The run imports
cfkit from ``src/`` of the checkout it sits in, builds the seeded inputs and
their expected answers (set-up, repeated SETUP_REPS times and reported as the
median), then issues operations for ``--seconds`` seconds and checks every
answer.  After the timed phase it checks a SHA-256 digest of seed-independent
outputs against the value recorded at the seed commit (digests.json) and,
untraced, times the ROADMAP reference points.

Timings are scaled to a reference machine speed: a fixed pure-Python probe
that never calls cfkit runs every PROBE_EVERY_S seconds between operations,
durations are multiplied by PROBE_REF_MS / (mean probe time) and rates
divided by it.  On a shared 2-vCPU host whose speed drifts by tens of percent
between runs, this cut the spread (Q3 - Q1) / median of the timing metrics
over ten seeds from 0.08-0.20 unscaled to 0.02-0.12.  The unscaled values are
in the report line under ``machine_speed``; baseline.json holds the seed
commit's values.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced, the second half with
every public cfkit function wrapped (tracing.py), and the last line carries
the per-layer metrics.  A report line before it holds the rest: failure
ratio, per-kind and per-family latency, size axes, reference points,
tracing self-checks and overhead, and the machine.  Traced runs also write
their spans and operation records under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import reference as ref
import workloads
from tracing import Tracer
from workloads import ROOT, SRC

SETUP_REPS = 7

# The host's speed drifts by tens of percent over minutes (neighbours on a
# shared machine), which moves every timing alike.  Each run therefore times a
# fixed probe, interleaved with the operations, and scales its timings to the
# speed at which the probe takes PROBE_REF_MS (its mean on the reference host,
# 2 vCPU Xeon at 2.1 GHz, CPython 3.11).  The probe never calls cfkit, so a
# change to the library moves the scaled metrics as it moves the raw ones.
PROBE_EVERY_S = 0.2
PROBE_REF_MS = 2.8
PROBE_PAIRS = [(p, q) for q in range(2, 40) for p in range(1, q, 3)]
SPAWN_REPS = 5
OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Work counters and self times are divided by the number of traced operations
# ("/op" units), so they compare across commits whatever the throughput.
PER_LAYER = {
    "paths.path_counts.self_s": "s/op",
    "paths.path_counts.calls": "count/op",
    "paths.path_counts.h2_sum": "count/op",
    "correspondence.k_to_invariant.self_s": "s/op",
    "exact.add.calls": "count/op",
    "exact.reciprocal.calls": "count/op",
    "contfrac.eval_terms.calls": "count/op",
    "contfrac.terms_folded": "count/op",
    "contfrac.k_value.useful_ratio": "ratio",
    "paths.words_built": "count/op",
    "paths.words_useful_ratio": "ratio",
    "invariants.project.calls": "count/op",
    "invariants.cosets": "count/op",
    "cli.spawn_s": "s",
    "cli.import_s": "s",
    "tracing.traced_ops": "count",
    "tracing.untraced_ops_per_s": "1/s",
    "tracing.traced_ops_per_s": "1/s",
}


# ROADMAP "Recent" baselines, single runs on the seed code.
ROADMAP_MS = {
    "forward_1_over_1000_ms": 74,
    "forward_1_over_3000_ms": 811,
    "reverse_30000_29999_ms": 748,
    "farey_forward_total_ms": 710,
    "farey_reverse_total_ms": 2190,
    "us_per_path_word": 19,
}


def _purge(package: str) -> None:
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]


def import_cfkit(with_cli: bool):
    """Fresh import of cfkit from this checkout's src/ (and cfkit.cli when asked)."""
    _purge("cfkit")
    import cfkit

    if with_cli:
        import cfkit.cli  # noqa: F401
    return cfkit


def setup(workload: str, seed: int, reps: int):
    """Import, generate and compute expected answers ``reps`` times; the last plan is used."""
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        lib = import_cfkit(with_cli=workload == "cli")
        plan = workloads.SETUPS[workload](seed, lib)
        times.append(time.perf_counter() - t0)
    return lib, plan, times


def speed_probe() -> None:
    """Pure-Python work like the library's: the reference maps, Fractions, and
    building and sorting many small tuples, as word enumeration does."""
    acc = Fraction(0)
    words = []
    for p, q in PROBE_PAIRS:
        n, m, k = ref.forward(p, q)
        acc += Fraction(m, n)
        words.append(tuple((i % 3, e) for i, e in enumerate(k)))
    words.sort(key=lambda w: tuple(sum(x) for x in w))
    ref.per_length_counts((1, 2, 0, 1, 3, 1, 2))


class Loop:
    """The closed loop: issue the plan's operations in order, cycling, until time is up.

    Per-operation records live in flat arrays so memory does not grow with
    throughput, which would move peak_rss_mib.
    """

    def __init__(self, plan, lib):
        self.plan = plan
        self.lib = lib
        self.probe_ns = array("q")  # speed_probe() durations
        self.index = array("l")  # op index into plan.ops
        self.latency_ns = array("q")
        self.ok = bytearray()
        self.first: dict[int, object] = {}  # first output of each op, kept for the pass digest
        self.failures: list[str] = []

    def __len__(self) -> int:
        return len(self.index)

    def records(self, lo: int = 0, hi: int | None = None):
        """(op index, latency ns, ok) of operations lo..hi."""
        return zip(self.index[lo:hi], self.latency_ns[lo:hi], self.ok[lo:hi])

    def run(self, seconds: float, tracer: Tracer | None = None, in_process: bool = False) -> float:
        ops = self.plan.ops
        lib = self.lib
        keep_first = self.plan.digest_from_pass
        gc.collect()
        gc.freeze()  # set-up objects are permanent: collections then cost the same every run
        probe_s = 0.0
        start = time.perf_counter()
        next_probe = start
        while True:
            now = time.perf_counter()
            if now >= start + seconds + probe_s:
                break
            if now >= next_probe:
                speed_probe()  # warm-up: the timed probe should not pay for the workload's cache use
                p0 = time.perf_counter_ns()
                speed_probe()
                self.probe_ns.append(time.perf_counter_ns() - p0)
                next_probe = time.perf_counter() + PROBE_EVERY_S
                probe_s += next_probe - PROBE_EVERY_S - now
            n = len(self.index)
            i = n % len(ops)
            op = ops[i]
            if tracer is not None:
                tracer.op_id = n
            t0 = time.perf_counter_ns()
            ok = True
            try:
                out = op.call(lib)
                if in_process:
                    ok = self._check(op, op.call_in_process(lib))
            except Exception as exc:  # a library failure is a failed operation
                out, ok = exc, False
            dt = time.perf_counter_ns() - t0
            ok = ok and self._check(op, out)
            if not ok and len(self.failures) < 5:
                self.failures.append(f"{op.kind}/{op.family} {op.size}: {out!r:.300}")
            self.index.append(i)
            self.latency_ns.append(dt)
            self.ok.append(ok)
            if keep_first and n < len(ops):
                self.first[i] = out
        elapsed = time.perf_counter() - start - probe_s
        gc.unfreeze()
        return elapsed

    @staticmethod
    def _check(op, out) -> bool:
        if isinstance(out, Exception):
            return False
        try:
            return bool(op.check(out))
        except Exception:
            return False

    def complete_first_pass(self) -> None:
        """Run, untimed, any op the timed phase did not reach, so the digest covers all."""
        for i, op in enumerate(self.plan.ops):
            if i not in self.first:
                try:
                    self.first[i] = op.call(self.lib)
                except Exception as exc:
                    self.first[i] = exc


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def canonical_lines(pairs) -> list[str]:
    return [repr(out) if isinstance(out, Exception) else op.line(out) for op, out in pairs]


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    n = len(sorted_values)
    idx = max(0, min(n - 1, -(-pct * n // 100) - 1))
    value = sorted_values[int(idx)]
    beyond = n - int(idx) - 1
    while beyond and sorted_values[n - beyond] == value:
        beyond -= 1
    return value, beyond


# op_tail_ms is the highest of p99 and p90 that keeps at least 10 samples
# beyond it at the slowest throughput seen on the reference host.  It is
# fixed per workload: letting each run pick would flip between p90 and p99
# as the host's speed changes the sample count.
TAIL_PERCENTILE = {"farey": 99, "deep": 90, "oracle": 90, "cli": 90}


def tail(latencies_ms: list[float], pct: int) -> dict:
    value, beyond = percentile(sorted(latencies_ms), pct)
    return {"value": value, "percentile": f"p{pct}", "beyond": beyond, "samples": len(latencies_ms),
            "enough_beyond": beyond >= 10}


def summarize(plan, records) -> dict:
    """Latency by operation kind and by family, with the size axes of each family."""
    groups: dict[str, list[float]] = {}
    sizes: dict[str, dict[str, list]] = {}
    for i, dt, _ in records:
        op = plan.ops[i]
        key = f"{op.kind}/{op.family}" if op.family else op.kind
        for k in (op.kind, key) if key != op.kind else (op.kind,):
            groups.setdefault(k, []).append(dt / 1e6)
        for axis, v in op.size.items():
            if isinstance(v, int):
                sizes.setdefault(key, {}).setdefault(axis, []).append(v)
    out = {}
    for key, lat in sorted(groups.items()):
        out[key] = {"ops": len(lat), "p50_ms": statistics.median(lat), "total_ms": sum(lat), "max_ms": max(lat)}
        if key in sizes:
            out[key]["size"] = {axis: {"min": min(v), "median": statistics.median(v), "max": max(v)}
                                for axis, v in sizes[key].items()}
    return out


def rates(plan, records) -> dict:
    """forward_per_s, reverse_per_s and words_per_s where the workload has them."""
    busy: dict[str, int] = {}
    count: dict[str, int] = {}
    words = 0
    for i, dt, _ in records:
        op = plan.ops[i]
        busy[op.kind] = busy.get(op.kind, 0) + dt
        count[op.kind] = count.get(op.kind, 0) + 1
        if op.kind == "paths":
            words += op.size["words"]
    out = {}
    for kind, name in (("forward", "forward_per_s"), ("reverse", "reverse_per_s")):
        if kind in busy:
            out[name] = {"value": count[kind] / (busy[kind] / 1e9), "unit": "1/s"}
    if "paths" in busy:
        out["words_per_s"] = {"value": words / (busy["paths"] / 1e9), "unit": "1/s"}
    return out


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def spawn_times() -> tuple[float, float]:
    """Median seconds of a bare interpreter, and of one that imports cfkit.cli, minus bare."""
    def timed(code: str) -> float:
        samples = []
        for _ in range(SPAWN_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                           env=workloads.cli_env(), timeout=workloads.CLI_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    bare = timed("pass")
    return bare, timed("import cfkit.cli") - bare


def reference_points(workload: str, plan, loop: Loop, anchor_times: list[float]) -> dict:
    """ROADMAP baselines measured in this run, each next to the ROADMAP figure."""
    got = {}
    if workload == "farey":
        first = {}
        for i, dt, _ in loop.records(0, len(plan.ops)):
            first[plan.ops[i].kind] = first.get(plan.ops[i].kind, 0) + dt / 1e6
        if len(loop) >= len(plan.ops):
            got["farey_forward_total_ms"] = first["forward"]
            got["farey_reverse_total_ms"] = first["reverse"]
    elif workload == "deep":
        names = ("forward_1_over_1000_ms", "forward_1_over_3000_ms", "reverse_30000_29999_ms")
        got = {name: t * 1000 for name, t in zip(names, anchor_times)}
    elif workload == "oracle":
        busy = sum(dt for i, dt, _ in loop.records() if plan.ops[i].kind == "paths")
        words = sum(plan.ops[i].size["words"] for i, _, _ in loop.records() if plan.ops[i].kind == "paths")
        if words:
            got["us_per_path_word"] = busy / 1e3 / words
    return {name: {"measured": v, "roadmap": ROADMAP_MS[name]} for name, v in got.items()}


def run_anchors(plan, lib) -> tuple[list, list[float]]:
    outputs, times = [], []
    for op in plan.anchors:
        t0 = time.perf_counter()
        try:
            out = op.call(lib)
        except Exception as exc:
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, times


def span_checks(workload: str, plan, records: list, tracer: Tracer) -> dict:
    """Span counts against the call counts known from the operations traced."""
    ops = [plan.ops[i] for i, _, _ in records]
    expect = {}
    if workload in ("farey", "deep"):
        fwd = [op for op in ops if op.kind == "forward"]
        rev = [op for op in ops if op.kind == "reverse"]
        expect["correspondence.rational_to_invariant.calls"] = len(fwd)
        expect["correspondence.invariant_to_rational.calls"] = len(rev)
        expect["paths.path_counts.calls"] = len(fwd)
        expect["paths.path_counts.h2_sum"] = sum(op.size["h"] ** 2 for op in fwd)
        expect["contfrac.k_value.calls"] = len(rev)
        expect["exact.add.calls"] = sum(2 * op.size["h"] for op in rev)
        expect["exact.reciprocal.calls"] = sum(2 * op.size["h"] for op in rev)
    elif workload == "oracle":
        paths = [op for op in ops if op.kind == "paths"]
        quotients = [op for op in ops if op.kind == "quotient"]
        isos = [op for op in ops if op.kind == "iso"]
        expect["paths.defect_by_enumeration.calls"] = len(paths)
        expect["paths.enumerate_paths.calls"] = sum(2 * (op.size["h"] + 1) for op in paths)
        expect["paths.words_built"] = sum(op.size["words"] for op in paths)
        expect["invariants.brute_force_quotient.calls"] = len(quotients)
        expect["invariants.cosets"] = sum(op.n * op.n for op in quotients)
        expect["invariants.is_isomorphic.calls"] = len(isos)
        expect["invariants.invariant_class.calls"] = 2 * len(isos)
    elif workload == "cli":
        expect["cli.main.calls"] = len(ops)
        expect["literals.parse_cf.calls"] = sum(op.argv[0] == "eval" for op in ops)
    got = tracer.layer_metrics()
    return {name: {"expected": v, "traced": got.get(name, 0), "ok": got.get(name, 0) == v}
            for name, v in expect.items()}


def write_trace(workload: str, seed: int, plan, records: list, tracer: Tracer) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    ops = [{"op": n, "kind": plan.ops[i].kind, "family": plan.ops[i].family,
            "latency_ns": dt, "ok": ok, "size": plan.ops[i].size}
           for n, (i, dt, ok) in enumerate(records)]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops,
                   "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                   "spans": tracer.spans, "spans_dropped": tracer.dropped}, fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfkit" / "__init__.py").is_file():
        print(f"error: no cfkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    traced = bool(args.trace)
    lib, plan, setup_times = setup(args.workload, args.seed, 1 if traced else SETUP_REPS)
    if Path(lib.__file__).resolve().parent != SRC / "cfkit":
        print(f"error: imported cfkit from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    loop = Loop(plan, lib)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops_per_pass": len(plan.ops), "machine": machine()}
    checks_ok = True
    if traced:
        untraced_s = loop.run(args.seconds / 2)
        untraced_n = len(loop)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced_s = loop.run(args.seconds / 2, tracer, in_process=args.workload == "cli")
        finally:
            tracer.uninstall()
        traced_records = list(loop.records(untraced_n))
        spawn_s, import_s = spawn_times()
        layers = tracer.layer_metrics()
        layers.update({
            "cli.spawn_s": spawn_s,
            "cli.import_s": import_s,
            "tracing.traced_ops": len(traced_records),
            "tracing.untraced_ops_per_s": untraced_n / untraced_s,
            "tracing.traced_ops_per_s": len(traced_records) / traced_s,
        })
        checks = span_checks(args.workload, plan, traced_records, tracer)
        checks_ok = all(c["ok"] for c in checks.values())
        report["tracing"] = {
            "overhead": layers["tracing.untraced_ops_per_s"] / layers["tracing.traced_ops_per_s"] - 1,
            "span_checks": checks,
            "trace_file": write_trace(args.workload, args.seed, plan, traced_records, tracer),
        }
        report["per_layer"] = layers
        report["latency"] = summarize(plan, traced_records)
    else:
        elapsed = loop.run(args.seconds)
        rss = peak_rss_mib(args.workload)
        report["latency"] = summarize(plan, loop.records())
        report["rates"] = rates(plan, loop.records())

    if plan.digest_from_pass:
        loop.complete_first_pass()
        pairs = [(op, loop.first[i]) for i, op in enumerate(plan.ops)]
        anchor_times = []
    else:
        outputs, anchor_times = run_anchors(plan, lib)
        pairs = list(zip(plan.anchors, outputs))
    got = digest(canonical_lines(pairs))
    want = json.loads(DIGESTS.read_text()).get(args.workload)
    digest_ok = got == want
    report["digest"] = {"sha256": got, "recorded": want, "ok": digest_ok}
    if not traced:
        report["reference_points"] = reference_points(args.workload, plan, loop, anchor_times)
    if args.workload == "cli":
        defect = workloads.known_defect_call(args.seed)
        out = defect.call(lib)
        report["known_defect"] = {
            "what": "invariant K/(K+1) with K of 4401 digits (ROADMAP open item 3)",
            "ok": Loop._check(defect, out), "exit_code": out[0],
            "traceback": "Traceback" in out[2],
        }

    attempted = len(loop)
    failed = attempted - sum(loop.ok)
    if not digest_ok:
        failed = attempted  # outputs that disagree with the seed commit's cannot be trusted
    report["fail_ratio"] = failed / attempted if attempted else 1.0
    report["failures"] = loop.failures

    if traced:
        per_op = max(1, report["per_layer"]["tracing.traced_ops"])
        metrics = {}
        for name, unit in PER_LAYER.items():
            value = report["per_layer"].get(name, 0)
            metrics[name] = {"value": value / per_op if unit.endswith("/op") else value, "unit": unit}
    else:
        lat_ms = [dt / 1e6 for dt in loop.latency_ns]
        t = tail(lat_ms, TAIL_PERCENTILE[args.workload])
        report["tail"] = {k: v for k, v in t.items() if k != "value"}
        report["setup_s_samples"] = setup_times
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / elapsed,
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": t["value"],
        }
        # The mean, not the median: the timings integrate over fast and slow
        # spells of the host alike, and so must the speed they are scaled by.
        probe_ms = statistics.fmean(loop.probe_ns) / 1e6
        speed = PROBE_REF_MS / probe_ms
        report["machine_speed"] = {"probe_ms": probe_ms, "probes": len(loop.probe_ns),
                                   "speed": speed, "unscaled": raw}
        values = {name: v / speed if name == "ops_per_s" else v * speed for name, v in raw.items()}
        values["peak_rss_mib"] = rss
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
