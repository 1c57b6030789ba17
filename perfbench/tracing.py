"""Spans and counters recorded from outside the library.

:func:`install` replaces every public function of the traced cfkit modules
with a wrapper, in every namespace where a caller looks the name up (the
defining module, each cfkit module that imported it, and the package), so
nested calls such as ``k_value -> eval_terms -> add`` are traced too.  Each
wrapper times its call, charges the duration to its parent span so self
times can be derived, and runs a small hook that records the work counters
the per-layer metrics need.  Aggregates cover every call; raw spans are kept
in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MODULES = ("exact", "contfrac", "paths", "invariants", "correspondence", "literals", "cli")

# cli's subcommand handlers and argparse helpers count as cli.main's own time.
_CLI_FUNCTIONS = ("main",)

SPAN_CAP = 100_000


def _path_counts_hook(tr, args, kwargs, result):
    k = args[0]
    upto = args[1] if len(args) > 1 else kwargs.get("upto")
    h = k.h if upto is None else upto
    tr.count("paths.path_counts.h2_sum", h * h)


def _k_value_hook(tr, args, kwargs, result):
    k = args[0]
    if k.h:
        tr.count("contfrac.k_value.support2", 2 * len(k.support))
        tr.count("contfrac.k_value.terms", 2 * k.h + 1)


def _eval_terms_hook(tr, args, kwargs, result):
    values = args[0]
    # Callers in cfkit pass lists; a consumed iterator cannot be measured.
    if hasattr(values, "__len__"):
        tr.count("contfrac.terms_folded", len(values))


def _enumerate_paths_hook(tr, args, kwargs, result):
    k, length = args[0], args[1]
    tr.count("paths.words_built", len(result))
    key = (tr.op_id, k.entries, length)
    if key not in tr.seen_lengths:
        tr.seen_lengths.add(key)
        tr.count("paths.words_needed", len(result))


def _brute_force_hook(tr, args, kwargs, result):
    tr.count("invariants.cosets", args[1] * args[1])


def _parse_cf_hook(tr, args, kwargs, result):
    tr.count("literals.terms_parsed", 1 + len(result.terms))


HOOKS = {
    "paths.path_counts": _path_counts_hook,
    "contfrac.k_value": _k_value_hook,
    "contfrac.eval_terms": _eval_terms_hook,
    "paths.enumerate_paths": _enumerate_paths_hook,
    "invariants.brute_force_quotient": _brute_force_hook,
    "literals.parse_cf": _parse_cf_hook,
}


class Tracer:
    """Per-name call counts, total and self nanoseconds, counters and raw spans."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.stats = defaultdict(lambda: [0, 0, 0])  # calls, total_ns, self_ns
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.dropped = 0
        self.op_id = None
        self.seen_lengths: set = set()
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        stats = self.stats[name]
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, parent, self.op_id, name, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each imported traced module wherever they are bound."""
        names = [f"{package.__name__}.{m}" for m in MODULES]
        modules = [sys.modules[name] for name in names if name in sys.modules]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and attr not in _CLI_FUNCTIONS:
                    continue
                originals[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for ns in [package, *modules]:
            for attr, value in list(vars(ns).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, entry[1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] / 1e9 if name in self.stats else 0.0

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix)) / 1e9

    def layer_metrics(self) -> dict:
        """Every per-layer metric: calls and self seconds per span name, plus counters."""
        out = {}
        for name in sorted(self.stats):
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        for module in MODULES:
            out[f"{module}.self_s"] = self.module_self_s(module)
        c = self.counters
        out["paths.path_counts.h2_sum"] = c["paths.path_counts.h2_sum"]
        out["contfrac.terms_folded"] = c["contfrac.terms_folded"]
        out["contfrac.k_value.useful_ratio"] = _ratio(
            c["contfrac.k_value.support2"], c["contfrac.k_value.terms"])
        out["paths.words_built"] = c["paths.words_built"]
        out["paths.words_useful_ratio"] = _ratio(c["paths.words_needed"], c["paths.words_built"])
        out["invariants.cosets"] = c["invariants.cosets"]
        out["literals.terms_parsed"] = c["literals.terms_parsed"]
        return out


def _ratio(num: int, den: int) -> float:
    """num / den, or 0.0 when the layer did no work."""
    return num / den if den else 0.0
