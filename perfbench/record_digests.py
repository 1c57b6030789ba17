"""Record the output digests the benchmark checks on every run.

Run from the repository root at a commit whose outputs are trusted::

    python3 perfbench/record_digests.py

It computes, for each workload, the SHA-256 of the same seed-independent
outputs run.py digests (the whole input set of ``farey``, the anchor
operations elsewhere) and writes them to perfbench/digests.json.  Re-record
only when a change to the library's outputs is intended.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import DIGESTS, SRC, Loop, canonical_lines, digest, import_cfkit, run_anchors


def main() -> int:
    sys.path.insert(0, str(SRC))
    out = {}
    for name, setup in workloads.SETUPS.items():
        lib = import_cfkit(with_cli=name == "cli")
        plan = setup(0, lib)
        if plan.digest_from_pass:
            loop = Loop(plan, lib)
            loop.complete_first_pass()
            pairs = [(op, loop.first[i]) for i, op in enumerate(plan.ops)]
        else:
            pairs = list(zip(plan.anchors, run_anchors(plan, lib)[0]))
        out[name] = digest(canonical_lines(pairs))
        print(name, out[name])
    DIGESTS.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
