"""Golden corpus of CLI runs, replayed in-process.

``cli_corpus.json`` records argv, exit code, stdout and stderr of each run
as ``{"id", "argv", "code", "stdout", "stderr"}``, one entry per line,
sorted by id.  A stdout longer than 4096 characters is stored as
``{"sha256", "length"}``.  The replay runs each argv through
``cfkit.cli.main`` and asserts the whole entry.  One entry per subcommand
is also replayed through ``python -m cfkit.cli`` in a fresh interpreter, the
path that imports the package before running ``__main__``.  argparse wraps its
usage text to the terminal width, so every run sees ``COLUMNS=80``.

Running this file as a script rewrites every entry from the current code::

    PYTHONPATH=src python tests/test_cli_corpus.py

To add a case, add its ``{"id", "argv"}`` to the file and run the script.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

import cfkit
from cfkit.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
HASHED_OVER = 4096  # characters of stdout kept as text


def record(id: str, argv: list[str]) -> dict:
    """The corpus entry of one run of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if len(stdout) > HASHED_OVER:
        stdout = {"sha256": hashlib.sha256(stdout.encode()).hexdigest(), "length": len(stdout)}
    return {"id": id, "argv": argv, "code": code, "stdout": stdout, "stderr": err.getvalue()}


ENTRIES = {entry["id"]: entry for entry in json.loads(CORPUS.read_text())}


def replay(*ids: str) -> None:
    for id in ids:
        assert record(id, ENTRIES[id]["argv"]) == ENTRIES[id]


@pytest.mark.parametrize("id", sorted(ENTRIES))
def test_cli_corpus(id):
    replay(id)


# One entry per subcommand, over exit codes 0, 1 and 2 and both formats.
SUBPROCESS_IDS = ["eval.readme-inf.json", "invariant.one-third", "rational.noncoprime.json",
                  "oracle.readme.json", "group.order-twelve", "iso.degenerate-e-only",
                  "tensor.missing-t.json", "tower.odd.json"]


@pytest.mark.parametrize("id", SUBPROCESS_IDS)
def test_cli_corpus_in_a_fresh_interpreter(id):
    entry = ENTRIES[id]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cfkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cfkit.cli", *entry["argv"]],
                          capture_output=True, text=True, env=env)
    assert {"id": id, "argv": entry["argv"], "code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr} == entry


if __name__ == "__main__":
    lines = [json.dumps(record(id, ENTRIES[id]["argv"])) for id in sorted(ENTRIES)]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")
