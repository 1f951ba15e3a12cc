"""Every command of the benchmark's `queries` pool on every graph whose class
lists it: `invariants`, `chi`, `critical`, `partition` and `ring-find`.

Each query runs through `cli_main` with the benchmark's arguments
(`--timeout 5` for the solver-bound commands, and the golden chi' as
`ring-find`'s `--target`) and must print the output recorded in
`perfbench/golden/queries.json`.  Where that file holds no `chi` (the
reference search ran out of its budget), the answer must be the maximum
degree, proved by a witness that validates.  The pool generator
`perfbench/graphs.py` runs from its source text, so nothing is written
beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

import steffenlab as sl
from steffenlab.cli import cli_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TIMEOUT = "5"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(argv: list[str], mgr: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(mgr)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def test_pool_answers_match_golden(tmp_path):
    pool = runpy.run_path(str(PERFBENCH / "graphs.py"))
    golden = json.loads((PERFBENCH / "golden" / "queries.json").read_text())["graphs"]
    witness = tmp_path / "witness.json"
    problems, queries, unanswered = [], 0, 0
    for cls, index, mgr in pool["pool"]():
        entry = golden[_digest(mgr)]
        for cmd in pool["CLASSES"][cls][1]:
            queries += 1
            argv = [cmd, "-"]
            if cmd == "ring-find":
                argv += ["--target", str(entry["chi"])]
            if cmd in ("chi", "critical", "ring-find"):
                argv += ["--timeout", TIMEOUT]
            expected = entry["out"][cmd]
            if expected is None:
                unanswered += 1
                argv += ["--witness-out", str(witness)]
            rc, out, err = _run(argv, mgr)
            if rc != 0:
                problems.append(f"{cls} {index} {cmd}: exit {rc} {err.strip()}")
            elif expected is not None:
                if _digest(out) != expected:
                    problems.append(f"{cls} {index} {cmd}: printed {out.strip()[:80]!r}")
            else:
                G = sl.parse_any(mgr)
                obj = json.loads(witness.read_text())
                classes = tuple(tuple(map(tuple, pairs)) for pairs in obj["classes"])
                coloring = sl.EdgeColoring(obj["k"], classes)
                if int(out.split()[0]) != max(G.degrees) or not sl.validate_coloring(G, coloring):
                    problems.append(f"{cls} {index} {cmd}: {out.split()[0]} not witnessed as Delta")
    assert problems == []
    assert (queries, unanswered) == (1325, 4)  # no golden chi: dense 16, 30, 45, 56
