"""The `queries` workload: one fresh `python -m steffenlab.cli` process per query.

Closed loop, one client: the next query starts when the previous one has
exited.  Queries run in blocks of a fixed mix: pool classes (`BLOCK`), whose
entries the workload seed picks, and the timeout-prone `HARD` queries.
Every query that exits 0 must print the output captured at the parent commit
with a long timeout (`golden/queries.json`).  A query that runs out of its
--timeout budget (exit 2 with the solver's budget message) counts as failed
and is correct; any other non-zero exit, or a kill, is failed and incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from graphs import ALL_COMMANDS, CLASSES, pool_graph
from measure import cpu_seconds
from spans import Tracer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "queries.json"

# The one --timeout (seconds per colouring decision) every query runs with.
TIMEOUT = "5"
# What a decision that runs out of the budget prints (SolverTimeout, exit 2).
TIMEOUT_MARK = "decision exceeded budget"
# Wall-clock cap per query process; --timeout bounds single decisions only.
KILL_SECONDS = 60
# The graph classes one block queries, each with all of its class's commands;
# the seed picks the pool entries.  Twice the mix, so that a block has twice
# as many seeded queries as it has hard ones.
BLOCK = ("named", "sparse", "sparse", "medium", "wide", "dense", "big") * 2
# The solver-bound cases, the same (class, index, command) in every block, so
# that each block carries the same share of them whatever the seed:
# chi' of a 16-vertex G(n, p) graph (over 900 s at the parent) and the
# criticality of a 9-vertex dense one (two decisions of about 18 s each) run
# out of the TIMEOUT budget, at about 5 s apiece; ring-find on a dense
# 11-vertex graph searches its 5,871 cycles (about 3 s).
HARD = (("big", 16, "chi"), ("dense", 18, "critical"), ("dense", 7, "ring-find"))
# Pool graphs a seeded draw skips, so that every run of the same code fails
# the same queries whatever the seed, and a block's timeouts are its HARD
# ones.  Skipped are the graphs with a class command the parent found no
# answer to in the capture's long budget (recorded as null in the golden
# file: `chi` on `dense` 16, 30, 45 and 56), and those listed here, whose
# slowest colouring decision took between TIMEOUT / UNSTEADY_BAND and
# TIMEOUT * UNSTEADY_BAND seconds at the parent (`chi`, in process on the
# 2-vCPU VM; capture_golden.py prints every query's slowest decision and
# the queries in this band).  Whether such a decision beats the budget
# depends on the machine's speed at that moment.  In every other query of
# the pool and of HARD each decision takes under 0.6 s, or the first one over
# that takes more than 20 s, so each query's outcome repeats.
UNSTEADY_BAND = 4
UNSTEADY = {
    ("dense", 12): 3.4,
    ("dense", 25): 6.5,
    ("dense", 28): 1.4,
    ("dense", 29): 2.3,
    ("dense", 34): 5.6,
}
# query_p90_ms needs at least ten samples above it.
MIN_QUERIES = 100
# One block's wall time at the parent commit on the 2-vCPU VM: a run makes
# --seconds / BLOCK_SECONDS blocks (blocks_per_run).
BLOCK_SECONDS = 29


def graph_key(mgr: str) -> str:
    return hashlib.sha256(mgr.encode()).hexdigest()[:16]


def out_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def command_args(cmd: str, target: int | None) -> list[str]:
    """CLI arguments for one query; the graph arrives as MGR text on stdin."""
    if cmd in ("chi", "critical"):
        return [cmd, "-", "--timeout", TIMEOUT]
    if cmd == "ring-find":
        return [cmd, "-", "--target", str(target), "--timeout", TIMEOUT]
    return [cmd, "-"]


def mismatch(cls: str, cmd: str, rc, stdout: str, stderr: str) -> str:
    if rc != 0:
        return f"{cls} {cmd} exit {rc}: {stderr.strip()[-120:]!r}"
    return f"{cls} {cmd} output {stdout.strip()[:120]!r} differs from the parent's"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["graphs"]


def block_queries(cls: str, index: int, commands, golden: dict, witness) -> list[tuple]:
    mgr = pool_graph(cls, index)
    entry = golden.get(graph_key(mgr))
    if entry is None:
        raise RuntimeError(f"{cls}[{index}] is not the graph golden/queries.json was captured for")
    queries = []
    for cmd in commands:
        argv = command_args(cmd, entry["chi"])
        expected = entry["out"][cmd]
        if expected is None:  # chi' the parent did not find: checked by its witness
            argv += ["--witness-out", str(witness)]
        queries.append((cls, cmd, argv, mgr, expected))
    return queries


def drawable(cls: str, golden: dict) -> list[int]:
    """Pool indices of `cls` a seeded draw may pick: not UNSTEADY, and the
    parent answered every command of the class (see UNSTEADY)."""
    commands = CLASSES[cls][1]
    return [
        index
        for index in range(CLASSES[cls][0])
        if (cls, index) not in UNSTEADY
        and all(golden[graph_key(pool_graph(cls, index))]["out"][cmd] is not None for cmd in commands)
    ]


def schedule(seed: int, golden: dict, witness, classes=BLOCK, hard=HARD):
    """Endless deterministic stream of blocks; each block is a list of queries.

    A query is (class, command, argv, mgr, expected stdout digest or None);
    `witness` is the file a chi query without a reference output writes its
    colouring to.
    """
    rng = random.Random(seed)
    pick = {cls: drawable(cls, golden) for cls in set(classes)}
    while True:
        block = [q for cls, index, cmd in hard for q in block_queries(cls, index, [cmd], golden, witness)]
        for cls in classes:
            index = rng.choice(pick[cls])
            block += block_queries(cls, index, CLASSES[cls][1], golden, witness)
        rng.shuffle(block)
        yield block


def witnessed_max_degree(mgr: str, stdout: str, witness_path: str) -> bool:
    """Whether a chi' answer is the maximum degree, shown by a proper colouring.

    chi' >= max degree always holds, so such an answer is right whatever the
    reference; a larger answer cannot be checked without one.
    """
    edges, degree = Counter(), Counter()
    for line in mgr.splitlines():
        if line.startswith("e "):
            u, v, m = map(int, line.split()[1:])
            edges[(u, v)] += m
            degree[u] += m
            degree[v] += m
    try:
        k = int(stdout.split()[0])
        with open(witness_path, encoding="utf-8") as fh:
            classes = json.load(fh)["classes"]
        used = Counter()
        for colour in classes:
            ends = [x for u, v in colour for x in (u, v)]
            if len(ends) != len(set(ends)):  # not a matching
                return False
            used.update((min(u, v), max(u, v)) for u, v in colour)
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return False
    return k == max(degree.values()) and len(classes) <= k and used == edges


def outcome(query, rc, stdout: str, stderr: str) -> str:
    """'ok', 'timeout' (failed, correct) or 'wrong' (failed or incorrect)."""
    argv, mgr, expected = query[2:]
    if rc == 2 and TIMEOUT_MARK in stderr:
        return "timeout"
    if rc != 0:
        return "wrong"
    if expected is None:
        return "ok" if witnessed_max_degree(mgr, stdout, argv[-1]) else "wrong"
    return "ok" if out_digest(stdout) == expected else "wrong"


def run_in_process(cli_main, argv: list[str], mgr: str) -> tuple[int, str, str]:
    """Run one query through `cli_main` in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(mgr)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue()


def blocks_per_run(seconds: float, block_len: int, min_queries: int) -> int:
    """Whole blocks a run of `seconds` makes: as many as fill it at the
    parent's block time, and at least enough for `min_queries` queries.

    The count depends only on the arguments, so two runs with the same seed
    attempt the same queries and `failed` repeats.
    """
    return max(1, -(-min_queries // block_len), round(seconds / BLOCK_SECONDS))


def run_blocks(schedule_blocks: list, env: dict, between) -> dict:
    """Untraced closed loop over the blocks, one query process at a time.

    `between()` runs after every block, outside the block's time.
    """
    blocks, failed, problems, failures = [], 0, [], []
    for block in schedule_blocks:
        query_s = []
        cpu0 = cpu_seconds()
        b0 = perf_counter()
        for query in block:
            cls, cmd, argv, mgr, _ = query
            t0 = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "steffenlab.cli", *argv],
                    input=mgr,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=KILL_SECONDS,
                )
                rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                rc, stdout, stderr = None, "", f"killed after {KILL_SECONDS} s"
            query_s.append(perf_counter() - t0)
            result = outcome(query, rc, stdout, stderr)
            if rc != 0:
                failed += 1
                failures.append(f"{cls} {cmd} exit {rc}: {stderr.strip()[-200:]}")
            if result == "wrong":
                problems.append(mismatch(cls, cmd, rc, stdout, stderr))
        wall_s = perf_counter() - b0
        cpu_s = cpu_seconds() - cpu0
        blocks.append({"query_s": query_s, "wall_s": wall_s, "cpu_s": cpu_s})
        between()
    return {"blocks": blocks, "failed": failed, "failures": failures, "problems": problems}


def _pass(blocks, call) -> tuple[float, int, list[str]]:
    failed, problems = 0, []
    t0 = perf_counter()
    for block in blocks:
        for query in block:
            cls, cmd, argv, mgr, _ = query
            rc, stdout, stderr = run_in_process(call[cmd], argv, mgr)
            if rc != 0:
                failed += 1
            if outcome(query, rc, stdout, stderr) == "wrong":
                problems.append(mismatch(cls, cmd, rc, stdout, stderr))
    return perf_counter() - t0, failed, problems


def traced_blocks(blocks) -> dict:
    """The blocks through `cli_main` in this process: untraced, traced, untraced.

    Each command's time is recorded as span `cmd.<command>`.
    """
    from steffenlab.cli import cli_main

    plain = {cmd: cli_main for cmd in ALL_COMMANDS}
    tracer = Tracer()
    traced = {cmd: tracer.wrap(f"cmd.{cmd}", cli_main) for cmd in ALL_COMMANDS}
    # untraced passes on both sides of the traced one, so warm-up is not overhead
    passes = [_pass(blocks, plain)]
    with tracer.install():
        passes.append(_pass(blocks, traced))
    passes.append(_pass(blocks, plain))
    plain_s = min(passes[0][0], passes[2][0])
    return {
        "tracer": tracer,
        "passes": len(passes),
        "overhead_frac": passes[1][0] / plain_s - 1.0,
        "failed": sum(p[1] for p in passes),
        "problems": [problem for p in passes for problem in p[2]],
    }
