"""Capture the expected CLI output of every `queries` pool graph.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/capture_golden.py

Every pool graph gets its class's commands, and the `HARD` graphs their hard
command too, with a long --timeout (`CAPTURE_TIMEOUT`), so that a later
commit that answers a query the workload's own --timeout cuts off can still
be checked.  It rewrites `perfbench/golden/queries.json` and prints each
query's time and its slowest colouring decision, and at the end the queries
whose slowest decision lies within a factor UNSTEADY_BAND of the workload's
--timeout: those belong in queries.UNSTEADY.  A `chi` that runs out of even the long budget is recorded as
null: the workload then accepts a timeout, or an answer shown correct by its
witness colouring (queries.witnessed_max_degree).  Any other failing query
stops the capture, since the pool would hold a query that cannot be checked.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from graphs import CLASSES, pool  # noqa: E402
from queries import (  # noqa: E402
    GOLDEN_PATH,
    HARD,
    TIMEOUT,
    TIMEOUT_MARK,
    UNSTEADY_BAND,
    command_args,
    graph_key,
    out_digest,
    run_in_process,
)
import steffenlab.coloring as coloring  # noqa: E402
from steffenlab.cli import cli_main  # noqa: E402

CAPTURE_TIMEOUT = "300"


def main() -> int:
    decision_s = []
    is_k_colorable = coloring.is_k_colorable

    def timed_decision(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return is_k_colorable(*args, **kwargs)
        finally:
            decision_s.append(time.perf_counter() - t0)

    coloring.is_k_colorable = timed_decision  # chromatic_index and is_critical look it up here
    graphs, unsteady = {}, []
    low, high = float(TIMEOUT) / UNSTEADY_BAND, float(TIMEOUT) * UNSTEADY_BAND
    for cls, index, mgr in pool():
        commands = list(CLASSES[cls][1])
        commands += [cmd for c, i, cmd in HARD if (c, i) == (cls, index) and cmd not in commands]
        out, times, slowest, chi = {}, {}, {}, None
        for cmd in sorted(commands, key=lambda c: c != "chi"):  # ring-find targets chi
            argv = command_args(cmd, chi)
            if "--timeout" in argv:
                argv[argv.index("--timeout") + 1] = CAPTURE_TIMEOUT
            decision_s.clear()
            t0 = time.perf_counter()
            rc, stdout, stderr = run_in_process(cli_main, argv, mgr)
            times[cmd] = time.perf_counter() - t0
            slowest[cmd] = max(decision_s, default=0.0)
            if low <= slowest[cmd] <= high:
                unsteady.append((cls, index, cmd, round(slowest[cmd], 1)))
            if cmd == "chi" and rc == 2 and TIMEOUT_MARK in stderr:
                out[cmd] = None
                continue
            if rc != 0:
                print(f"{cls} {index} {cmd}: exit {rc}: {stderr.strip()}", file=sys.stderr)
                return 1
            out[cmd] = out_digest(stdout)
            if cmd == "chi":
                chi = int(stdout.split()[0])
        graphs[graph_key(mgr)] = {"class": cls, "index": index, "chi": chi, "out": out}
        print(
            cls,
            index,
            " ".join(f"{c}={t * 1000:.0f}ms/{slowest[c] * 1000:.0f}ms" for c, t in times.items()),
            flush=True,
        )
    print("slowest decision within the unsteady band:", unsteady)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"timeout": TIMEOUT, "capture_timeout": CAPTURE_TIMEOUT, "graphs": graphs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
