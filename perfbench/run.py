"""steffenlab benchmark: corpus scans and CLI queries, end to end and per module.

    python3 perfbench/run.py --workload {girth5,queries} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is used from `src/` (it need not be
installed).  With --trace 0 the workload runs untraced for about S seconds
and the last stdout line carries the end-to-end metrics; with --trace 1 one
traced pass gives the per-layer metrics (see README.md).  The line before
the result records the run's environment.  Exits 2 without a result when
`src/steffenlab` is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import queries
import scans
from measure import peak_rss_mb, percentile
from spans import PER_LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
WORKLOADS = ("girth5", "queries")
# setup_s is the median of fresh-interpreter samples taken before the first
# unit (scan or query block) and after every unit, so that one slow spell of
# the machine does not decide it
SETUP_START = 5
SETUP_BETWEEN = 4
IMPORT_REPEATS = 5

# fresh interpreter to the package imported and the workload's input loaded
SCAN_SETUP = (
    "import json, sys\n"
    "from steffenlab.cli import cli_main\n"
    "from steffenlab.scan import ScanConfig\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    ScanConfig.from_json_obj(json.load(fh))\n"
)
QUERY_SETUP = (
    "import sys\n"
    "from steffenlab.cli import cli_main\n"
    "from steffenlab.multigraph import parse_any\n"
    "parse_any(sys.stdin.read())\n"
)
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import steffenlab.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("STEFFENLAB_WORKERS", None)  # the workload fixes the worker count
    return env


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/steffenlab/*.py: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "steffenlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timed_child(code: str, env: dict, args=(), stdin: str | None = None) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return perf_counter() - t0, proc.stdout


def setup_sampler(code: str, env: dict, args=(), stdin: str | None = None):
    """Samples of a fresh interpreter importing the package and loading the input.

    Returns (samples, sample): calling `sample()` appends SETUP_BETWEEN more.
    """
    samples = [timed_child(code, env, args, stdin)[0] for _ in range(SETUP_START)]

    def sample() -> None:
        samples.extend(timed_child(code, env, args, stdin)[0] for _ in range(SETUP_BETWEEN))

    return samples, sample


def import_seconds(env: dict) -> float:
    return statistics.median(
        float(timed_child(IMPORT_PROBE, env)[1]) for _ in range(IMPORT_REPEATS)
    )


def scan_workload(name: str, args, env: dict) -> dict:
    scan = (scans.TINY if args.tiny else scans.SCANS)[name]
    if args.trace:
        import_s = import_seconds(env)
        res = scans.traced_scan(scan, WORK)
        metrics = layer_metrics(res["tracer"], res, import_s, res["overhead_frac"])
        counts = {k: metrics[k] for k in scan.seed_counts}
        changed = {k: [counts[k], v] for k, v in scan.seed_counts.items() if counts[k] != v}
        return {
            "metrics": metrics,
            "attempted": 2 * res["classes"],
            "failed": 0,
            "problems": res["problems"],
            "info": {
                "traced_workers": 1,
                "tracing_overhead_frac": res["overhead_frac"],
                "exact_counts": counts,
                "count_changes_vs_parent": changed,
                "missing_bindings": res["tracer"].missing,
            },
        }

    cfg_path = WORK / "setup.json"
    cfg_path.write_text(json.dumps(scans.config_json(scan, WORK / "setup.jsonl")))
    setup, sample_setup = setup_sampler(SCAN_SETUP, env, [str(cfg_path)])
    runs = []
    for _ in range(max(1, round(args.seconds / scans.SCAN_SECONDS))):
        runs.append(scans.run_cli_scan(scan, WORK, env))
        sample_setup()
    walls = [r["wall_s"] for r in runs]
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup),
            # on a scan workload one query is one whole scan to a verified
            # report: these two restate wall_s and are no separate evidence
            "query_p50_ms": 1000 * statistics.median(walls),
            "query_p90_ms": 1000 * percentile(walls, 90),
        },
        "attempted": sum(r["records"] for r in runs),
        "failed": sum(r["timeouts"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "info": {
            "scans": len(runs),
            "workers": scan.workers,
            "scan_wall_s": walls,
            "setup_samples": len(setup),
        },
    }


def queries_workload(args, env: dict) -> dict:
    golden = queries.load_golden()
    witness = WORK / "chi_witness.json"
    if args.tiny:  # one of each seeded class and the first hard query
        stream = queries.schedule(args.seed, golden, witness, queries.BLOCK[:7], queries.HARD[:1])
    else:
        stream = queries.schedule(args.seed, golden, witness)
    if args.trace:
        import_s = import_seconds(env)
        blocks = [next(stream)]
        res = queries.traced_blocks(blocks)
        metrics = layer_metrics(res["tracer"], None, import_s, res["overhead_frac"])
        n = sum(len(b) for b in blocks)
        return {
            "metrics": metrics,
            "attempted": res["passes"] * n,
            "failed": res["failed"],
            "problems": res["problems"],
            "info": {
                "queries": n,
                "tracing_overhead_frac": res["overhead_frac"],
                "missing_bindings": res["tracer"].missing,
            },
        }

    first = next(stream)
    setup, sample_setup = setup_sampler(QUERY_SETUP, env, stdin=first[0][3])
    min_queries = 0 if args.tiny else queries.MIN_QUERIES
    n_blocks = queries.blocks_per_run(args.seconds, len(first), min_queries)
    res = queries.run_blocks([first] + [next(stream) for _ in range(n_blocks - 1)], env, sample_setup)
    blocks = res["blocks"]
    times = [t for b in blocks for t in b["query_s"]]
    return {
        "metrics": {
            "wall_s": statistics.median(b["wall_s"] for b in blocks),
            "cpu_s": statistics.median(b["cpu_s"] for b in blocks),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup),
            "query_p50_ms": 1000 * percentile(times, 50),
            "query_p90_ms": 1000 * percentile(times, 90),
        },
        "attempted": len(times),
        "failed": res["failed"],
        "problems": res["problems"],
        "info": {
            "queries": len(times),
            "blocks": len(blocks),
            "block_queries": len(first),
            "setup_samples": len(setup),
            "block_wall_s": [b["wall_s"] for b in blocks],
            "fail_frac": res["failed"] / len(times),
            "timeout_arg": queries.TIMEOUT,
            "failures": res["failures"][:10],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "steffenlab" / "__init__.py").is_file():
        print(f"no steffenlab package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    load_before = loadavg()
    n_cpu = nproc()
    if load_before and load_before[0] > n_cpu:
        print(f"warning: load {load_before[0]} above nproc {n_cpu} at start", file=sys.stderr)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.workload == "queries":
            out = queries_workload(args, env)
        else:
            out = scan_workload(args.workload, args, env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    load_after = loadavg()

    for problem in out["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": n_cpu,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "loaded_at_start": bool(load_before and load_before[0] > n_cpu),
        **out["info"],
        "problems": out["problems"][:10],
    }
    print(json.dumps({"env": info}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not out["problems"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
