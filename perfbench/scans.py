"""The `girth5` scan workload.

Untraced, each scan is the CLI as a user runs it, `python -m steffenlab.cli
scan --config <cfg>`, in a fresh process; its wall time runs from the spawn
to a verified report (exit code, summary and JSONL digest checked).  The
traced run calls `run_scan` in this process with workers = 1, so that every
span lands in one process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter

from measure import cpu_seconds
from spans import Tracer


@dataclass(frozen=True)
class Scan:
    spec: dict
    workers: int
    classes: int  # records in the report
    ring_gate: int  # records on which the ring-containment gate fires
    sha256: str  # JSONL report digest at the parent commit
    # counts the traced run must repeat exactly (workers = 1); a change shows
    # up as a count change, not as noise
    seed_counts: dict


def _spec(n_range, max_mu, girth_min, copies, require_cycle):
    return {
        "nRange": list(n_range),
        "maxMu": max_mu,
        "girthMin": girth_min,
        "maxEdgeCopies": copies,
        "requireCycle": require_cycle,
        "connectedOnly": False,
    }


SCANS = {
    # acceptance girth >= 5 corpus (mu <= 4, <= 16 copies, require_cycle) with
    # the vertex range trimmed from 5..8 to 5..7: one n <= 8 scan takes about
    # 130 s on 2 cores, too long for the run budget; n = 7 keeps the girth/mu
    # shape and the two records that fire the ring gate
    "girth5": Scan(
        spec=_spec((5, 7), 4, 5, 16, True),
        workers=2,
        classes=19701,
        ring_gate=2,
        sha256="32cc4a18b517e0e35734006213964793873cbfb51d990b71934b417c544fca40",
        seed_counts={
            "generators.classes": 19701,
            "generators.builds": 111589,
            "invariants.density_per_record": 2.0,
            "coloring.decisions": 44576,
            "structure.ring_calls": 2,
        },
    ),
}

# The same shapes on smaller vertex ranges, for the benchmark's self-test.
TINY = {
    "girth5": replace(
        SCANS["girth5"],
        spec=_spec((5, 6), 4, 5, 16, True),
        classes=1951,
        ring_gate=1,
        sha256="db2c286067d238558a0d5b8108cabd8fda4487b698585b0832a2d6557a1004ca",
        seed_counts={},
    ),
}

KILL_SECONDS = 170
# One girth5 scan's wall time at the parent commit on the 2-vCPU VM: a run
# makes --seconds / SCAN_SECONDS scans, so that every run of the same code
# attempts the same records.
SCAN_SECONDS = 13


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_json(scan: Scan, out_path) -> dict:
    return {
        "enumSpec": scan.spec,
        "solverTimeoutSeconds": 60,
        "workers": scan.workers,
        "outputPath": str(out_path),
    }


def _fresh(out_path) -> None:
    """Remove a previous report and checkpoint, which run_scan would resume from."""
    for path in (out_path, f"{out_path}.checkpoint"):
        if os.path.exists(path):
            os.remove(path)


def check_report(scan: Scan, summary: dict, digest: str) -> list[str]:
    """Problems with one finished scan; empty when it is correct."""
    problems = []
    if summary.get("violationCount") != 0:
        problems.append(f"violationCount {summary.get('violationCount')}")
    if summary.get("timeouts"):
        problems.append(f"{summary['timeouts']} records timed out")
    if summary.get("total") != scan.classes:
        problems.append(f"{summary.get('total')} records, expected {scan.classes}")
    if summary.get("ringGateFired") != scan.ring_gate:
        problems.append(f"ring gate fired {summary.get('ringGateFired')}, expected {scan.ring_gate}")
    if digest != scan.sha256:
        problems.append(f"report sha256 {digest} differs from the parent's {scan.sha256}")
    return problems


def run_cli_scan(scan: Scan, work, env) -> dict:
    """One untraced scan through the CLI; returns wall and CPU time and problems."""
    out_path = work / "scan.jsonl"
    cfg_path = work / "scan.json"
    cfg_path.write_text(json.dumps(config_json(scan, out_path)))
    _fresh(out_path)
    ru0 = cpu_seconds()
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "steffenlab.cli", "scan", "--config", str(cfg_path)],
        cwd=work.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=KILL_SECONDS,
    )
    problems = []
    summary = {}
    if proc.returncode != 0:
        problems.append(f"scan exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    else:
        summary = json.loads(proc.stdout)
        problems += check_report(scan, summary, file_sha256(out_path))
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": cpu_seconds() - ru0,
        "records": summary.get("total", scan.classes),
        "timeouts": summary.get("timeouts", 0),
        "problems": problems,
    }


def traced_scan(scan: Scan, work) -> dict:
    """In-process scans with workers = 1: one untraced, one traced.

    Returns the tracer, the run_scan timings and any problems; the untraced
    scan gives the tracing overhead.
    """
    from steffenlab import generators
    from steffenlab import scan as scan_mod
    from steffenlab.generators import EnumSpec
    from steffenlab.scan import ScanConfig

    out_path = work / "scan.jsonl"
    spec = EnumSpec.from_json_obj(scan.spec)
    cfg = ScanConfig(enum_spec=spec, workers=1, output_path=str(out_path))
    problems = []

    _fresh(out_path)
    t0 = perf_counter()
    summary = scan_mod.run_scan(cfg)
    plain_s = perf_counter() - t0
    problems += check_report(scan, summary.to_json_obj(), file_sha256(out_path))

    tracer = Tracer()
    _fresh(out_path)
    with tracer.install():
        entry = perf_counter()
        summary = scan_mod.run_scan(cfg)
        traced_s = perf_counter() - entry
    problems += check_report(scan, summary.to_json_obj(), file_sha256(out_path))
    bytes_written = os.path.getsize(out_path) + os.path.getsize(f"{out_path}.checkpoint")

    # the simple-graph layer alone: the same enumeration with max_mu = 1
    simple_tracer = Tracer()
    with simple_tracer.install():
        t0 = perf_counter()
        for _ in generators.enumerate_with_keys(replace(spec, max_mu=1)):
            pass
        simple_s = perf_counter() - t0

    return {
        "tracer": tracer,
        "classes": summary.total,
        "run_scan_s": traced_s,
        "serial_s": (tracer.first_record_at or entry + traced_s) - entry,
        "simple_s": simple_s,
        "bytes_written": bytes_written,
        "overhead_frac": traced_s / plain_s - 1.0,
        "problems": problems,
    }
