"""Self-test of the benchmark: every workload on a tiny input, in seconds.

    python3 perfbench/selftest.py

Checks, for each workload, untraced and traced: the result line has exactly
the keys of the result format, the run is correct, and every metric
of BENCHMARK.json is emitted with its unit and, untraced, is not 0.  Two traced runs of a scan must
repeat their exact counts, and the benchmark must refuse to run (exit
non-zero, no result) without the package beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = (
    "generators.classes",
    "generators.builds",
    "invariants.density_per_record",
    "coloring.decisions",
    "coloring.decisions_infeasible",
    "structure.ring_calls",
    "multigraph.build_calls",
)


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, specs: list[dict], label: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["correct"] is True, f"{label}: not correct"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    # on queries, the hard chi query runs out of its budget at the parent
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"], label
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{label}: {name}"
        value = m["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), f"{label}: {name}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {}
    for name in ("girth5", "queries"):
        untraced = result(run(name, 0))
        check_result(untraced, bench["end_to_end"], f"{name} untraced")
        for m in bench["end_to_end"]:
            assert untraced["metrics"][m["name"]]["value"] > 0, f"{name}: {m['name']} is 0"
        traced[name] = result(run(name, 1))
        check_result(traced[name], bench["per_layer"], f"{name} traced")
        print(f"ok {name}")

    again = result(run("girth5", 1))["metrics"]
    for key in EXACT:
        assert again[key]["value"] == traced["girth5"]["metrics"][key]["value"], f"girth5: {key} moved"
    assert again["invariants.density_per_record"]["value"] == 2.0
    print("ok exact counts repeat")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("girth5", 0, bare)
        assert proc.returncode != 0, "ran without the package"
        assert not proc.stdout.strip(), "printed a result without the package"
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
