import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steffenlab as sl
from steffenlab.cli import cli_main


# the CLI process imports the same package as the tests, also from a checkout
PACKAGE_ROOT = str(Path(sl.__file__).resolve().parents[1])
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "steffenlab.cli"] + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    return proc


@pytest.fixture()
def c53_file(tmp_path):
    path = tmp_path / "c53.mgr"
    path.write_text(sl.serialize(sl.mu_cycle(5, 3)))
    return str(path)


class TestSubcommands:
    def test_invariants(self, c53_file):
        proc = run_cli(["invariants", c53_file])
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj == {
            "n": 5, "m": 15, "Delta": 6, "delta": 6, "mu": 3,
            "deltaSimple": 2, "girth": 5, "gamma": 8, "steffenBound": 8,
        }

    def test_chi_prints_number(self, c53_file):
        proc = run_cli(["chi", c53_file, "--mode", "search"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "8"

    def test_chi_witness_out(self, c53_file, tmp_path):
        out = str(tmp_path / "w.json")
        proc = run_cli(["chi", c53_file, "--witness-out", out])
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "8"
        assert lines[1] == out
        witness = json.loads(open(out).read())
        assert witness["k"] == 8
        assert len(witness["classes"]) == 8

    def test_chi_gs_mode(self, c53_file):
        proc = run_cli(["chi", c53_file, "--mode", "gs"])
        assert proc.stdout.strip() == "8"

    def test_gen_pipe_chi(self):
        gen = run_cli(["gen", "mu-cycle", "5", "3"])
        assert gen.returncode == 0
        chi = run_cli(["chi", "-"], stdin_text=gen.stdout)
        assert chi.stdout.strip() == "8"

    def test_gen_mu_complete(self):
        gen = run_cli(["gen", "mu-complete", "5", "2"])
        assert gen.stdout == sl.serialize(sl.mu_complete(5, 2))

    def test_gen_ring(self):
        gen = run_cli(["gen", "ring", "5", "2,1,2,1,2"])
        assert gen.stdout == sl.serialize(sl.ring(5, [2, 1, 2, 1, 2]))

    def test_density(self, c53_file):
        proc = run_cli(["density", c53_file])
        assert json.loads(proc.stdout) == {"gamma": 8, "witness": [0, 1, 2, 3, 4]}

    def test_critical(self, c53_file):
        proc = run_cli(["critical", c53_file])
        obj = json.loads(proc.stdout)
        assert obj["chi"] == 8
        assert obj["isCritical"] is True

    def test_partition(self, c53_file):
        proc = run_cli(["partition", c53_file])
        assert json.loads(proc.stdout) == {"cycles": [[0, 1, 2, 3, 4]], "v0": []}

    def test_ring_find(self, c53_file):
        proc = run_cli(["ring-find", c53_file, "--target", "8"])
        obj = json.loads(proc.stdout)
        assert obj["found"] is True
        assert obj["ring"]["chi"] == 8

    def test_json_input_accepted(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(sl.to_json_obj(sl.mu_cycle(5, 3))))
        proc = run_cli(["chi", str(path)])
        assert proc.stdout.strip() == "8"


class TestScanCommands:
    def test_scan_and_exit_codes(self, tmp_path):
        cfg = {
            "enumSpec": {"nRange": [1, 4], "maxMu": 2, "girthMin": 3, "maxEdgeCopies": 6},
            "outputPath": str(tmp_path / "scan.jsonl"),
            "workers": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["violationCount"] == 0
        assert summary["total"] > 0
        lines = open(cfg["outputPath"]).read().splitlines()
        assert len(lines) == summary["total"]

    def test_lemma_suite_command(self, tmp_path):
        cfg = {
            "enumSpec": {"nRange": [3, 3], "maxMu": 3, "girthMin": 3, "maxEdgeCopies": 9},
            "outputPath": str(tmp_path / "suite.json"),
            "randomGraphs": 20,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["lemma-suite", "--config", str(cfg_path), "--seed", "42"])
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["violationCount"] == 0
        report = json.loads(open(cfg["outputPath"]).read())
        assert report["seed"] == 42

    def test_unknown_spec_key_is_exit_2(self, tmp_path):
        # a misspelt requireCycle would otherwise scan 5 classes instead of 1
        out = tmp_path / "scan.jsonl"
        spec = {"nRange": [5, 5], "maxMu": 1, "girthMin": 5, "maxEdgeCopies": 5,
                "requireCycles": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(out)}))
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == 2
        assert "requireCycles" in proc.stderr and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_wrongly_typed_config_is_exit_2(self, tmp_path):
        # "false" is a non-empty string: read with bool() it would turn the ring search on
        out = tmp_path / "scan.jsonl"
        spec = {"nRange": [5, 5], "maxMu": 1, "girthMin": 5, "maxEdgeCopies": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"enumSpec": spec, "outputPath": str(out), "ringCheck": "false"})
        )
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == 2
        assert "ringCheck" in proc.stderr and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_config_error_is_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": {"nRange": [1, 99]}}))
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == 2


class TestErrors:
    def test_usage_error_exit_2(self):
        assert cli_main(["chi"]) == 2
        assert cli_main(["nonsense"]) == 2

    def test_missing_file_exit_2(self):
        assert cli_main(["chi", "/definitely/not/here.mgr"]) == 2

    def test_bad_graph_exit_2(self, tmp_path):
        path = tmp_path / "bad.mgr"
        path.write_text("n 2\ne 0 2 1\n")
        assert cli_main(["invariants", str(path)]) == 2

    def test_json_graph_without_edges_exit_2(self):
        proc = run_cli(["chi", "-"], stdin_text='{"n": 3}')
        assert proc.returncode == 2
        assert "edges" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_density_timeout_exit_2(self):
        dense = sl.serialize(sl.mu_complete(21, 1))
        proc = run_cli(["chi", "-", "--timeout", "1"], stdin_text=dense)
        assert proc.returncode == 2
        assert "density" in proc.stderr and "exceeded budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_directory_as_graph_exit_2(self, tmp_path, capsys):
        assert cli_main(["chi", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_directory_as_scan_output_exit_2(self, tmp_path, capsys):
        spec = {"nRange": [3, 3], "maxMu": 1, "girthMin": 3, "maxEdgeCopies": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(tmp_path)}))
        assert cli_main(["scan", "--config", str(cfg_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_long_path_chi(self, tmp_path, capsys):
        # the colouring search keeps its path on an explicit stack
        G = sl.build(1500, [(i, i + 1, 1) for i in range(1499)])
        path, witness = tmp_path / "path.mgr", tmp_path / "w.json"
        path.write_text(sl.serialize(G))
        assert cli_main(["chi", str(path), "--witness-out", str(witness)]) == 0
        assert capsys.readouterr().out.splitlines() == ["2", str(witness)]
        classes = json.loads(witness.read_text())["classes"]
        coloring = sl.EdgeColoring(
            2, tuple(((tuple(p), 0), c + 1) for c, cls in enumerate(classes) for p in cls)
        )
        assert sl.validate_coloring(G, coloring)

    def test_long_cycle_ring_find(self, tmp_path, capsys):
        # the ring search finds the cycle itself, and the solver that checks
        # the returned ring walks it without recursion
        path = tmp_path / "cycle.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(1200, 1)))
        assert cli_main(["ring-find", str(path), "--target", "2"]) == 0
        ring = {"cycle": list(range(1200)), "multiplicities": [1] * 1200, "chi": 2}
        assert json.loads(capsys.readouterr().out) == {"found": True, "ring": ring}

    def test_long_cycle_partition(self, tmp_path, capsys):
        # the cycle searches keep their path on an explicit stack
        path = tmp_path / "cycle.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(1200, 1)))
        assert cli_main(["partition", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"cycles": [list(range(1200))], "v0": []}

    def test_deeply_nested_json_exit_2(self, capsys, monkeypatch):
        # json.loads recurses once per nesting level
        text = '{"n": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli_main(["chi", "-"]) == 2
        assert capsys.readouterr().err == "error: input nested too deeply to parse\n"

    def test_json_graph_with_float_multiplicity_exit_2(self):
        proc = run_cli(["chi", "-"], stdin_text='{"n": 2, "edges": [[0, 1, 1.9]]}')
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: JSON graph field edges[0] mult is not an integer: 1.9"
        ]

    @pytest.mark.parametrize("command", [["chi"], ["critical"], ["ring-find", "--target", "3"]])
    @pytest.mark.parametrize("timeout", ["-1", "0", "nan"])
    def test_non_positive_timeout_exit_2(self, command, timeout, c53_file):
        assert cli_main(command + [c53_file, "--timeout", timeout]) == 2
