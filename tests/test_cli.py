import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab.cli import cli_main
from steffenlab.coloring import COLOR_CAP


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


def test_graph_commands_leave_the_process_pool_unloaded(c53_file):
    # each graph command loads the modules it runs and no more: none loads
    # dataclasses, typing, the pool or the scan and enumeration modules, and
    # the package's names still resolve, each loading its module on first
    # use; `ring-find` finds a ring without the enumerator;
    # under -S, `site` imports nothing before the probe
    probe = (
        "import sys\n"
        "from steffenlab.cli import cli_main\n"
        "watched = ['dataclasses', 'typing', 'concurrent.futures.process'] + [\n"
        "    'steffenlab.' + m for m in ('invariants', 'coloring', 'structure', 'scan', 'generators')]\n"
        "print('import', [m for m in watched if m in sys.modules], file=sys.stderr)\n"
        "for command in ('invariants', 'chi', 'critical', 'partition', 'ring-find --target 8'):\n"
        "    assert cli_main([*command.split(), sys.argv[1]]) == 0\n"
        "    print(command.split()[0], [m for m in watched if m in sys.modules], file=sys.stderr)\n"
        "import steffenlab as sl\n"
        "print(sl.run_scan.__name__, sl.EnumSpec.__name__, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, c53_file], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    solver = "'steffenlab.invariants', 'steffenlab.coloring'"
    assert proc.stderr.splitlines() == [
        "import []",
        "invariants ['steffenlab.invariants']",
        f"chi [{solver}]",
        f"critical [{solver}]",
        f"partition [{solver}, 'steffenlab.structure']",
        f"ring-find [{solver}, 'steffenlab.structure']",
        "run_scan EnumSpec",
    ]


@pytest.mark.parametrize("command", ["partition", "ring-find --target 8"])
def test_structure_commands_load_no_solver(c53_file, command):
    # a command alone in its process: `partition` colors nothing, and
    # `ring-find` takes the chi' of the ring it finds on 3C5 from its closed
    # form; under -S, `site` imports nothing before the probe
    probe = (
        "import json, sys\n"
        "from steffenlab.cli import cli_main\n"
        "assert cli_main(sys.argv[2:] + [sys.argv[1]]) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('steffenlab.')]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, c53_file, *command.split()],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr)
    assert "steffenlab.invariants" in loaded and "steffenlab.structure" in loaded
    assert "steffenlab.coloring" not in loaded
    if command.startswith("ring-find"):
        assert json.loads(proc.stdout)["found"]


def test_odd_set_table_loads_no_enumerator():
    # Gamma's table lives beside density, so a solver that reads it does not
    # pull in the enumerator; under -S, `site` imports nothing before the probe
    probe = (
        "import sys\n"
        "from steffenlab.invariants import odd_set_table, table_gamma\n"
        "from steffenlab.multigraph import ring\n"
        "table = odd_set_table(ring(5, [1] * 5))\n"
        "assert table_gamma(table, (3,) * 5) == 8\n"
        "print([m for m in sys.modules if m.startswith('steffenlab.')], file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert "'steffenlab.invariants'" in proc.stderr
    assert "'steffenlab.generators'" not in proc.stderr


def test_only_the_lemma_suite_loads_hashlib(tmp_path):
    # only the lemma suite's digests hash: a scan, with one worker or with a
    # pool, loads neither hashlib nor OpenSSL's _hashlib, and with one worker
    # neither command loads the process pool; each command runs in a fresh
    # process, and under -S `site` imports none of these before the probe
    spec = sl.EnumSpec(n_min=5, n_max=6, max_mu=2, girth_min=5, require_cycle=True)
    probe = (
        "import sys\n"
        "from steffenlab.cli import cli_main\n"
        "seed = ['--seed', '0'] if sys.argv[1] == 'lemma-suite' else []\n"
        "assert cli_main([sys.argv[1], '--config', sys.argv[2], *seed]) == 0\n"
        "watched = ('hashlib', '_hashlib', 'concurrent.futures.process')\n"
        "print([m for m in watched if m in sys.modules], file=sys.stderr)\n"
    )
    for command, workers, loaded in (
        ("scan", 1, []),
        ("scan", 2, ["concurrent.futures.process"]),
        ("lemma-suite", 1, ["hashlib", "_hashlib"]),
    ):
        path = tmp_path / f"{command}{workers}.json"
        path.write_text(json.dumps({"enumSpec": spec.to_json_obj(), "workers": workers,
                                    "outputPath": f"{path}.out", "randomGraphs": 3}))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, command, str(path)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [str(loaded)], command


def test_every_export_resolves():
    # a misspelt or moved name in the lazy export table fails here, not at first use
    listed = dir(sl)
    for name in sl.__all__:
        assert getattr(sl, name) is not None
        assert name in listed


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

    @pytest.mark.parametrize(
        "command, options",
        [
            ("invariants", []),
            ("chi", ["--mode", "--timeout", "--witness-out"]),
            ("density", []),
            ("critical", ["--timeout"]),
            ("partition", []),
            ("ring-find", ["--target", "--timeout"]),
        ],
    )
    def test_graph_command_usage(self, command, options, capsys):
        # one table declares the six commands: each takes the graph last,
        # and its own options in this order
        assert cli_main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"--[a-z-]+", usage) == options
        assert usage.split()[-1] == "graph"

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
        # the seed-42 golden file's config, with the sampler's defaults, on a pool
        cfg = {
            "enumSpec": {"nRange": [3, 3], "maxMu": 3, "girthMin": 3, "maxEdgeCopies": 9},
            "outputPath": str(tmp_path / "suite.json"),
            "workers": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["lemma-suite", "--config", str(cfg_path), "--seed", "42"])
        assert proc.returncode == 0
        golden = Path(__file__).parent / "data" / "lemma_suite_seed42.json"
        assert Path(cfg["outputPath"]).read_bytes() == golden.read_bytes()
        report = json.loads(golden.read_text())
        assert report["seed"] == 42
        assert json.loads(proc.stdout) == {
            "violationCount": 0, "digest": report["digest"], "report": cfg["outputPath"]
        }

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

    @pytest.mark.parametrize("copies, code", [(300, 2), (16, 0)])
    def test_multiplicities_past_the_key_cap(self, tmp_path, copies, code):
        # 300 copies of one pair cannot be keyed: refused before any enumeration
        out = tmp_path / "scan.jsonl"
        spec = {"nRange": [2, 2], "maxMu": 300, "girthMin": 3, "maxEdgeCopies": copies}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(out), "workers": 1}))
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == code
        if code:
            assert "255" in proc.stderr and "Traceback" not in proc.stderr
            assert len(proc.stderr.splitlines()) == 1
            assert not out.exists()
        else:
            assert json.loads(proc.stdout)["total"] == copies

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": {"nRange": [1, 99]}}))
        proc = run_cli(["scan", "--config", str(cfg_path)])
        assert proc.returncode == 2
        # lemma-suite values out of the sampler's range name their key
        out = tmp_path / "suite.json"
        spec = {"nRange": [3, 3], "maxMu": 1, "girthMin": 3, "maxEdgeCopies": 3}
        for key, value in [("randomGraphs", -2), ("randomNMax", 3), ("randomMuMax", 0)]:
            cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(out), key: value}))
            assert cli_main(["lemma-suite", "--config", str(cfg_path), "--seed", "0"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {key} must be >= ")
            assert not out.exists()

    @pytest.mark.parametrize("command", [["scan"], ["lemma-suite", "--seed", "0"]])
    def test_config_that_is_not_json_is_a_config_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{bad")
        assert cli_main([command[0], "--config", str(cfg_path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg_path} is not JSON: ")
        assert len(err.splitlines()) == 1


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

    def test_ring_search_timeout_exit_2(self):
        # 2K10 has 556,014 cycles: the cycle walk polls the command's deadline
        gen = run_cli(["gen", "mu-complete", "10", "2"])
        start = time.monotonic()
        proc = run_cli(
            ["ring-find", "-", "--target", "1000", "--timeout", "1"], stdin_text=gen.stdout
        )
        assert time.monotonic() - start < 5
        assert proc.returncode == 2
        # the walk takes about 2 s, so the budget runs out in it or in the loop after
        assert re.fullmatch(r"error: (cycle enumeration|ring search) exceeded budget\n", proc.stderr)

    def test_directory_as_graph_exit_2(self, tmp_path, capsys):
        assert cli_main(["chi", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_directory_as_scan_output_exit_2(self, tmp_path, capsys):
        spec = {"nRange": [3, 3], "maxMu": 1, "girthMin": 3, "maxEdgeCopies": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(tmp_path)}))
        assert cli_main(["scan", "--config", str(cfg_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command, target, message", [
        (["scan"], "steffenlab.scan.run_scan", "interrupted; partial results flushed"),
        # the random suite runs last, after the whole corpus
        (["lemma-suite", "--seed", "0"], "steffenlab.scan.random_multigraph", "interrupted"),
        (["chi"], "steffenlab.coloring.chromatic_index", "interrupted"),
    ])
    def test_interrupt_is_exit_130(self, tmp_path, capsys, monkeypatch, c53_file,
                                   command, target, message):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(target, interrupted)
        out = tmp_path / "out.json"
        cfg_path = tmp_path / "cfg.json"
        spec = {"nRange": [3, 3], "maxMu": 3, "girthMin": 3, "maxEdgeCopies": 9}
        cfg_path.write_text(json.dumps({"enumSpec": spec, "outputPath": str(out)}))
        where = [c53_file] if command == ["chi"] else ["--config", str(cfg_path)]
        assert cli_main([command[0], *where, *command[1:]]) == 130
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out.exists()  # a lemma suite writes its report only when done

    def test_unwritable_witness_prints_nothing(self, tmp_path, capsys):
        # the witness is written before chi' is printed, so a failed command
        # leaves stdout empty
        path = tmp_path / "c5.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(5, 1)))
        out = tmp_path / "missing" / "w.json"
        assert cli_main(["chi", str(path), "--witness-out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()

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
        # the ring search finds the cycle itself, walking it without recursion
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

    def test_long_odd_cycle_past_the_density_cap(self, tmp_path, capsys):
        # the search ascent starts at Delta past density's cap; the commands
        # that need Gamma itself still refuse the cycle
        path = tmp_path / "cycle.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(1501, 1)))
        assert cli_main(["chi", str(path)]) == 0
        assert capsys.readouterr().out == "3\n"
        assert cli_main(["ring-find", str(path), "--target", "3"]) == 0
        ring = {"cycle": list(range(1501)), "multiplicities": [1] * 1501, "chi": 3}
        assert json.loads(capsys.readouterr().out) == {"found": True, "ring": ring}
        for command, *options in (("invariants",), ("density",), ("chi", "--mode", "gs")):
            assert cli_main([command, str(path), *options]) == 2
            assert "density enumeration needs n <= 22, got 1501" in capsys.readouterr().err

    def test_multicycle_past_the_density_cap(self, tmp_path, capsys):
        # 3C_23: chi' = max(Delta, ceil(69 / 11)) = 7 > Delta = 6
        path = tmp_path / "3c23.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(23, 3)))
        assert cli_main(["chi", str(path)]) == 0
        assert capsys.readouterr().out == "7\n"

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


C53_WITH_PENDANT = sl.build(6, [(0, 1, 3), (0, 4, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 1)])


class TestOneBudget:
    # decisions: the ascent's one, then G - e for each pair once; the pendant
    # graph drops its pendant edge, its last pair, at the sixth, and the walk
    # does not return to the five 3C5 pairs that already lowered chi'
    @pytest.mark.parametrize(
        "G, critical, decisions", [(sl.mu_cycle(5, 3), True, 6), (C53_WITH_PENDANT, False, 7)]
    )
    def test_critical_command_has_one_deadline(
        self, G, critical, decisions, deadlines, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(sl.serialize(G)))
        start = time.monotonic()
        assert cli_main(["critical", "-", "--timeout", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["chi"] == 8 and out["isCritical"] is critical
        assert out["criticalSubgraph"]["edges"] == sl.to_json_obj(sl.mu_cycle(5, 3))["edges"]
        assert len(deadlines["density"]) == 1 and len(deadlines["_search"]) == decisions
        assert len(set(deadlines["_search"] + deadlines["density"])) == 1
        assert start + 9 <= deadlines["_search"][0] <= time.monotonic() + 9

    @pytest.mark.parametrize("mult", [1_000_000, 99999999999999999999])
    def test_colors_over_the_cap_exit_2(self, mult, capsys, monkeypatch):
        # without the cap the first took minutes and the second overflowed
        monkeypatch.setattr("sys.stdin", io.StringIO(f"n 3\ne 0 1 {mult}\ne 1 2 1\n"))
        assert cli_main(["chi", "-", "--timeout", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: coloring search needs k <= {COLOR_CAP}, got {mult + 1}"
        ]

    @pytest.mark.parametrize(
        "G, target, mults",
        [
            (sl.mu_cycle(7, 9), 21, [9] * 7),
            (sl.mu_cycle(7, 10), 24, [10] * 7),
            (sl.build(3, [(0, 1, 10**20), (1, 2, 1), (0, 2, 1)]), 4097, [4095, 1, 1]),
        ],
        ids=["9C7", "10C7", "triangle"],
    )
    def test_ring_find_colors_nothing(self, G, target, mults, capsys, monkeypatch):
        # a found ring's chi' is its closed form: the solver's ascent runs out
        # of a minute on 9C7 and 10C7, and needs more colors than its cap on
        # the triangle
        monkeypatch.setattr("sys.stdin", io.StringIO(sl.serialize(G)))
        assert cli_main(["ring-find", "-", "--target", str(target), "--timeout", "5"]) == 0
        ring = {"cycle": list(range(len(mults))), "multiplicities": mults, "chi": target}
        assert json.loads(capsys.readouterr().out) == {"found": True, "ring": ring}


MULTS = st.one_of(st.integers(1, 4), st.integers(COLOR_CAP + 1, 10**30))


@st.composite
def mgr_texts(draw) -> str:
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return "".join([f"n {n}\n"] + [f"e {u} {v} {draw(MULTS)}\n" for u, v in chosen])


COMMANDS = st.one_of(
    st.sampled_from([["invariants"], ["density"], ["chi"], ["critical"], ["partition"]]),
    st.builds(lambda t: ["ring-find", "--target", str(t)], st.one_of(st.integers(0, 12), MULTS)),
)


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None)
    @given(command=COMMANDS, text=st.one_of(mgr_texts(), st.text(max_size=200)))
    def test_only_exit_0_or_2(self, command, text):
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main([command[0], "-", *command[1:]])
        finally:
            sys.stdin = saved
        assert rc in (0, 2)


# a valid scan and lemma-suite config small enough to run in well under a second
TINY_CONFIG = {
    "enumSpec": {"nRange": [1, 3], "maxMu": 2, "girthMin": 3, "maxEdgeCopies": 4,
                 "requireCycle": False, "connectedOnly": False},
    "solverTimeoutSeconds": 1,
    "workers": 1,
    "outputPath": "r.jsonl",
    "ringCheck": True,
    "randomGraphs": 3,
    "randomNMax": 5,
    "randomMuMax": 2,
    "extraGraphs": ["n 2\ne 0 1 2\n"],
}
# every integer in -2..4, so that a valid draw stays small; strings cannot
# name a path outside the working directory
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4), st.just(float("nan")),
        st.text("ab.", max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)


@st.composite
def one_change_configs(draw) -> dict:
    """TINY_CONFIG with one change to it or to its spec: a key's value
    replaced by a drawn JSON value, an unknown key added, or a key dropped."""
    config = json.loads(json.dumps(TINY_CONFIG))
    target = draw(st.sampled_from([config, config["enumSpec"]]))
    key = draw(st.sampled_from(sorted(target)))
    change = draw(st.sampled_from(["replace", "add", "drop"]))
    if change == "replace":
        target[key] = draw(JSON_VALUES)
    elif change == "add":
        target[draw(st.text("xyz", min_size=1, max_size=3))] = draw(JSON_VALUES)
    else:
        del target[key]
    return config


class TestConfigExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from([["scan"], ["lemma-suite", "--seed", "0"]]),
        config=one_change_configs(),
    )
    def test_only_exit_0_1_or_2(self, command, config):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # relative output paths land in the scratch directory
            try:
                Path("cfg.json").write_text(json.dumps(config))
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli_main([command[0], "--config", "cfg.json", *command[1:]])
            finally:
                os.chdir(cwd)
        assert rc in (0, 1, 2)
