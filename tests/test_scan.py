import hashlib
import json
import math
import os
import pickle
import signal
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import steffenlab as sl
from steffenlab.errors import ConfigError, PreconditionFailed, SolverTimeout
from steffenlab.generators import EnumSpec, class_keys, graph_from_key
from steffenlab.invariants import in_theorem_regime
from steffenlab.scan import (
    RECORD_FIELDS,
    ScanConfig,
    ScanSummary,
    _RECORD_TYPES,
    _critical_in_regime,
    _fold_record,
    _fold_report_prefix,
    _mapped,
    _record_for_key,
    _record_line,
    compute_record,
    read_spec_echo,
    run_lemma_suite,
    run_scan,
    write_spec_echo,
)


def small_spec(**kw):
    base = dict(n_min=1, n_max=5, max_mu=3, girth_min=3, max_edge_copies=9)
    base.update(kw)
    return EnumSpec(**base)


def file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# a scan config as JSON, carrying every documented key
FULL_CONFIG_JSON = {
    "enumSpec": {"nRange": [1, 5], "maxMu": 3, "girthMin": 3, "maxEdgeCopies": 9,
                 "requireCycle": False, "connectedOnly": False},
    "solverTimeoutSeconds": 30,
    "workers": 2,
    "outputPath": "x.jsonl",
    "ringCheck": False,
    "randomGraphs": 50,
    "randomNMax": 9,
    "randomMuMax": 2,
    "extraGraphs": ["n 2\ne 0 1 3\n"],
}


def spec_echo(spec):
    return "# " + json.dumps(spec.to_json_obj(), sort_keys=True) + "\n"


def fail_writes(monkeypatch):
    """Make every write to a file that scan opens for writing fail, as on a full disk."""
    import builtins

    import steffenlab.scan as scan_mod

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if "w" in mode:
            fh.write = disk_full
        return fh

    monkeypatch.setattr(scan_mod, "open", failing_open, raising=False)


class TestRecords:
    def test_record_fields_and_order(self, tmp_path):
        cfg = ScanConfig(enum_spec=small_spec(), output_path=str(tmp_path / "o.jsonl"))
        run_scan(cfg)
        lines = open(cfg.output_path).read().splitlines()
        assert lines
        for line in lines[:20]:
            record = json.loads(line)
            assert tuple(record) == RECORD_FIELDS

    def test_readme_lists_the_record_fields(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Record fields, in report order", 1)[1].split("\n\n", 1)[0]
        # each field's first mention, in order; the notes name values and other keys
        names = paragraph.split("`")[1::2]
        listed = list(dict.fromkeys(n for n in names if n in RECORD_FIELDS))
        assert tuple(listed) == RECORD_FIELDS

    def test_records_sorted_by_key(self, tmp_path):
        cfg = ScanConfig(enum_spec=small_spec(), output_path=str(tmp_path / "o.jsonl"))
        run_scan(cfg)
        keys = [json.loads(l)["graphKey"] for l in open(cfg.output_path)]
        assert keys == sorted(keys)

    def test_3c5_record_contents(self):
        from steffenlab.generators import graph_from_key

        spec = EnumSpec(n_min=5, n_max=5, max_mu=3, girth_min=5, max_edge_copies=15)
        cfg = ScanConfig(enum_spec=spec, output_path="unused")
        key = sl.canonical_form(sl.mu_cycle(5, 3))
        rep = graph_from_key(key)
        record = compute_record(key, rep, cfg)
        assert record["chi"] == 8
        assert record["steffenBound"] == 8
        assert record["achievesBound"] is True
        assert record["isCritical"] is True
        assert record["ringFound"] is True
        assert record["status"] == "ok"

    def test_record_reads_its_girth_once(self, monkeypatch):
        import steffenlab.invariants as invariants

        lookups = []
        lookup = invariants.subgraph_girth
        monkeypatch.setattr(
            invariants, "subgraph_girth", lambda G, S: lookups.append(S) or lookup(G, S)
        )
        cfg = ScanConfig(enum_spec=GIRTH5_SPEC, output_path="unused", ring_check=False)
        record = compute_record("k", sl.mu_cycle(5, 3), cfg)
        # the Steffen bound is read at the record's girth, not looked up again
        assert (record["girth"], record["steffenBound"]) == (5, 8)
        assert lookups == [frozenset(range(5))]

    def test_gate_closed_below_girth_floor(self, petersen):
        # mu >= floor(g/2)+1 fails for Petersen: ringFound stays null
        spec = EnumSpec(n_min=5, n_max=10, max_mu=1, girth_min=5)
        cfg = ScanConfig(enum_spec=spec, output_path="unused")
        record = compute_record("k", petersen, cfg)
        assert record["chi"] == 4
        assert record["steffenBound"] == 4
        assert record["achievesBound"] is True
        assert record["ringFound"] is None


GIRTH5_SPEC = EnumSpec(
    n_min=5, n_max=6, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
)


class TestSimpleLayerOnce:
    def test_girth_once_per_simple_representative(self, tmp_path, monkeypatch):
        import steffenlab.invariants as invariants

        calls = []
        bfs = invariants._bfs_girth
        monkeypatch.setattr(
            invariants, "_bfs_girth", lambda G, within: calls.append(1) or bfs(G, within)
        )
        class_keys(GIRTH5_SPEC)
        enumeration = len(calls)
        calls.clear()
        cfg = ScanConfig(enum_spec=GIRTH5_SPEC, workers=1, output_path=str(tmp_path / "r.jsonl"))
        assert run_scan(cfg).total == 1951
        # the enumeration's own calls (growing the simple layer, then one per
        # simple representative) and none for the 1,951 records
        assert len(calls) == enumeration

    @pytest.mark.parametrize("ring_check", [True, False])
    def test_records_build_no_witness_and_no_density(self, tmp_path, monkeypatch, ring_check):
        import steffenlab.coloring as coloring
        import steffenlab.invariants as invariants

        witnesses, kernel = [], []
        witness, odd_sets = coloring.EdgeColoring, invariants._odd_set_density
        monkeypatch.setattr(
            coloring, "EdgeColoring", lambda *a: witnesses.append(a) or witness(*a)
        )
        monkeypatch.setattr(
            invariants, "_odd_set_density", lambda G, *a: kernel.append(G) or odd_sets(G, *a)
        )
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(
            enum_spec=GIRTH5_SPEC, workers=1, output_path=str(out), ring_check=ring_check
        )
        summary = run_scan(cfg)
        assert summary.total == 1951 and summary.ring_found == ring_check
        assert witnesses == []
        # Gamma comes with each key, and a found ring's chi' is its closed form
        assert kernel == []

    def test_seeded_record_equals_fresh_record(self, monkeypatch):
        import steffenlab.invariants as invariants

        cfg = ScanConfig(enum_spec=GIRTH5_SPEC, output_path="unused")
        keys, layers = class_keys(GIRTH5_SPEC)
        fresh = [compute_record(key, graph_from_key(key), cfg) for key in keys]
        computed = []
        for name in ("_bfs_girth", "_two_colorable"):
            original = getattr(invariants, name)
            monkeypatch.setattr(
                invariants, name, lambda G, *a, f=original: computed.append(G) or f(G, *a)
            )
        built = []
        from_key = graph_from_key

        def tracked(key):
            built.append(from_key(key))
            return built[-1]

        monkeypatch.setattr("steffenlab.scan.graph_from_key", tracked)
        seeded = [_record_for_key(cfg, key, layer) for key, layer in zip(keys, layers)]
        assert seeded == fresh
        # no record graph computes its girth or bipartiteness; the ring
        # search, on the one gated record, 2-colors only the rings it tries
        assert not any(G is H for G in computed for H in built)
        # and only that record builds the neighbour sets of its simple graph
        with_adj = [i for i, G in enumerate(built) if "adj" in G.__dict__]
        assert with_adj == [i for i, r in enumerate(seeded) if r["ringFound"] is not None]
        assert len(with_adj) == 1


@pytest.fixture()
def in_process_pool(monkeypatch):
    """Replace the process pool by one that maps in this process (a real pool
    forks all of its processes at its first task).  The log holds the pool
    sizes asked for, per `map` its function, item count and chunk size, and
    the arguments of each shutdown."""
    log = SimpleNamespace(sizes=[], maps=[], shutdowns=[])

    class InProcessPool:
        def __init__(self, max_workers, **options):
            log.sizes.append(max_workers)

        def shutdown(self, **options):
            log.shutdowns.append(options)

        def map(self, fn, *iterables, chunksize=1):
            args = list(zip(*iterables))
            log.maps.append((fn, len(args), chunksize))
            return (fn(*a) for a in args)

    # `_mapped` imports the pool class when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return log


class TestScanRuns:
    def test_includes_3c5_when_budget_allows(self, tmp_path):
        spec = EnumSpec(n_min=5, n_max=5, max_mu=3, girth_min=5, max_edge_copies=15, require_cycle=True)
        cfg = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "s.jsonl"))
        summary = run_scan(cfg)
        assert summary.violation_count == 0
        records = [json.loads(l) for l in open(cfg.output_path)]
        achievers = [r for r in records if r["achievesBound"]]
        ring_rows = [r for r in records if r["ringFound"] is not None]
        assert any(r["m"] == 15 and r["ringFound"] for r in ring_rows)
        assert all(r["ringFound"] for r in ring_rows)
        assert len(achievers) >= len(ring_rows)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        spec = small_spec(n_max=4)
        cfg1 = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "w1.jsonl"), workers=1)
        cfg2 = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "w2.jsonl"), workers=2)
        s1, s2 = run_scan(cfg1), run_scan(cfg2)
        assert file_digest(cfg1.output_path) == file_digest(cfg2.output_path)
        assert s1.to_json_obj() == s2.to_json_obj()

    @pytest.mark.parametrize("cpus, size", [(3, 3), (None, 1)])
    def test_pool_has_at_most_one_process_per_cpu(
        self, tmp_path, monkeypatch, in_process_pool, cpus, size
    ):
        import steffenlab.scan as scan_mod

        monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: cpus)
        spec = small_spec(n_max=4)
        one = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "w1.jsonl"))
        many = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "wn.jsonl"), workers=100000)
        assert run_scan(one).to_json_obj() == run_scan(many).to_json_obj()
        assert in_process_pool.sizes == [size]
        assert file_digest(one.output_path) == file_digest(many.output_path)

    def test_pool_processes_ignore_ctrl_c(self):
        # a terminal's Ctrl-C reaches every process of the group: only the
        # parent stops, so an idle pool process prints no traceback
        handlers = _mapped(2, lambda shard_map, record_map: list(
            record_map(signal.getsignal, [signal.SIGINT] * 2)))
        assert handlers == [signal.SIG_IGN] * 2

    def test_interrupted_pool_run_drops_its_queued_tasks(self, in_process_pool):
        def interrupted(shard_map, record_map):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _mapped(2, interrupted)
        assert in_process_pool.shutdowns == [{"cancel_futures": True}]

    def test_record_tasks_are_batched(self, tmp_path, in_process_pool):
        # a task per few records costs the parent process more than the records
        from steffenlab.scan import RECORD_BATCH

        cfg = ScanConfig(enum_spec=small_spec(), output_path=str(tmp_path / "w.jsonl"), workers=2)
        total = run_scan(cfg).total
        [tasks] = [
            math.ceil(items / chunksize)
            for fn, items, chunksize in in_process_pool.maps
            if getattr(fn, "func", None) is _record_for_key
        ]
        assert total == 758 and tasks <= math.ceil(total / RECORD_BATCH)

    def test_sharded_enumeration_same_bytes_girth5(self, tmp_path):
        # girth >= 5 corpus shape on n 5..6: one record fires the ring gate
        spec = EnumSpec(
            n_min=5, n_max=6, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
        )
        cfg1 = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "w1.jsonl"), workers=1)
        cfg2 = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "w2.jsonl"), workers=2)
        s1, s2 = run_scan(cfg1), run_scan(cfg2)
        assert s1.ring_gate_fired == 1 and s1.total == 1951
        assert open(cfg1.output_path, "rb").read() == open(cfg2.output_path, "rb").read()
        assert s1.to_json_obj() == s2.to_json_obj()
        ck1 = open(cfg1.effective_checkpoint()).read()
        assert ck1 == open(cfg2.effective_checkpoint()).read()

    def test_pool_gets_the_whole_config(self, tmp_path):
        # each non-default field shows in the report: connected_only drops
        # 133 classes, and with ring_check on, the 3C5 record finds its ring
        spec = EnumSpec(
            n_min=5, n_max=6, max_mu=3, girth_min=5, max_edge_copies=15, connected_only=True
        )
        reports, summaries = [], []
        for workers in (1, 2):
            cfg = ScanConfig(
                enum_spec=spec,
                output_path=str(tmp_path / f"w{workers}.jsonl"),
                workers=workers,
                ring_check=False,
                budget_seconds=5,
            )
            assert pickle.loads(pickle.dumps(cfg)) == cfg
            summaries.append(run_scan(cfg).to_json_obj())
            reports.append(Path(cfg.output_path).read_bytes())
        assert reports[0] == reports[1]
        assert summaries[0] == summaries[1]
        assert summaries[0]["total"] == 1232 and summaries[0]["ringGateFired"] == 0
        key = sl.canonical_form(sl.mu_cycle(5, 3))
        records = [json.loads(line) for line in reports[1].splitlines()]
        (ring,) = [r for r in records if r["graphKey"] == key]
        assert ring["achievesBound"] and ring["ringFound"] is None

    def test_checkpoint_resume_with_pool(self, tmp_path):
        spec = small_spec(n_max=4)
        full = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "full.jsonl"))
        run_scan(full)
        lines = open(full.output_path).read().splitlines()
        cut = len(lines) // 3
        resumed = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "res.jsonl"), workers=2)
        with open(resumed.output_path, "w") as fh:
            fh.write("\n".join(lines[:cut]) + "\n")
        with open(resumed.effective_checkpoint(), "w") as fh:
            fh.write("# " + json.dumps(spec.to_json_obj(), sort_keys=True) + "\n")
            for line in lines[:cut]:
                fh.write(json.loads(line)["graphKey"] + "\n")
        summary = run_scan(resumed)
        assert file_digest(resumed.output_path) == file_digest(full.output_path)
        assert summary.total == len(lines)
        assert not os.path.exists(resumed.effective_checkpoint() + ".tmp")

    def test_checkpoint_resume_byte_identical(self, tmp_path):
        spec = small_spec(n_max=4)
        full = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "full.jsonl"))
        run_scan(full)
        lines = open(full.output_path).read().splitlines()
        cut = len(lines) // 2
        resumed_path = str(tmp_path / "res.jsonl")
        with open(resumed_path, "w") as fh:
            fh.write("\n".join(lines[:cut]) + "\n")
        with open(resumed_path + ".checkpoint", "w") as fh:
            fh.write("# " + json.dumps(spec.to_json_obj(), sort_keys=True) + "\n")
            for line in lines[:cut]:
                fh.write(json.loads(line)["graphKey"] + "\n")
        summary = run_scan(ScanConfig(enum_spec=spec, output_path=resumed_path))
        assert file_digest(resumed_path) == file_digest(full.output_path)
        assert summary.total == len(lines)

    def test_failed_resume_rewrite_keeps_report(self, tmp_path, monkeypatch):
        spec = small_spec(n_max=4)
        full = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "full.jsonl"))
        run_scan(full)
        lines = open(full.output_path).read().splitlines()
        cut = len(lines) // 2
        resumed = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "res.jsonl"))
        with open(resumed.output_path, "w") as fh:
            fh.write("\n".join(lines[:cut]) + "\n")
        with open(resumed.effective_checkpoint(), "w") as fh:
            fh.write(spec_echo(spec))
            for line in lines[:cut]:
                fh.write(json.loads(line)["graphKey"] + "\n")
        before = open(resumed.output_path, "rb").read()

        fail_writes(monkeypatch)
        with pytest.raises(OSError):
            run_scan(resumed)
        assert open(resumed.output_path, "rb").read() == before

        monkeypatch.undo()
        run_scan(resumed)
        assert file_digest(resumed.output_path) == file_digest(full.output_path)

    def test_checkpoint_without_report_rescans(self, tmp_path):
        spec = small_spec(n_max=4)
        cfg = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "o.jsonl"))
        run_scan(cfg)
        before = file_digest(cfg.output_path)
        os.remove(cfg.output_path)
        summary = run_scan(cfg)
        assert file_digest(cfg.output_path) == before
        assert summary.total == summary.ok > 0

    def test_checkpoint_spec_mismatch_rejected(self, tmp_path):
        spec = small_spec(n_max=4)
        out = str(tmp_path / "a.jsonl")
        run_scan(ScanConfig(enum_spec=spec, output_path=out))
        other = small_spec(n_max=5)
        with pytest.raises(ConfigError):
            run_scan(ScanConfig(enum_spec=other, output_path=out))

    def test_checkpoint_file_shape(self, tmp_path):
        spec = small_spec(n_max=3)
        cfg = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "o.jsonl"))
        run_scan(cfg)
        assert open(cfg.effective_checkpoint()).read() == spec_echo(spec)
        assert read_spec_echo(cfg.effective_checkpoint()) == spec.to_json_obj()


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        spec = EnumSpec(n_min=2, n_max=4, max_mu=2, girth_min=3, max_edge_copies=6)
        path = str(tmp_path / "ck.txt")
        write_spec_echo(path, spec)
        assert read_spec_echo(path) == spec.to_json_obj()
        assert open(path).read() == spec_echo(spec)

    def test_failed_rewrite_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        spec = EnumSpec(n_min=2, n_max=4, max_mu=2, girth_min=3, max_edge_copies=6)
        path = str(tmp_path / "ck.txt")
        write_spec_echo(path, spec)
        before = open(path).read()
        fail_writes(monkeypatch)
        with pytest.raises(OSError):
            write_spec_echo(path, small_spec())
        assert open(path).read() == before


RESUME_SPEC = small_spec(n_max=4)


@pytest.fixture(scope="module")
def full_resume_report(tmp_path_factory):
    """The uninterrupted report of RESUME_SPEC: its lines, sha256 and summary."""
    cfg = ScanConfig(
        enum_spec=RESUME_SPEC, output_path=str(tmp_path_factory.mktemp("full") / "full.jsonl")
    )
    summary = run_scan(cfg)
    data = open(cfg.output_path, "rb").read()
    return data.splitlines(keepends=True), hashlib.sha256(data).hexdigest(), summary.to_json_obj()


def _foreign_line():
    """A complete record of a graph outside RESUME_SPEC's corpus (n = 5)."""
    G = sl.mu_cycle(5, 3)
    cfg = ScanConfig(enum_spec=small_spec(), output_path="unused")
    return (_record_line(compute_record(sl.canonical_form(G), G, cfg)) + "\n").encode()


# how a report was damaged: full report lines and the cut -> report bytes;
# a resume keeps exactly the first `cut` lines
RESUME_CASES = {
    "torn-last-line": lambda lines, cut: b"".join(lines[:cut]) + lines[cut][:40],
    "unterminated-last-line": lambda lines, cut: b"".join(lines[: cut + 1])[:-1],
    "out-of-order": lambda lines, cut: b"".join(
        lines[:cut] + [lines[cut + 1], lines[cut]] + lines[cut + 2 :]
    ),
    "other-spec-line": lambda lines, cut: b"".join(lines[:cut] + [_foreign_line()] + lines[cut:]),
    "unparsable-line": lambda lines, cut: b"".join(lines[:cut] + [b"{not json\n"] + lines[cut:]),
    "deeply-nested-line": lambda lines, cut: b"".join(
        lines[:cut] + [b"[" * 100_000 + b"\n"] + lines[cut:]
    ),
}


def fits_record_types(record):
    """Whether a report record holds `RECORD_FIELDS` in order, each value of its
    `_RECORD_TYPES` type or, in a `timeout` record, null."""
    nullable = record["status"] == "timeout"
    return tuple(record) == RECORD_FIELDS and all(
        type(v) in _RECORD_TYPES[k] or (nullable and v is None) for k, v in record.items()
    )


class TestResume:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(RESUME_CASES))
    def test_damaged_report_resumes(
        self, tmp_path, monkeypatch, full_resume_report, case, workers
    ):
        import steffenlab.scan as scan_mod

        lines, digest, summary = full_resume_report
        cut = len(lines) // 3
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=RESUME_SPEC, output_path=str(out), workers=workers)
        out.write_bytes(RESUME_CASES[case](lines, cut))
        Path(cfg.effective_checkpoint()).write_text(spec_echo(RESUME_SPEC))
        computed = []
        if workers == 1:
            real = scan_mod.compute_record

            def counting(key, G, config):
                computed.append(key)
                return real(key, G, config)

            monkeypatch.setattr(scan_mod, "compute_record", counting)
        assert run_scan(cfg).to_json_obj() == summary
        assert file_digest(out) == digest
        assert Path(cfg.effective_checkpoint()).read_text() == spec_echo(RESUME_SPEC)
        if workers == 1:
            assert len(computed) == len(lines) - cut

    def test_old_format_checkpoint_keys_ignored(self, tmp_path, full_resume_report):
        # an old checkpoint listed finished keys after the echo; the report
        # alone decides, even where the listed keys run past it
        lines, digest, summary = full_resume_report
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=RESUME_SPEC, output_path=str(out))
        out.write_bytes(b"".join(lines[: len(lines) // 2]))
        keys = "".join(json.loads(line)["graphKey"] + "\n" for line in lines)
        Path(cfg.effective_checkpoint()).write_text(spec_echo(RESUME_SPEC) + keys)
        assert run_scan(cfg).to_json_obj() == summary
        assert file_digest(out) == digest
        assert Path(cfg.effective_checkpoint()).read_text() == spec_echo(RESUME_SPEC)

    @pytest.mark.parametrize("first_line", ["02.01\n", "# {not json\n", ""])
    def test_checkpoint_without_spec_echo_rejected(self, tmp_path, full_resume_report, first_line):
        from steffenlab.cli import cli_main

        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=RESUME_SPEC, output_path=str(out))
        out.write_bytes(b"".join(full_resume_report[0][:3]))
        Path(cfg.effective_checkpoint()).write_text(first_line)
        before = out.read_bytes()
        with pytest.raises(ConfigError):
            run_scan(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**FULL_CONFIG_JSON, "enumSpec": RESUME_SPEC.to_json_obj(), "outputPath": str(out)}
        ))
        assert cli_main(["scan", "--config", str(cfg_path)]) == 2
        assert out.read_bytes() == before


# the n = 5 classes with girth >= 5, mu <= 4 and at most 16 copies: the
# ring gate fires on one of their 497 records, that of 3C5 (line 491)
RING_SPEC = EnumSpec(n_min=5, n_max=5, max_mu=4, girth_min=5, max_edge_copies=16)


@pytest.fixture(scope="module")
def ring_check_reports(tmp_path_factory):
    """ringCheck -> (report lines, summary) of a fresh RING_SPEC scan."""
    out = {}
    for ring_check in (True, False):
        path = tmp_path_factory.mktemp("ring") / "r.jsonl"
        cfg = ScanConfig(enum_spec=RING_SPEC, output_path=str(path), ring_check=ring_check)
        summary = run_scan(cfg).to_json_obj()
        out[ring_check] = path.read_bytes().splitlines(keepends=True), summary
    return out


class TestResumeAcrossRingCheck:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("chi", None), ("Delta", None), ("isCritical", "no"), ("status", "bogus"),
            ("status", None), ("n", "5"), ("m", None), ("delta", 2.5), ("ringWitness", 7),
        ],
    )
    def test_mistyped_field_ends_the_prefix(self, tmp_path, ring_check_reports, field, value):
        # a null chi fails the fold, and under girth floor 5 a null Delta fails
        # the ring gate; "no" would count as critical, and a status that is
        # neither ok nor timeout would count as a timeout; the fields that
        # neither reads would be kept and differ from a fresh report
        self.resume_past_damaged_line(tmp_path, ring_check_reports, {field: value})

    def test_mistyped_timeout_line_ends_the_prefix(self, tmp_path, ring_check_reports):
        # a timeout record may hold null, but not a value of another type
        self.resume_past_damaged_line(tmp_path, ring_check_reports, {"status": "timeout", "n": "5"})

    @staticmethod
    def resume_past_damaged_line(tmp_path, ring_check_reports, changes):
        """Resume through the CLI from the fresh report with `changes` made to
        its middle `ok` line: the resumed report must equal the fresh one."""
        from steffenlab.cli import cli_main

        lines, _ = ring_check_reports[True]
        cut = len(lines) // 2
        record = json.loads(lines[cut])
        assert record["status"] == "ok"
        record.update(changes)
        bad = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"".join(lines[:cut] + [bad] + lines[cut + 1 :]))
        Path(f"{out}.checkpoint").write_text(spec_echo(RING_SPEC))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": RING_SPEC.to_json_obj(), "outputPath": str(out)}))
        assert cli_main(["scan", "--config", str(cfg_path)]) == 0
        assert out.read_bytes() == b"".join(lines)

    def test_written_records_fit_the_record_types(
        self, tmp_path, full_resume_report, ring_check_reports, monkeypatch
    ):
        import steffenlab.scan as scan_mod

        lines = full_resume_report[0] + ring_check_reports[True][0] + ring_check_reports[False][0]
        records = [json.loads(line) for line in lines]
        assert all(fits_record_types(record) for record in records)
        assert {record["ringFound"] for record in records} == {None, True}

        def out_of_time(*args, **kwargs):
            raise SolverTimeout("budget spent")

        monkeypatch.setattr(scan_mod, "density_gamma", out_of_time)
        G = sl.mu_cycle(5, 3)
        record = json.loads(_record_line(compute_record("k", G, ScanConfig(output_path="unused"))))
        assert record["status"] == "timeout" and record["chi"] is None
        assert fits_record_types(record)
        # and a resume keeps it, nulls and all
        out = tmp_path / "r.jsonl"
        out.write_text(_record_line(record) + "\n")
        summary = ScanSummary()
        assert _fold_report_prefix(ScanConfig(output_path=str(out)), ["k"], summary)[0] == 1
        assert summary.timeouts == 1

    @pytest.mark.parametrize("first", [True, False], ids=["on-then-off", "off-then-on"])
    def test_resumed_report_equals_a_fresh_one(self, tmp_path, ring_check_reports, first):
        # the checkpoint echoes only the spec, so the kept prefix must end at
        # the first record that this config's ring check writes otherwise
        [fired] = [
            i for i, line in enumerate(ring_check_reports[True][0])
            if json.loads(line)["ringFound"] is not None
        ]
        assert ring_check_reports[False][1]["ringGateFired"] == 0
        lines, _ = ring_check_reports[first]
        fresh_lines, fresh_summary = ring_check_reports[not first]
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=RING_SPEC, output_path=str(out), ring_check=not first)
        out.write_bytes(b"".join(lines[: fired + 1]))
        Path(cfg.effective_checkpoint()).write_text(spec_echo(RING_SPEC))
        assert run_scan(cfg).to_json_obj() == fresh_summary
        assert out.read_bytes() == b"".join(fresh_lines)

    def test_same_ring_check_keeps_the_fired_record(
        self, tmp_path, ring_check_reports, monkeypatch
    ):
        import steffenlab.scan as scan_mod

        lines, summary = ring_check_reports[True]
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=RING_SPEC, output_path=str(out))
        out.write_bytes(b"".join(lines[:-1]))  # line 491 included
        Path(cfg.effective_checkpoint()).write_text(spec_echo(RING_SPEC))
        computed = []
        real = scan_mod.compute_record

        def counting(key, G, config):
            computed.append(key)
            return real(key, G, config)

        monkeypatch.setattr(scan_mod, "compute_record", counting)
        assert run_scan(cfg).to_json_obj() == summary
        assert out.read_bytes() == b"".join(lines) and len(computed) == 1


class TestConfig:
    def test_json_roundtrip(self):
        cfg = ScanConfig.from_json_obj(json.loads(json.dumps(FULL_CONFIG_JSON)))
        assert cfg == ScanConfig(
            enum_spec=small_spec(),
            budget_seconds=30.0,
            workers=2,
            output_path="x.jsonl",
            ring_check=False,
            random_graphs=50,
            random_n_max=9,
            random_mu_max=2,
            extra_graphs=("n 2\ne 0 1 3\n",),
        )

    def test_absent_keys_take_field_defaults(self):
        cfg = ScanConfig.from_json_obj({"enumSpec": FULL_CONFIG_JSON["enumSpec"]})
        assert cfg == ScanConfig(enum_spec=small_spec())

    @pytest.mark.parametrize("key", ["steffenCheck", "gsCheck", "outputpath"])
    def test_unknown_config_key_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            ScanConfig.from_json_obj({**FULL_CONFIG_JSON, key: True})

    def test_unknown_spec_key_rejected(self):
        spec = {**FULL_CONFIG_JSON["enumSpec"], "requireCycles": True}
        with pytest.raises(ConfigError, match="requireCycles"):
            EnumSpec.from_json_obj(spec)
        with pytest.raises(ConfigError, match="requireCycles"):
            ScanConfig.from_json_obj({**FULL_CONFIG_JSON, "enumSpec": spec})

    @pytest.mark.parametrize("key", ["enumSpec", "nRange", "maxMu", "girthMin", "maxEdgeCopies"])
    def test_missing_required_key_rejected(self, key):
        spec = {k: v for k, v in FULL_CONFIG_JSON["enumSpec"].items() if k != key}
        config = {k: v for k, v in {**FULL_CONFIG_JSON, "enumSpec": spec}.items() if k != key}
        with pytest.raises(ConfigError, match=f"missing '{key}'"):
            ScanConfig.from_json_obj(config)

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ScanConfig.from_json_obj(json.loads(block))
        assert cfg.output_path == "full6.jsonl"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ringCheck", "false"),
            ("ringCheck", 0),
            ("workers", 2.7),
            ("workers", True),
            ("workers", "2"),
            ("solverTimeoutSeconds", "60"),
            ("solverTimeoutSeconds", False),
            ("outputPath", 5),
            ("randomGraphs", 10.0),
            ("extraGraphs", "n 2\ne 0 1 3\n"),
            ("extraGraphs", [["n 2"]]),
        ],
    )
    def test_wrongly_typed_config_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScanConfig.from_json_obj({**FULL_CONFIG_JSON, key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("requireCycle", "false"),
            ("connectedOnly", 1),
            ("maxMu", 2.7),
            ("maxMu", True),
            ("girthMin", "5"),
            ("maxEdgeCopies", None),
            ("nRange", [1, 5.0]),
            ("nRange", [1]),
            ("nRange", "1..5"),
        ],
    )
    def test_wrongly_typed_spec_value_rejected(self, key, value):
        spec = {**FULL_CONFIG_JSON["enumSpec"], key: value}
        with pytest.raises(ConfigError, match=key):
            EnumSpec.from_json_obj(spec)
        with pytest.raises(ConfigError, match=key):
            ScanConfig.from_json_obj({**FULL_CONFIG_JSON, "enumSpec": spec})

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ScanConfig.from_json_obj([FULL_CONFIG_JSON])
        with pytest.raises(ConfigError, match="JSON object"):
            ScanConfig.from_json_obj({**FULL_CONFIG_JSON, "enumSpec": ["nRange"]})

    @pytest.mark.parametrize("text", ["NaN", "0.5", "-Infinity"])
    def test_timeout_below_one_second_rejected(self, text):
        obj = {**FULL_CONFIG_JSON, "solverTimeoutSeconds": json.loads(text)}
        with pytest.raises(ConfigError, match="solver timeout"):
            ScanConfig.from_json_obj(obj)

    def test_integral_timeout_is_a_number(self):
        cfg = ScanConfig.from_json_obj({**FULL_CONFIG_JSON, "solverTimeoutSeconds": 7})
        assert cfg.budget_seconds == 7.0
        assert type(cfg.budget_seconds) is float

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ScanConfig(enum_spec=small_spec(), workers=0)
        for key, kw in [("randomGraphs", dict(random_graphs=-1)), ("randomNMax", dict(random_n_max=3)),
                        ("randomMuMax", dict(random_mu_max=0))]:
            with pytest.raises(ConfigError, match=key):
                ScanConfig(enum_spec=small_spec(), **kw)
        with pytest.raises(ConfigError):
            ScanConfig.from_json_obj({"enumSpec": {"nRange": [1]}})


class TestLemmaSuite:
    def test_deterministic_and_clean(self, tmp_path):
        cfg = ScanConfig(
            enum_spec=EnumSpec(n_min=3, n_max=3, max_mu=3, girth_min=3, max_edge_copies=9),
            output_path=str(tmp_path / "r.json"),
            random_graphs=80,
            random_n_max=10,
        )
        rep1 = run_lemma_suite(cfg, 42)
        text1 = Path(cfg.output_path).read_bytes()
        rep2 = run_lemma_suite(cfg, 42)
        assert Path(cfg.output_path).read_bytes() == text1
        assert rep1 == rep2 == json.loads(text1)
        assert rep1["violationCount"] == 0
        assert rep1["randomSuite"]["graphs"] == 80

    def test_seed_changes_digest(self, tmp_path):
        cfg = ScanConfig(
            enum_spec=EnumSpec(n_min=2, n_max=2, max_mu=2, girth_min=3, max_edge_copies=4),
            output_path=str(tmp_path / "r.json"),
            random_graphs=30,
        )
        assert run_lemma_suite(cfg, 1)["digest"] != run_lemma_suite(cfg, 2)["digest"]

    def test_triangle_family_checked(self, tmp_path):
        cfg = ScanConfig(
            enum_spec=EnumSpec(n_min=3, n_max=3, max_mu=3, girth_min=3, max_edge_copies=9),
            output_path=str(tmp_path / "r.json"),
            random_graphs=5,
        )
        report = run_lemma_suite(cfg, 7)
        # triangles with min multiplicity >= 2: (2,2,2),(3,2,2),(3,3,2),(3,3,3)
        assert report["criticalSuite"]["criticalHighChi"] == 4
        assert report["violationCount"] == 0

    def test_extra_graphs_included(self, tmp_path):
        cfg = ScanConfig(
            enum_spec=EnumSpec(n_min=2, n_max=2, max_mu=1, girth_min=3, max_edge_copies=1),
            output_path=str(tmp_path / "r.json"),
            random_graphs=5,
            extra_graphs=(sl.serialize(sl.mu_cycle(5, 3)),),
        )
        report = run_lemma_suite(cfg, 7)
        assert report["criticalSuite"]["criticalHighChi"] == 1
        assert report["criticalSuite"]["decompositionsChecked"] == 5
        assert report["violationCount"] == 0


    @pytest.mark.parametrize("workers", [1, 2])
    def test_corpus_runs_on_the_record_map(self, tmp_path, in_process_pool, workers):
        # the corpus is mapped as a scan's records are: in batches on a pool,
        # with the builtin map for one worker
        from steffenlab.scan import RECORD_BATCH, _critical_for_key

        cfg = ScanConfig(enum_spec=small_spec(), output_path=str(tmp_path / "r.json"),
                         random_graphs=0, workers=workers)
        report = run_lemma_suite(cfg, 7)
        corpus = [(items, chunksize) for fn, items, chunksize in in_process_pool.maps
                  if getattr(fn, "func", None) is _critical_for_key]
        if workers == 1:
            assert in_process_pool.sizes == [] and in_process_pool.maps == []
        else:
            assert corpus == [(report["criticalSuite"]["graphs"], RECORD_BATCH)]
        assert report["criticalSuite"]["graphs"] == 758

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        reports = []
        for workers in (1, 2):
            cfg = ScanConfig(
                enum_spec=small_spec(), output_path=str(tmp_path / f"w{workers}.json"),
                random_graphs=60, random_n_max=5, random_mu_max=3, workers=workers,
                extra_graphs=(sl.serialize(sl.mu_cycle(5, 3)), sl.serialize(sl.mu_complete(3, 5))),
            )
            run_lemma_suite(cfg, 3)
            reports.append(Path(cfg.output_path).read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["criticalSuite"]["graphs"] == 760

    def test_corpus_takes_the_enumeration_seeds(self, tmp_path, monkeypatch):
        import steffenlab.invariants as invariants

        kernel = []
        odd_sets = invariants._odd_set_density
        monkeypatch.setattr(
            invariants, "_odd_set_density", lambda G, *a: kernel.append(G) or odd_sets(G, *a)
        )
        extra = sl.mu_cycle(5, 3)
        cfg = ScanConfig(
            enum_spec=EnumSpec(n_min=3, n_max=5, max_mu=3, girth_min=3, max_edge_copies=9),
            output_path=str(tmp_path / "r.json"),
            random_graphs=0,
            extra_graphs=(sl.serialize(extra),),
        )
        report = run_lemma_suite(cfg, 7)
        assert report["criticalSuite"]["criticalHighChi"] > 1
        # each corpus graph reads Gamma from its seed; the unseeded extra
        # graph is the one that enumerates odd sets
        assert kernel == [extra]

    def test_precondition_failure_is_a_violation(self, tmp_path, monkeypatch):
        import steffenlab.scan as scan_mod

        def not_near_perfect(*args):
            raise PreconditionFailed("near-perfect", "forced")

        monkeypatch.setattr(scan_mod, "_near_perfect_classes", not_near_perfect)
        config = {
            "enumSpec": EnumSpec(n_min=2, n_max=2, max_edge_copies=1).to_json_obj(),
            "outputPath": str(tmp_path / "r.json"),
            "randomGraphs": 0,
            "extraGraphs": [sl.serialize(sl.mu_cycle(5, 3))],
        }
        report = run_lemma_suite(ScanConfig.from_json_obj(config), 7)
        [violation] = report["violations"]
        assert violation["check"] == "near-perfect"
        assert violation["suite"] == "critical" and violation["graphKey"].startswith("extra.")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        from steffenlab.cli import cli_main

        assert cli_main(["lemma-suite", "--config", str(path), "--seed", "7"]) == 1


    def test_critical_suite_decides_each_g_minus_e_once(self, monkeypatch):
        # 5C9 is critical with 9 pairs: the suite makes the ascent's decisions
        # and the criticality walk's 9, and reads each pair's classes from the
        # walk instead of deciding its G - e again
        from steffenlab import coloring
        from steffenlab.scan import _critical_checks

        G = sl.mu_cycle(9, 5)
        calls = []
        search = coloring._search
        monkeypatch.setattr(coloring, "_search", lambda *a: calls.append(a) or search(*a))
        sl.chromatic_index_value(G)
        ascent = len(calls)
        calls.clear()
        counts, violations, line = _critical_checks(60.0, "k", G)
        assert counts["criticalHighChi"] == 1 and counts["decompositionsChecked"] == 9
        assert violations == [] and line == "crit|k|12\n"
        assert len(calls) == ascent + 9
        assert [edges for _, edges, _, k, _ in calls[ascent:]] == [
            coloring._less_one_copy(G.edges, G.degrees, i)[0] for i in range(9)
        ]
        assert {k for *_, k, _ in calls[ascent:]} == {11}

    def test_failed_replace_keeps_old_report(self, tmp_path, monkeypatch):
        cfg = ScanConfig(enum_spec=small_spec(n_max=3), output_path=str(tmp_path / "r.json"),
                         random_graphs=5, random_n_max=5)
        run_lemma_suite(cfg, 1)
        before = Path(cfg.output_path).read_bytes()

        def no_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError):
            run_lemma_suite(cfg, 2)
        assert Path(cfg.output_path).read_bytes() == before
        assert os.listdir(tmp_path) == ["r.json"]

    def test_interrupted_run_leaves_no_report(self, tmp_path, monkeypatch):
        import steffenlab.scan as scan_mod

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(scan_mod, "class_keys", interrupt)
        cfg = ScanConfig(enum_spec=small_spec(), output_path=str(tmp_path / "r.json"))
        with pytest.raises(KeyboardInterrupt):
            run_lemma_suite(cfg, 1)
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["scan"], ["lemma-suite", "--seed", "1"]])
def test_unwritable_output_fails_before_enumerating(tmp_path, monkeypatch, capsys, command):
    import steffenlab.scan as scan_mod
    from steffenlab.cli import cli_main

    calls = []
    monkeypatch.setattr(scan_mod, "class_keys", lambda *a: calls.append(a) or class_keys(*a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"enumSpec": small_spec().to_json_obj(),
                                "outputPath": str(tmp_path / "missing" / "out")}))
    assert cli_main([command[0], "--config", str(path), *command[1:]]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["cfg.json"]


class TestTheoremRegime:
    @pytest.mark.parametrize(
        "G, values_in, regime",
        [
            # in by its own girth 9: chi' 12 = bound(9), but bound(5) = 13
            (sl.mu_cycle(9, 5), True, True),
            (sl.mu_cycle(5, 3), True, True),  # chi' = 8 = Delta + 2
            (sl.mu_complete(3, 3), False, False),  # girth 3
            # chi' = Delta + 1 = the bound; critical, and not a ring
            (graph_from_key("07.010000000100010000000102000000000100010200"), False, False),
            (sl.mu_cycle(7, 5), True, False),  # not critical
        ],
        ids=["5C9", "3C5", "3K3", "girth5-nonring", "5C7"],
    )
    def test_regime(self, G, values_in, regime):
        chi = sl.chromatic_index(G)[0]
        assert in_theorem_regime(max(G.degrees), G.max_mult, sl.girth(G), chi) is values_in
        assert _critical_in_regime(G, 60) is regime

    def test_solver_only_where_girth_and_mu_allow_the_regime(self, monkeypatch):
        import steffenlab.scan as scan_mod

        monkeypatch.setattr(scan_mod, "chromatic_index_value", None)  # any call fails
        # girth 3; mu = floor(g/2) at g = 5 and at g = 7; acyclic
        path = sl.build(3, [(0, 1, 4), (1, 2, 4)])
        for G in (sl.mu_complete(3, 3), sl.mu_cycle(5, 2), sl.mu_cycle(7, 3), path):
            assert _critical_in_regime(G, 60) is False


    def test_timeout_propagates(self, monkeypatch):
        import steffenlab.scan as scan_mod
        from steffenlab.errors import SolverTimeout

        def always_slow(*a, **kw):
            raise SolverTimeout("forced")

        monkeypatch.setattr(scan_mod, "chromatic_index_value", always_slow)
        with pytest.raises(SolverTimeout):
            _critical_in_regime(sl.mu_cycle(5, 3), 60)

    def test_fan_cap_timeout_is_a_violation(self, tmp_path, monkeypatch):
        import steffenlab.scan as scan_mod
        from steffenlab.cli import cli_main
        from steffenlab.errors import SolverTimeout
        from steffenlab.structure import Fan

        def always_slow(*a, **kw):
            raise SolverTimeout("forced")

        # 3C5 and a pendant vertex: its bound is in the regime, so the cap
        # check asks the solver; the pendant vertex is the apex of a 4-fan
        G = sl.build(6, [(0, 1, 3), (0, 4, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 1)])
        monkeypatch.setattr(scan_mod, "random_multigraph", lambda rng, **kw: G)
        monkeypatch.setattr(scan_mod, "max_fan", lambda G, P, v0, h: Fan(v0, h, ((v0, 0),) * 4))
        monkeypatch.setattr(scan_mod, "fan_bound_check", lambda fan, cycle: True)
        monkeypatch.setattr(scan_mod, "chromatic_index_value", always_slow)
        config = {
            "enumSpec": EnumSpec(n_min=1, n_max=1).to_json_obj(),  # no corpus graph
            "outputPath": str(tmp_path / "r.json"),
            "randomGraphs": 1,
        }
        report = run_lemma_suite(ScanConfig.from_json_obj(config), 0)
        assert report["violations"] == [{"suite": "random", "index": 0, "check": "timeout"}]
        assert report["randomSuite"]["fanCapViolations"] == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(["lemma-suite", "--config", str(path), "--seed", "0"]) == 1


# 3C5 plus a disjoint edge: g 5, Delta 6, mu 3 and chi' 8 = Delta + 2, the
# bound at g = 5 (at g = 3 it is 9); not critical, and not a ring
THREE_C5_PLUS_EDGE = "07.000000010000030000000300000300000303000000"
THREE_C5 = "05.03000003000300030300"
FOUR_C6 = "06.040000000404000000000400040400"  # Delta 8, mu 4, g 6: the bound is 10


class TestTheoremCheck:
    """A critical `ok` record in the theorem's regime at its own girth must be
    an odd ring, else its key is in `theoremViolations`; `ringCheck` gates
    only the ring search."""

    @staticmethod
    def record(key, **changes):
        # under girth floor 3 the ring gate fires on none of these records
        config = ScanConfig(enum_spec=small_spec(), output_path="unused")
        return {**compute_record(key, graph_from_key(key), config), **changes}

    @staticmethod
    def fold(record):
        summary = ScanSummary()
        _fold_record(summary, record)
        return summary

    def test_non_ring_is_a_violation(self):
        summary = self.fold(self.record(THREE_C5_PLUS_EDGE, isCritical=True))
        assert summary.theorem_violations == [THREE_C5_PLUS_EDGE]
        assert summary.to_json_obj()["violationCount"] == 1
        assert list(summary.to_json_obj())[-3:] == [
            "ringViolations", "theoremViolations", "violationCount"
        ]

    def test_even_ring_is_a_violation(self):
        G = graph_from_key(FOUR_C6)
        assert sl.is_ring_graph(G) and G.n == 6
        summary = self.fold(self.record(FOUR_C6, chi=10, isCritical=True))
        assert summary.theorem_violations == [FOUR_C6]

    def test_odd_ring_holds(self):
        record = self.record(THREE_C5)
        assert record["isCritical"] and record["chi"] == 8
        assert self.fold(record).theorem_violations == []

    def test_only_at_a_finite_girth(self):
        # a record whose ring search did not run is judged all the same
        record = self.record(THREE_C5_PLUS_EDGE, isCritical=True)
        assert record["ringFound"] is None
        assert self.fold(record).theorem_violations == [THREE_C5_PLUS_EDGE]
        assert self.fold({**record, "girth": None}).theorem_violations == []

    def test_resume_judges_the_kept_lines(self, tmp_path):
        self.resume_with_a_false_n(tmp_path, ring_check=True)

    def test_resume_judges_the_kept_lines_without_ring_check(self, tmp_path):
        self.resume_with_a_false_n(tmp_path, ring_check=False)

    @staticmethod
    def resume_with_a_false_n(tmp_path, ring_check):
        # the verdict is read from a kept line's own `girth` and `n`: a 3C5
        # line that claims n = 7 is a critical record in the regime that is
        # no odd ring
        spec = EnumSpec(n_min=5, n_max=5, max_mu=3, girth_min=5, max_edge_copies=15)
        out = tmp_path / "r.jsonl"
        cfg = ScanConfig(enum_spec=spec, output_path=str(out), ring_check=ring_check)
        assert run_scan(cfg).theorem_violations == []
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        (at,) = [i for i, line in enumerate(lines) if json.loads(line)["graphKey"] == THREE_C5]
        lines[at] = lines[at].replace('"n":5,', '"n":7,', 1)
        assert json.loads(lines[at])["n"] == 7
        out.write_text("".join(lines), encoding="utf-8")
        summary = run_scan(cfg)
        assert summary.total == len(lines)
        assert summary.theorem_violations == [THREE_C5]
        assert out.read_text(encoding="utf-8") == "".join(lines)  # every line was kept

    def test_folding_a_report_builds_no_graph(self, tmp_path, monkeypatch):
        from steffenlab.multigraph import Multigraph

        spec = EnumSpec(n_min=5, n_max=5, max_mu=3, girth_min=5, max_edge_copies=15)
        cfg = ScanConfig(enum_spec=spec, output_path=str(tmp_path / "r.jsonl"))
        want = run_scan(cfg)
        assert want.critical > 0
        keys = class_keys(spec)[0]
        built = []
        init = Multigraph.__init__
        monkeypatch.setattr(
            Multigraph, "__init__", lambda G, *a: built.append(a) or init(G, *a)
        )
        summary = ScanSummary()
        assert _fold_report_prefix(cfg, keys, summary)[0] == len(keys)
        assert summary == want
        assert built == []
        graph_from_key(THREE_C5)  # the spy sees every graph that is built
        assert len(built) == 1


class TestTimeoutRecords:
    def test_timeout_marks_record(self, monkeypatch):
        import steffenlab.scan as scan_mod
        from steffenlab.errors import SolverTimeout

        def always_slow(*a, **kw):
            raise SolverTimeout("forced")

        monkeypatch.setattr(scan_mod, "chromatic_index_value", always_slow)
        cfg = ScanConfig(enum_spec=small_spec(), output_path="unused")
        record = compute_record("k", sl.mu_cycle(5, 3), cfg)
        assert record["status"] == "timeout"
        assert record["chi"] is None
        assert record["gamma"] == 8  # density finishes well within its budget

    def test_one_deadline_per_record(self, deadlines, monkeypatch):
        # density, the ascent, every G - e and the ring search share one deadline
        import steffenlab.structure as structure

        polls, check = [], structure.check_deadline
        monkeypatch.setattr(structure, "check_deadline", lambda d, w: polls.append(d) or check(d, w))
        cfg = ScanConfig(enum_spec=small_spec(girth_min=5), output_path="unused", budget_seconds=7)
        start = time.monotonic()
        record = compute_record("k", sl.mu_cycle(5, 3), cfg)
        assert record["isCritical"] and record["ringFound"]
        # 1 ascent decision and 5 G - e; density for the record, whose chi'
        # reads the memoised Gamma; the ring search polls and decides nothing
        assert len(deadlines["_search"]) == 6 and len(deadlines["density"]) == 1 and polls
        assert len(set(deadlines["_search"] + deadlines["density"] + polls)) == 1
        assert math.isfinite(deadlines["_search"][0])
        assert start + 7 <= deadlines["_search"][0] <= time.monotonic() + 7

    def test_overrunning_density_times_out(self):
        G = sl.mu_complete(21, 1)  # density alone takes several seconds without a budget
        cfg = ScanConfig(output_path="unused", budget_seconds=1)
        start = time.monotonic()
        record = compute_record("k", G, cfg)
        assert time.monotonic() - start < 3.0
        assert record["status"] == "timeout"
        assert record["gamma"] is None and record["chi"] is None

    def test_timeout_counts_in_summary(self, monkeypatch):
        import steffenlab.scan as scan_mod
        from steffenlab.errors import SolverTimeout

        def always_slow(*a, **kw):
            raise SolverTimeout("forced")

        monkeypatch.setattr(scan_mod, "chromatic_index_value", always_slow)
        summary = ScanSummary()
        cfg = ScanConfig(enum_spec=small_spec(), output_path="unused")
        record = compute_record("k", sl.mu_cycle(5, 3), cfg)
        _fold_record(summary, record)
        assert summary.timeouts == 1 and summary.ok == 0


class TestExitCodeLogic:
    def test_violations_drive_exit_code(self, monkeypatch, tmp_path):
        from steffenlab.scan import ScanSummary

        bad = ScanSummary()
        bad.steffen_violations.append("somekey")

        # the scan command imports run_scan when it runs
        monkeypatch.setattr("steffenlab.scan.run_scan", lambda cfg: bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"enumSpec": small_spec().to_json_obj()}))
        from steffenlab.cli import cli_main

        assert cli_main(["scan", "--config", str(cfg_path)]) == 1
