"""Scan orchestration: per-graph invariant records, bound/density/ring checks,
the structural-lemma property suites, and JSONL report persistence.

Reports are deterministic: records are keyed and written in canonical-key
order, and the worker count only picks the `map` that computes them (see
`run_scan`).  The report is the only record of finished work; the
checkpoint beside it holds one line, the echo of the enumeration spec that
wrote the report.  A re-run keeps the longest prefix of complete report
lines whose keys follow the enumeration's key order and reproduces the
remaining tail byte for byte.  The parent process merges keys, writes lines
and folds them: a record's graph is built, from its key and seed, only
where the record is computed, and every check of the summary reads a
line's own fields, so a kept line is folded as a fresh one is.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, takewhile

from .coloring import (
    _near_perfect_classes,
    _reductions,
    chromatic_index_value,
    degree_identity_check,
    is_critical,
)
from .errors import ConfigError, PreconditionFailed, SolverTimeout
from .generators import (
    EnumSpec,
    class_keys,
    graph_from_key,
    json_fields,
    random_multigraph,
)
from .invariants import (
    INFINITE_GIRTH,
    Seed,
    bound_at_girth,
    check_short_cycle_properties,
    density_gamma,
    girth,
    in_theorem_regime,
    seed_memo,
)
from .multigraph import Multigraph, parse_any, serialize
from .structure import (
    cycle_partition,
    fan_bound_check,
    find_ring_subgraph_with_chi,
    max_fan,
    verify_cycle_partition,
)


# JSON key -> (ScanConfig field, kind) of every config key; `json_value`
# checks each value's JSON type against its kind, and the spec is read last
_CONFIG_KEYS = {
    "solverTimeoutSeconds": ("budget_seconds", float),
    "workers": ("workers", int),
    "outputPath": ("output_path", str),
    "ringCheck": ("ring_check", bool),
    "randomGraphs": ("random_graphs", int),
    "randomNMax": ("random_n_max", int),
    "randomMuMax": ("random_mu_max", int),
    "extraGraphs": ("extra_graphs", tuple),
    "enumSpec": ("enum_spec", EnumSpec.from_json_obj),
}


@dataclass(frozen=True)
class ScanConfig:
    """A scan or lemma-suite run; `workers` picks the maps of both (`_mapped`).
    `budget_seconds` (`solverTimeoutSeconds`) is one budget for all of a
    record's work (its Gamma comes from the enumeration, outside it), and in
    the lemma suite for a corpus graph's or a random graph's checks."""

    enum_spec: EnumSpec = field(default_factory=EnumSpec)
    budget_seconds: float = 60.0
    workers: int = 1
    output_path: str = "scan.jsonl"
    ring_check: bool = True
    random_graphs: int = 1000
    random_n_max: int = 12
    random_mu_max: int = 3
    extra_graphs: tuple[str, ...] = ()

    def __post_init__(self):
        # the lemma suite's sampler draws n from 4..randomNMax and multiplicities from 1..randomMuMax
        limits = (("workers", self.workers, 1), ("randomGraphs", self.random_graphs, 0),
                  ("randomNMax", self.random_n_max, 4), ("randomMuMax", self.random_mu_max, 1))
        for key, value, least in limits:
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        # written so that NaN, which JSON parsing accepts, fails it too
        if not self.budget_seconds >= 1:
            raise ConfigError("solver timeout must be >= 1 second")

    def effective_checkpoint(self) -> str:
        return self.output_path + ".checkpoint"

    @staticmethod
    def from_json_obj(obj: dict) -> "ScanConfig":
        """The config a JSON object describes; only `enumSpec` is required."""
        return ScanConfig(**json_fields("scan config", obj, _CONFIG_KEYS, ("enumSpec",)))


# each record field, in report order -> the JSON types an `ok` record holds
# there; a `timeout` record may also hold null in any of them
_RECORD_TYPES = {
    "graphKey": (str,),
    **dict.fromkeys(("n", "m", "Delta", "delta", "mu"), (int,)),
    "girth": (int, type(None)),  # null when acyclic
    **dict.fromkeys(("gamma", "chi", "steffenBound"), (int,)),
    **dict.fromkeys(("achievesBound", "isCritical", "chiGEDeltaPlus2"), (bool,)),
    "ringFound": (bool, type(None)),  # null unless the ring gate fires
    "ringWitness": (dict, type(None)),
    "status": (str,),
}
RECORD_FIELDS = tuple(_RECORD_TYPES)


def compute_record(key: str, G: Multigraph, config: ScanConfig) -> dict:
    """One ScanRecord as a JSON-ready dict in `RECORD_FIELDS` order."""
    delta_max = max(G.degrees, default=0)
    g = girth(G)
    record = dict.fromkeys(RECORD_FIELDS)
    record.update(
        graphKey=key, n=G.n, m=G.edge_count, Delta=delta_max, delta=min(G.degrees, default=0),
        mu=G.max_mult, girth=None if g == INFINITE_GIRTH else int(g),
        steffenBound=bound_at_girth(delta_max, G.max_mult, g), status="ok",
    )
    # one budget for the whole record: density (unless seeded), ascent,
    # criticality and ring
    deadline = time.monotonic() + config.budget_seconds
    try:
        record["gamma"] = density_gamma(G, deadline=deadline)
        chi = chromatic_index_value(G, deadline=deadline)
        record["chi"] = chi
        record["achievesBound"] = chi == record["steffenBound"]
        record["chiGEDeltaPlus2"] = chi >= delta_max + 2
        record["isCritical"] = is_critical(G, chi=chi, deadline=deadline) if G.edges else False
        if _ring_gate(config, record):
            ring = find_ring_subgraph_with_chi(G, chi, deadline=deadline)
            record["ringFound"] = ring is not None
            record["ringWitness"] = None if ring is None else ring.to_json_obj()
    except SolverTimeout:
        record["status"] = "timeout"
    return record


def _ring_gate(config: ScanConfig, record: dict) -> bool:
    """Whether `config`'s ring check runs on a record, from the record's own
    fields: g >= 5 (a null girth is infinite) and the values in the theorem's
    regime at the configured girth floor, not at g, which would fire the gate
    on `full6` (floor 3) and change its report.  Acyclic graphs fail: chi' = Delta."""
    if not config.ring_check or (record["girth"] or INFINITE_GIRTH) < 5:
        return False
    floor = config.enum_spec.girth_min
    return in_theorem_regime(record["Delta"], record["mu"], floor, record["chi"])


# one compact encoder for every report line: json.dumps builds a new one per
# call whenever an argument is not its default
_record_line = json.JSONEncoder(separators=(",", ":")).encode


@dataclass
class ScanSummary:
    total: int = 0
    ok: int = 0
    timeouts: int = 0
    bound_achievers: int = 0
    chi_ge_delta_plus_2: int = 0
    critical: int = 0
    ring_gate_fired: int = 0
    ring_found: int = 0
    steffen_violations: list = field(default_factory=list)
    gs_violations: list = field(default_factory=list)
    ring_violations: list = field(default_factory=list)
    theorem_violations: list = field(default_factory=list)

    @property
    def violation_count(self) -> int:
        return (
            len(self.steffen_violations)
            + len(self.gs_violations)
            + len(self.ring_violations)
            + len(self.theorem_violations)
        )

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "timeouts": self.timeouts,
            "boundAchievers": self.bound_achievers,
            "chiGEDeltaPlus2": self.chi_ge_delta_plus_2,
            "critical": self.critical,
            "ringGateFired": self.ring_gate_fired,
            "ringFound": self.ring_found,
            "steffenViolations": self.steffen_violations,
            "gsViolations": self.gs_violations,
            "ringViolations": self.ring_violations,
            "theoremViolations": self.theorem_violations,
            "violationCount": self.violation_count,
        }


def _fold_record(summary: ScanSummary, record: dict) -> None:
    """Count `record` into `summary`, from its own fields alone, so a resumed
    prefix is checked as a fresh record is.  Every `ok` record is checked
    against the main theorem: a critical record in its regime at the record's
    own girth (a null girth is infinite, never in it) is an odd ring, that is,
    its girth is its odd n, since a shortest cycle through every vertex has no
    chord."""
    summary.total += 1
    if record["status"] != "ok":
        summary.timeouts += 1
        return
    summary.ok += 1
    key = record["graphKey"]
    if record["achievesBound"]:
        summary.bound_achievers += 1
    if record["chiGEDeltaPlus2"]:
        summary.chi_ge_delta_plus_2 += 1
    if record["isCritical"]:
        summary.critical += 1
    if record["chi"] > record["steffenBound"]:
        summary.steffen_violations.append(key)
    if record["chiGEDeltaPlus2"] and record["chi"] != record["gamma"]:
        summary.gs_violations.append(key)
    if record["ringFound"] is not None:
        summary.ring_gate_fired += 1
        if record["ringFound"]:
            summary.ring_found += 1
        else:
            summary.ring_violations.append(key)
    g, n = record["girth"] or INFINITE_GIRTH, record["n"]
    in_regime = in_theorem_regime(record["Delta"], record["mu"], g, record["chi"])
    if record["isCritical"] and in_regime and not (g == n and n % 2):
        summary.theorem_violations.append(key)


def _seeded_graph(key: str, seed: Seed) -> Multigraph:
    """The graph of the class `key`; `seed` is its (girth, bipartite, Gamma)
    from `class_keys`, which the graph takes instead of computing them."""
    G = graph_from_key(key)
    seed_memo(G, seed)
    return G


def _record_for_key(config: ScanConfig, key: str, seed: Seed) -> dict:
    """The record of the class `key` with its seed from `class_keys`."""
    return compute_record(key, _seeded_graph(key, seed), config)


@contextmanager
def _replacing(path: str):
    """A file, opened at once, that replaces `path` whole when the block ends,
    and is removed if the block or the replacement fails: `path` + ".tmp"."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_spec_echo(path: str, spec: EnumSpec) -> None:
    """Write the checkpoint: one line, `# ` and the JSON echo of the spec."""
    with _replacing(path) as fh:
        fh.write("# " + json.dumps(spec.to_json_obj(), sort_keys=True) + "\n")


def read_spec_echo(path: str) -> dict:
    """The spec echo on the checkpoint's first line; later lines are ignored."""
    with open(path, "rb") as fh:
        header = fh.readline()
    if not header.startswith(b"# "):
        raise ConfigError(f"checkpoint {path} does not start with a spec echo")
    try:
        return json.loads(header[2:])
    except ValueError as exc:
        raise ConfigError(f"bad spec echo in checkpoint {path}: {exc}") from exc


def _fold_report_prefix(
    config: ScanConfig, keys: list[str], summary: ScanSummary
) -> tuple[int, int]:
    """Fold the longest valid prefix of the config's report into `summary`.

    The prefix is made of complete lines, each a record that a scan under
    `config` writes: exactly `RECORD_FIELDS` in order, the next of `keys`,
    status `ok` or `timeout`, every value of its `_RECORD_TYPES` type (a
    `timeout` record may also hold null), and for `ok` the ring fields this
    config's gate writes: a `ringFound` iff the gate fires on the record's own
    fields.  The first line that is not such a record ends it.
    Returns the number of records kept and their byte length.
    """
    count = size = 0
    # the report exists: `_run_scan` opens it before it enumerates
    with open(config.output_path, "rb") as fh:
        for line in fh:
            if count == len(keys) or not line.endswith(b"\n"):
                break
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # not JSON, or nested too deeply to parse
                break
            if (
                not isinstance(record, dict)
                or tuple(record) != RECORD_FIELDS
                or record["graphKey"] != keys[count]
                or record["status"] not in ("ok", "timeout")
                or any(type(v) not in _RECORD_TYPES[k] and (v is not None or record["status"] == "ok")
                       for k, v in record.items())
                or (record["status"] == "ok"
                    and (record["ringFound"] is None) == _ring_gate(config, record))
            ):
                break
            _fold_record(summary, record)
            count += 1
            size += len(line)
    return count, size


# keys per record task of a pool scan or lemma suite.  A scan record of the
# girth >= 5 corpus takes a worker about 0.05 ms (its 19,701 records of n
# 5..7 take 1.0-1.1 s serially on a 2-vCPU Xeon VM), so in batches of 16
# the parent process spends more CPU sending tasks and taking results than
# on its own work; from about 128 keys on that cost is flat, and far larger
# batches leave the end of the run waiting on the last one
RECORD_BATCH = 128


def run_scan(config: ScanConfig) -> ScanSummary:
    """Enumerate, check, and persist one JSONL record per graph, key-sorted.

    When the checkpoint exists, its spec echo must match the config's spec,
    and the scan resumes: the longest prefix of complete report lines whose
    keys follow the enumeration's key order is folded into the summary
    without recomputation, the report is cut back to that prefix, and the
    remaining records are appended.  Each record is one write and one flush,
    so an interrupt leaves whole lines only.

    The worker count only chooses the maps that run the scan's two phases
    (`_mapped`).  The multiplicity layer maps over the simple
    representatives, one per task, since a few of them hold most of the
    keys.  The records map over the keys; each record rebuilds its graph
    from the key and seeds it with the key's seed from `class_keys` (girth,
    bipartiteness, Gamma), so the graphs are built one record at a time and
    only keys, those shared seeds and records cross between processes.
    """
    return _mapped(config.workers, partial(_run_scan, config))


def _mapped(workers: int, run):
    """`run(shard_map, record_map)` on the maps `workers` picks: the builtin
    `map` for one worker; for more, a process pool's, the record map taking
    items in batches of `RECORD_BATCH`.  The pool has at most one process per
    CPU, all forked at its first task; no result depends on their number."""
    if workers == 1:
        return run(map, map)
    # imported here: the process pool machinery costs every CLI command its import
    from concurrent.futures import ProcessPoolExecutor
    from signal import SIG_IGN, SIGINT, signal

    # the processes ignore Ctrl-C, which a terminal sends them too (an idle
    # one would print a traceback); the parent stops the run
    size = min(workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(size, initializer=signal, initargs=(SIGINT, SIG_IGN))
    try:
        return run(pool.map, partial(pool.map, chunksize=RECORD_BATCH))
    finally:
        # a run that stops early, interrupted or failed, drops its queued tasks
        pool.shutdown(cancel_futures=True)


def _run_scan(config: ScanConfig, shard_map, record_map) -> ScanSummary:
    spec = config.enum_spec
    ckpt_path = config.effective_checkpoint()
    resume = os.path.exists(ckpt_path)
    if resume and read_spec_echo(ckpt_path) != spec.to_json_obj():
        raise ConfigError("checkpoint was written by a different enumeration spec")
    # the report is opened before the enumeration, so an unwritable path fails at once
    with open(config.output_path, "a", encoding="utf-8") as out:
        keys, seeds = class_keys(spec, shard_map)
        summary = ScanSummary()
        done = size = 0
        if resume:
            done, size = _fold_report_prefix(config, keys, summary)
        # cut the report back to its kept prefix before the checkpoint is
        # written, so a checkpoint never vouches for lines of another run
        out.truncate(size)
        write_spec_echo(ckpt_path, spec)
        records = record_map(
            partial(_record_for_key, config), islice(keys, done, None), islice(seeds, done, None)
        )
        for record in records:
            out.write(_record_line(record) + "\n")
            out.flush()
            _fold_record(summary, record)
    return summary


def run_lemma_suite(config: ScanConfig, seed: int) -> dict:
    """Two property suites: writes their byte-stable report to `outputPath`, returns it.

    Critical suite (enumerated corpus + any extraGraphs): for every critical
    graph with chi' >= Delta + 2, G-e must decompose into chi'-1 near-perfect
    matchings for every pair, all degree-identity residuals must vanish, and
    the min-degree bound must hold when its hypotheses fire.  A failed
    library precondition (n odd, say) is reported under its clause.

    Random suite (seeded sampler): cycle partitions re-verify, shortest-cycle
    neighborhood clauses hold, and every fan satisfies the interior-size
    bound; fan count <= 3 is asserted when the graph is in the main
    theorem's regime (`_critical_in_regime`).  A check of either suite that
    runs out of its budget is a `timeout` violation.
    """
    # opened before the suites run, and in place only once both are done: an
    # interrupted or failed run writes no report and leaves the old one as it was
    with _replacing(config.output_path) as fh:
        payload = _mapped(config.workers, partial(_run_lemma_suite, config, seed))
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _critical_checks(budget: float, key: str, G: Multigraph) -> tuple[dict, list, str]:
    """The critical suite on one graph: its counts, its violations and its
    digest line, which is empty unless G is critical with chi' >= Delta + 2.
    One deadline covers chi' and the walk whose masks give each G - e's classes."""
    counts = {"graphs": 1}
    violations = []
    line = ""
    where = {"suite": "critical", "graphKey": key}
    deadline = time.monotonic() + budget
    try:
        chi = chromatic_index_value(G, deadline=deadline)
        if chi < max(G.degrees, default=0) + 2:  # always for an edgeless graph
            return counts, violations, line
        # the walk (`_reductions`) stops at its first G - e that keeps chi', so
        # it colors every pair's G - e iff G is critical
        walk = list(takewhile(lambda step: step[1] is not None, _reductions(G, chi, deadline)))
        if len(walk) < len(G.edges):
            return counts, violations, line
        counts.update(criticalHighChi=1, decompositionsChecked=0)
        line = f"crit|{key}|{chi}\n"
        if G.n % 2 == 0:
            raise PreconditionFailed("n-odd", f"n={G.n} is even")
        for reduced, masks in walk:
            _near_perfect_classes(G.n, reduced, chi - 1, masks)
            counts["decompositionsChecked"] += 1
        report = degree_identity_check(G, chi=chi, check_critical=False)
        counts["residualVectorsChecked"] = 1
        if any(report.residuals):
            violations.append(_violation(where, "degree-identity", residuals=list(report.residuals)))
        if report.min_degree_bound != "not-applicable":
            counts["minDegreeBoundsChecked"] = 1
            if report.min_degree_bound == "violated":
                violations.append(_violation(where, "min-degree-bound"))
    except SolverTimeout:
        violations.append(_violation(where, "timeout"))
    except PreconditionFailed as exc:
        violations.append(_violation(where, exc.clause))
    return counts, violations, line


def _critical_for_key(budget: float, key: str, seed: Seed) -> tuple[dict, list, str]:
    """The critical suite on the class `key` with its seed from `class_keys`."""
    return _critical_checks(budget, key, _seeded_graph(key, seed))


def _run_lemma_suite(config: ScanConfig, seed: int, shard_map, record_map) -> dict:
    # imported here: hashlib maps OpenSSL's libcrypto, about 3.5 MB of a scan's
    # peak resident memory and 4 ms of import, and a scan hashes nothing
    import hashlib

    budget = config.budget_seconds
    digest = hashlib.sha256()
    violations: list[dict] = []

    extras = sorted(
        ((f"extra.{hashlib.sha256(serialize(G).encode()).hexdigest()[:16]}", G)
         for G in map(parse_any, config.extra_graphs)), key=lambda kv: kv[0]
    )
    critical_stats = dict.fromkeys(("graphs", "criticalHighChi", "decompositionsChecked",
                                    "residualVectorsChecked", "minDegreeBoundsChecked"), 0)
    # enumerated keys ("NN.") sort before extras ("extra."), so the results
    # fold in key order: the corpus's from the record map, then the extras'
    keys, seeds = class_keys(config.enum_spec, shard_map)
    corpus = record_map(partial(_critical_for_key, budget), keys, seeds)
    for counts, found, line in chain(corpus, (_critical_checks(budget, *kv) for kv in extras)):
        for name, count in counts.items():
            critical_stats[name] += count
        violations += found
        digest.update(line.encode())

    random_stats = dict.fromkeys(("partitionsVerified", "cyclesChecked", "clauseViolations",
                                  "fansChecked", "fanBoundViolations", "fanCapViolations"), 0)
    random_stats["graphs"] = config.random_graphs
    rng = random.Random(seed)
    for index in range(config.random_graphs):
        G = random_multigraph(rng, n_max=config.random_n_max, mu_max=config.random_mu_max)
        where = {"suite": "random", "index": index}
        partition = cycle_partition(G)
        if problems := verify_cycle_partition(G, partition):
            violations.append(_violation(where, "partition", problems=problems))
            continue
        random_stats["partitionsVerified"] += 1
        for cyc, stage in zip(partition.cycles, partition.stage_vertex_sets(G.n)):
            random_stats["cyclesChecked"] += 1
            if clause_violations := check_short_cycle_properties(G, cyc, stage):
                random_stats["clauseViolations"] += len(clause_violations)
                violations.append(
                    _violation(
                        where,
                        "short-cycle-clause",
                        violations=[v.to_json_obj() for v in clause_violations],
                    )
                )
        fan_summary = []
        for v0 in sorted(partition.v0):
            for h in range(len(partition.cycles)):
                if (fan := max_fan(G, partition, v0, h)) is None:
                    continue
                random_stats["fansChecked"] += 1
                if not fan_bound_check(fan, partition.cycles[h]):
                    random_stats["fanBoundViolations"] += 1
                    violations.append(_violation(where, "fan-bound", apex=v0, cycle=h, t=fan.t))
                fan_summary.append((v0, h, fan.t, len(fan.interior_vertices())))
        try:
            if any(t > 3 for _, _, t, _ in fan_summary) and _critical_in_regime(G, budget):
                random_stats["fanCapViolations"] += 1
                violations.append(_violation(where, "fan-count-cap"))
        except SolverTimeout:
            violations.append(_violation(where, "timeout"))
        digest.update(
            f"rand|{index}|{G.n}|{G.edge_count}|{len(partition.cycles)}"
            f"|{sorted(partition.v0)}|{fan_summary}\n".encode()
        )

    return {
        "seed": seed,
        "enumSpec": config.enum_spec.to_json_obj(),
        "randomGraphs": config.random_graphs,
        "randomNMax": config.random_n_max,
        "randomMuMax": config.random_mu_max,
        "criticalSuite": critical_stats,
        "randomSuite": random_stats,
        "violations": violations,
        "violationCount": len(violations),
        "digest": digest.hexdigest(),
    }


def _violation(where: dict, check: str, **details) -> dict:
    """A report violation: the suite and graph in `where`, the check, its details."""
    return {**where, "check": check, **details}


def _critical_in_regime(G: Multigraph, budget: float) -> bool:
    """True iff G is critical with values in the main theorem's regime, decided
    within `budget` seconds, else SolverTimeout.  chi' <= Steffen's bound, so
    the solver runs only when the bound itself is in the regime."""
    values = (max(G.degrees), G.max_mult, girth(G))
    if not in_theorem_regime(*values, bound_at_girth(*values)):
        return False
    deadline = time.monotonic() + budget  # one budget for chi and criticality
    chi = chromatic_index_value(G, deadline=deadline)
    return in_theorem_regime(*values, chi) and is_critical(G, chi=chi, deadline=deadline)
