"""Spans and counts around calls into steffenlab's modules, for the traced run.

A span is recorded at the name a calling module binds: `scan.density` is the
`density` that `steffenlab.scan` imported, so calls made from scan and calls
made from coloring (`coloring.density`) are told apart.  Every call passes
through exactly one wrapper, because each module calls the function object
it bound itself.  Nothing under src/ changes: `install` rebinds module
attributes for the duration of a `with` block and restores them afterwards.

Spans are aggregated in memory as calls and total time per name; a layer's
time without its children is taken by subtracting the child span's total
(see `layer_metrics`).
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from measure import percentile

# calling module -> names it binds whose calls are traced
BINDINGS = {
    "scan": (
        "enumerate_with_keys",
        "compute_record",
        "density",
        "girth",
        "steffen_bound",
        "chromatic_index",
        "is_critical",
        "find_ring_subgraph_with_chi",
    ),
    "coloring": ("density", "is_k_colorable", "remove_edges", "chromatic_index"),
    "structure": ("chromatic_index", "enumerate_cycles", "build"),
    "generators": ("build", "girth"),
    "invariants": ("girth",),
    "multigraph": ("build",),
    "cli": (
        "parse_any",
        "density",
        "girth",
        "steffen_bound",
        "chromatic_index",
        "is_critical",
        "extract_critical",
        "cycle_partition",
        "find_ring_subgraph_with_chi",
    ),
}


def bound_as(func: str) -> list[str]:
    """Span names of every binding of `func`."""
    return [f"{mod}.{func}" for mod, names in BINDINGS.items() if func in names]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s]
        self.counts: Counter = Counter()
        self.record_us: list[float] = []
        self.first_record_at: float | None = None
        self.missing: list[str] = []
        self._record_graph = None

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def total(self, *names: str) -> float:
        return sum((self.spans[n][1] for n in names if n in self.spans), 0.0)

    # hooks: before(args) runs first, after(args, result) may replace the result
    def _before_record(self, args):
        self._record_graph = args[1]
        if self.first_record_at is None:
            self.first_record_at = perf_counter()

    def _after_record(self, args, result):
        self._record_graph = None
        self.counts["records"] += 1
        return result

    def _after_density(self, args, result):
        if args and args[0] is self._record_graph and self._record_graph is not None:
            self.counts["record_density"] += 1
        return result

    def _after_decision(self, args, result):
        if result is None:
            self.counts["decisions_infeasible"] += 1
        if self._record_graph is not None:
            self.counts["record_decisions"] += 1
        return result

    def _after_cycles(self, args, result):
        self.counts["cycles"] += len(result)
        return result

    @staticmethod
    def _materialize(args, result):
        # run_scan sorts the stream into a list anyway; drawing it here puts
        # all of enumeration inside this span
        return iter(list(result))

    def _hooks(self, name: str):
        func = name.split(".", 1)[1]
        if name == "scan.compute_record":
            return self._before_record, self._after_record
        if name == "scan.enumerate_with_keys":
            return None, self._materialize
        if func == "density":
            return None, self._after_density
        if name == "coloring.is_k_colorable":
            return None, self._after_decision
        if name == "structure.enumerate_cycles":
            return None, self._after_cycles
        return None, None

    def wrap(self, name: str, fn):
        """`fn` with its calls recorded as span `name`."""
        stat = self.spans.setdefault(name, [0, 0.0])
        before, after = self._hooks(name)
        is_record = name == "scan.compute_record"
        is_decision = name == "coloring.is_k_colorable"

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(args, result)
                return result
            except Exception as exc:
                if is_decision and type(exc).__name__ == "SolverTimeout":
                    self.counts["timeouts"] += 1
                if is_record:
                    self._record_graph = None
                raise
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if is_record:
                    self.record_us.append(dt * 1e6)

        return traced

    @contextmanager
    def install(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for mod_name, names in BINDINGS.items():
                mod = importlib.import_module(f"steffenlab.{mod_name}")
                for func in names:
                    original = getattr(mod, func, None)
                    if original is None:
                        # the module no longer binds it: its calls are simply 0
                        self.missing.append(f"{mod_name}.{func}")
                        continue
                    saved.append((mod, func, original))
                    setattr(mod, func, self.wrap(f"{mod_name}.{func}", original))
            yield self
        finally:
            for mod, func, original in reversed(saved):
                setattr(mod, func, original)


PER_LAYER_UNITS = {
    "generators.enum_s": "s",
    "generators.simple_s": "s",
    "generators.multiplicity_s": "s",
    "generators.classes": "count",
    "generators.builds": "count",
    "generators.builds_per_class": "ratio",
    "invariants.density_calls": "count",
    "invariants.density_s": "s",
    "invariants.density_per_record": "ratio",
    "invariants.girth_calls": "count",
    "invariants.girth_s": "s",
    "invariants.bound_s": "s",
    "coloring.chi_calls": "count",
    "coloring.chi_self_s": "s",
    "coloring.decisions": "count",
    "coloring.decisions_infeasible": "count",
    "coloring.decision_s": "s",
    "coloring.decisions_per_record": "ratio",
    "coloring.critical_s": "s",
    "coloring.timeouts": "count",
    "structure.ring_calls": "count",
    "structure.ring_s": "s",
    "structure.ring_chi_calls": "count",
    "structure.cycles_enumerated": "count",
    "structure.partition_s": "s",
    "multigraph.build_calls": "count",
    "multigraph.build_s": "s",
    "multigraph.remove_edges_calls": "count",
    "multigraph.parse_s": "s",
    "scan.serial_s": "s",
    "scan.record_s": "s",
    "scan.record_p50_us": "us",
    "scan.record_p99_us": "us",
    "scan.self_s": "s",
    "scan.bytes_written": "bytes",
    "cli.import_s": "s",
    "cli.invariants_s": "s",
    "cli.chi_s": "s",
    "cli.critical_s": "s",
    "cli.partition_s": "s",
    "cli.ring_find_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tr: Tracer, scan: dict | None, import_s: float, overhead_frac: float) -> dict:
    """Every per-layer metric from one traced run.

    `scan` holds what the harness measured around `run_scan` (None when the
    workload runs no scan); command spans are named `cmd.<command>`.
    """
    records = tr.counts["records"]
    classes = scan["classes"] if scan else 0
    enum_s = tr.total("scan.enumerate_with_keys")
    simple_s = scan["simple_s"] if scan else 0.0
    builds = tr.calls("generators.build")
    record_s = tr.total("scan.compute_record")
    chi = bound_as("chromatic_index")
    critical = bound_as("is_critical") + bound_as("extract_critical")
    ring = bound_as("find_ring_subgraph_with_chi")
    values = {
        "generators.enum_s": enum_s,
        "generators.simple_s": simple_s,
        "generators.multiplicity_s": enum_s - simple_s if scan else 0.0,
        "generators.classes": classes,
        "generators.builds": builds,
        "generators.builds_per_class": builds / classes if classes else 0.0,
        "invariants.density_calls": tr.calls(*bound_as("density")),
        "invariants.density_s": tr.total(*bound_as("density")),
        "invariants.density_per_record": tr.counts["record_density"] / records if records else 0.0,
        "invariants.girth_calls": tr.calls(*bound_as("girth")),
        "invariants.girth_s": tr.total(*bound_as("girth")),
        "invariants.bound_s": tr.total(*bound_as("steffen_bound")),
        "coloring.chi_calls": tr.calls(*chi),
        # coloring.density is only called from chromatic_index
        "coloring.chi_self_s": tr.total(*chi) - tr.total("coloring.density"),
        "coloring.decisions": tr.calls("coloring.is_k_colorable"),
        "coloring.decisions_infeasible": tr.counts["decisions_infeasible"],
        "coloring.decision_s": tr.total("coloring.is_k_colorable"),
        "coloring.decisions_per_record": tr.counts["record_decisions"] / records if records else 0.0,
        "coloring.critical_s": tr.total(*critical),
        "coloring.timeouts": tr.counts["timeouts"],
        "structure.ring_calls": tr.calls(*ring),
        "structure.ring_s": tr.total(*ring),
        "structure.ring_chi_calls": tr.calls("structure.chromatic_index"),
        "structure.cycles_enumerated": tr.counts["cycles"],
        "structure.partition_s": tr.total(*bound_as("cycle_partition")),
        "multigraph.build_calls": tr.calls(*bound_as("build")),
        "multigraph.build_s": tr.total(*bound_as("build")),
        "multigraph.remove_edges_calls": tr.calls(*bound_as("remove_edges")),
        "multigraph.parse_s": tr.total(*bound_as("parse_any")),
        "scan.serial_s": scan["serial_s"] if scan else 0.0,
        "scan.record_s": record_s,
        "scan.record_p50_us": percentile(tr.record_us, 50),
        "scan.record_p99_us": percentile(tr.record_us, 99),
        "scan.self_s": scan["run_scan_s"] - enum_s - record_s if scan else 0.0,
        "scan.bytes_written": scan["bytes_written"] if scan else 0,
        "cli.import_s": import_s,
        "cli.invariants_s": tr.total("cmd.invariants"),
        "cli.chi_s": tr.total("cmd.chi"),
        "cli.critical_s": tr.total("cmd.critical"),
        "cli.partition_s": tr.total("cmd.partition"),
        "cli.ring_find_s": tr.total("cmd.ring-find"),
        "trace.overhead_frac": overhead_frac,
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values
