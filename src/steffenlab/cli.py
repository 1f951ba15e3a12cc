"""Command-line interface.

Graph arguments accept a file path or '-' for stdin; input may be MGR text
or the JSON form.  `--timeout` is the budget of the whole command: it
becomes one deadline when the arguments are parsed.  Exit codes: 0 success,
1 a scan/suite found violations, 2 usage, input or configuration errors
(malformed graphs, non-positive timeouts, configs that are not JSON or have
unknown keys, unreadable or unwritable paths, JSON nested too deeply to
parse, instances over a size cap) and timeouts, 130 an interrupt (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ConfigError, GraphError
from .multigraph import parse_any, serialize, to_json_obj


def _read_graph(source: str):
    if source == "-":
        return parse_any(sys.stdin.read())
    with open(source, encoding="utf-8") as fh:
        return parse_any(fh.read())


# each command imports the modules it runs: `invariants` and `density` load
# `invariants`, `chi` and `critical` also `coloring`, `partition` and
# `ring-find` also `structure` and no `coloring`, and only `gen`, `scan` and
# `lemma-suite` the enumerator (`generators`) or `scan`
def _load_config(path: str):
    from .scan import ScanConfig

    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not JSON: {exc}") from exc
    return ScanConfig.from_json_obj(obj)


def _cmd_invariants(G, args) -> int:
    from .invariants import INFINITE_GIRTH, density, girth, steffen_bound

    g = girth(G)
    inv = {
        "n": G.n, "m": G.edge_count, "Delta": max(G.degrees, default=0),
        "delta": min(G.degrees, default=0), "mu": G.max_mult,
        "deltaSimple": min(map(len, G.adj), default=0),
        "girth": None if g == INFINITE_GIRTH else int(g), "gamma": density(G).gamma,
        "steffenBound": steffen_bound(G),
    }
    print(json.dumps(inv))
    return 0


def _cmd_chi(G, args) -> int:
    from .coloring import chromatic_index

    chi, witness = chromatic_index(G, mode=args.mode, deadline=args.deadline)
    lines = [chi]
    # the witness file is written before anything is printed, so a path that
    # cannot be opened leaves stdout empty
    if args.witness_out:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(witness.to_json_obj(), fh)
            fh.write("\n")
        lines.append(args.witness_out)
    print(*lines, sep="\n")
    return 0


def _cmd_density(G, args) -> int:
    from .invariants import density

    w = density(G)
    print(json.dumps({"gamma": w.gamma, "witness": list(w.witness)}))
    return 0


def _cmd_critical(G, args) -> int:
    from .coloring import chromatic_index_value, extract_critical

    chi = chromatic_index_value(G, deadline=args.deadline)
    # one criticality pass: extraction walks the pairs once, resuming where it
    # last took a copy, and its core is G itself iff G is critical
    core = extract_critical(G, chi=chi, deadline=args.deadline)
    print(
        json.dumps(
            {
                "chi": chi,
                "isCritical": core == G,
                "criticalSubgraph": to_json_obj(core),
            }
        )
    )
    return 0


def _cmd_partition(G, args) -> int:
    from .structure import cycle_partition

    print(json.dumps(cycle_partition(G).to_json_obj()))
    return 0


def _cmd_ring_find(G, args) -> int:
    from .structure import find_ring_subgraph_with_chi

    found = find_ring_subgraph_with_chi(G, args.target, deadline=args.deadline)
    print(
        json.dumps(
            {"found": found is not None, "ring": None if found is None else found.to_json_obj()}
        )
    )
    return 0


def _multiplicities(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


# gen family -> (its builder in `generators`, metavars of its two arguments,
# type of the second); a ring's multiplicities are one comma-separated argument
_FAMILIES = {
    "mu-cycle": ("mu_cycle", "G", "MU", int),
    "mu-complete": ("mu_complete", "N", "MU", int),
    "ring": ("ring", "G", "M1,...,MG", _multiplicities),
}


def _cmd_gen(args) -> int:
    from . import generators

    build = getattr(generators, _FAMILIES[args.family][0])
    sys.stdout.write(serialize(build(args.a, args.b)))
    return 0


def _cmd_scan(args) -> int:
    from .scan import run_scan

    summary = run_scan(_load_config(args.config))
    print(json.dumps(summary.to_json_obj(), indent=2))
    return 1 if summary.violation_count > 0 else 0


def _cmd_lemma_suite(args) -> int:
    from .scan import run_lemma_suite

    config = _load_config(args.config)
    report = run_lemma_suite(config, args.seed)
    print(json.dumps({"violationCount": report["violationCount"], "digest": report["digest"],
                      "report": config.output_path}))
    return 1 if report["violationCount"] > 0 else 0


def _deadline_after(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not seconds > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return time.monotonic() + seconds


# `--timeout` for the graph commands that take a budget, as (flag, options)
_TIMEOUT = ("--timeout", dict(dest="deadline", type=_deadline_after, default="60",
                              help="seconds for the whole command (default 60)", metavar="SECONDS"))

# the commands on one graph argument: name -> (help, handler, the options
# after the graph argument, in help order); cli_main reads the graph once
_GRAPH_COMMANDS = {
    "invariants": ("degrees, multiplicity, girth, density, bound", _cmd_invariants, ()),
    "chi": ("chromatic index with optional witness file", _cmd_chi,
            (("--mode", dict(choices=["search", "gs"], default="search")), _TIMEOUT,
             ("--witness-out", {}))),
    "density": ("density and a witness vertex set", _cmd_density, ()),
    "critical": ("criticality test and critical subgraph", _cmd_critical, (_TIMEOUT,)),
    "partition": ("greedy shortest-cycle partition", _cmd_partition, ()),
    "ring-find": ("ring subgraph with a target chromatic index", _cmd_ring_find,
                  (("--target", dict(type=int, required=True)), _TIMEOUT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steffenlab",
        description="Exact edge-coloring analysis of loopless multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, handler, options) in _GRAPH_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)

    p = sub.add_parser("gen", help="emit a named family as MGR text")
    gen_sub = p.add_subparsers(dest="family", required=True)
    for family, (_, a, b, b_type) in _FAMILIES.items():
        g = gen_sub.add_parser(family)
        g.add_argument("a", type=int, metavar=a)
        g.add_argument("b", type=b_type, metavar=b)
        g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("scan", help="run the enumeration scan from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("lemma-suite", help="run the structural property suites")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_lemma_suite)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command in _GRAPH_COMMANDS:
            return args.func(_read_graph(args.graph), args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to parse", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # each scan record is flushed as a whole line and the checkpoint holds
        # the spec echo: re-running the same config resumes from the report
        flushed = "; partial results flushed" if args.command == "scan" else ""
        print(f"interrupted{flushed}", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
