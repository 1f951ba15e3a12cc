"""Command-line interface.

Graph arguments accept a file path or '-' for stdin; input may be MGR text
or the JSON form.  Exit codes: 0 success, 1 a scan/suite found violations,
2 usage, input or configuration errors (malformed graphs, non-positive
timeouts, unknown config keys, unreadable or unwritable paths, JSON nested
too deeply to parse).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import chromatic_index, extract_critical, is_critical
from .errors import ConfigError, GraphError
from .generators import mu_complete, mu_cycle, ring
from .invariants import INFINITE_GIRTH, density, girth, steffen_bound
from .multigraph import basic_invariants, parse_any, serialize, to_json_obj
from .scan import ScanConfig, run_lemma_suite, run_scan
from .structure import cycle_partition, find_ring_subgraph_with_chi


def _read_graph(source: str):
    if source == "-":
        return parse_any(sys.stdin.read())
    with open(source, encoding="utf-8") as fh:
        return parse_any(fh.read())


def _load_config(path: str) -> ScanConfig:
    with open(path, encoding="utf-8") as fh:
        return ScanConfig.from_json_obj(json.load(fh))


def _cmd_invariants(args) -> int:
    G = _read_graph(args.graph)
    inv = basic_invariants(G).to_json_obj()
    g = girth(G)
    inv["girth"] = None if g == INFINITE_GIRTH else int(g)
    inv["gamma"] = density(G).gamma
    inv["steffenBound"] = steffen_bound(G)
    print(json.dumps(inv))
    return 0


def _cmd_chi(args) -> int:
    G = _read_graph(args.graph)
    mode = "gs" if args.mode == "gs" else "search"
    chi, witness = chromatic_index(G, mode=mode, timeout_seconds=args.timeout)
    print(chi)
    if args.witness_out:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(witness.to_json_obj(), fh)
            fh.write("\n")
        print(args.witness_out)
    return 0


def _cmd_density(args) -> int:
    G = _read_graph(args.graph)
    w = density(G)
    print(json.dumps({"gamma": w.gamma, "witness": list(w.witness)}))
    return 0


def _cmd_critical(args) -> int:
    G = _read_graph(args.graph)
    chi, _ = chromatic_index(G, timeout_seconds=args.timeout)
    crit = is_critical(G, chi=chi, timeout_seconds=args.timeout)
    core = G if crit else extract_critical(G, timeout_seconds=args.timeout)
    print(
        json.dumps(
            {
                "chi": chi,
                "isCritical": crit,
                "criticalSubgraph": to_json_obj(core),
            }
        )
    )
    return 0


def _cmd_partition(args) -> int:
    G = _read_graph(args.graph)
    print(json.dumps(cycle_partition(G).to_json_obj()))
    return 0


def _cmd_ring_find(args) -> int:
    G = _read_graph(args.graph)
    found = find_ring_subgraph_with_chi(G, args.target, timeout_seconds=args.timeout)
    print(
        json.dumps(
            {"found": found is not None, "ring": None if found is None else found.to_json_obj()}
        )
    )
    return 0


def _cmd_gen(args) -> int:
    if args.family == "mu-cycle":
        G = mu_cycle(args.a, args.b)
    elif args.family == "mu-complete":
        G = mu_complete(args.a, args.b)
    else:
        mults = [int(x) for x in args.mults.split(",")]
        G = ring(args.a, mults)
    sys.stdout.write(serialize(G))
    return 0


def _cmd_scan(args) -> int:
    config = _load_config(args.config)
    try:
        summary = run_scan(config)
    except KeyboardInterrupt:
        # each record is flushed as a whole line and the checkpoint holds the
        # spec echo: re-running the same config resumes from the report
        print("interrupted; partial results flushed", file=sys.stderr)
        return 130
    print(json.dumps(summary.to_json_obj(), indent=2))
    return 1 if summary.violation_count > 0 else 0


def _cmd_lemma_suite(args) -> int:
    config = _load_config(args.config)
    report = run_lemma_suite(config, args.seed)
    with open(config.output_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(
        json.dumps(
            {
                "violationCount": report.violation_count,
                "digest": report.payload["digest"],
                "report": config.output_path,
            }
        )
    )
    return 1 if report.violation_count > 0 else 0


def _positive_seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not seconds > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steffenlab",
        description="Exact edge-coloring analysis of loopless multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="degrees, multiplicity, girth, density, bound")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("chi", help="chromatic index with optional witness file")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["search", "gs"], default="search")
    p.add_argument("--timeout", type=_positive_seconds, default=60.0)
    p.add_argument("--witness-out")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("density", help="density and a witness vertex set")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("critical", help="criticality test and critical subgraph")
    p.add_argument("graph")
    p.add_argument("--timeout", type=_positive_seconds, default=60.0)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("partition", help="greedy shortest-cycle partition")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("ring-find", help="ring subgraph with a target chromatic index")
    p.add_argument("graph")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--timeout", type=_positive_seconds, default=60.0)
    p.set_defaults(func=_cmd_ring_find)

    p = sub.add_parser("gen", help="emit a named family as MGR text")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("mu-cycle")
    g.add_argument("a", type=int, metavar="G")
    g.add_argument("b", type=int, metavar="MU")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("mu-complete")
    g.add_argument("a", type=int, metavar="N")
    g.add_argument("b", type=int, metavar="MU")
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("ring")
    g.add_argument("a", type=int, metavar="G")
    g.add_argument("mults", metavar="M1,...,MG")
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


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
