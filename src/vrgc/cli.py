"""Command-line driver: extraction runs, round-trip checks, null-model
comparison, and parameter sweeps.

Exit codes: 0 success, 1 input parse error, 2 configuration error,
3 round-trip mismatch.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import analysis, synth
from .artifact import ArtifactInvalid, load_artifact, save_artifact, write_json
from .engine import CorruptRecord, decode, extract
from .enumeration import ConfigInvalid, ExtractConfig
from .graphs import DiGraph, GraphError, parse_edge_list
from .mdl import compression_rate
from .rules import rule_to_dot
from .synth import ParamInvalid

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3


class CLIParseError(Exception):
    pass


def _shortcut(value: str):
    if value == "off":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'off'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrgc", description="Grammar-based lossless graph compression."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--input", help="edge-list file (src dst per line)")
        src.add_argument(
            "--generator",
            choices=["bintree", "treerings", "ringlat", "er", "chunglu"],
        )
        p.add_argument("--nodes", type=int, default=100)
        p.add_argument("--edges", type=int, default=None)
        p.add_argument("--branching", type=int, default=3)
        p.add_argument("--ring-size", type=int, default=15)
        p.add_argument("--degree", type=int, default=4)
        p.add_argument("--rewire", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--kmin", type=int, default=2)
        p.add_argument("--kmax", type=int, default=3)
        p.add_argument("-s", "--shortcut", type=_shortcut, default=1)
        p.add_argument("--mdl-stop", action="store_true")

    p_extract = sub.add_parser("extract", help="extract a grammar, write artifacts")
    add_common(p_extract)
    p_extract.add_argument("--out", default="out")
    p_extract.add_argument("--emit", default="json")

    p_round = sub.add_parser("roundtrip", help="verify decode(extract(G)) == G")
    add_common(p_round)
    p_round.add_argument("--artifact", help="decode this artifact instead of re-extracting")

    p_cmp = sub.add_parser("compare", help="rank rules against ER and Chung-Lu nulls")
    add_common(p_cmp)
    p_cmp.add_argument("--out", default="out")
    p_cmp.add_argument("--emit", default="json")
    p_cmp.add_argument("--top", type=int, default=5)

    p_sweep = sub.add_parser("sweep", help="parameter sweep, CSV output")
    add_common(p_sweep)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--axis", choices=["nodes", "kmax", "rewire"], required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


def manifest_from_args(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items())}


def make_config(args) -> ExtractConfig:
    return ExtractConfig(
        k_min=args.kmin,
        k_max=args.kmax,
        shortcut_s=args.shortcut,
        mdl_stop=args.mdl_stop,
    )


def _balanced_degrees(n: int, m: int) -> list[int]:
    if n < 1:
        raise ParamInvalid("need at least one node")
    base, extra = divmod(m, n)
    return [base + (1 if i < extra else 0) for i in range(n)]


def load_or_generate(args) -> DiGraph:
    if args.input:
        path = Path(args.input)
        if not path.is_file():
            raise CLIParseError(f"input file not found: {path}")
        try:
            graph = parse_edge_list(path.read_text())
        except (OSError, ValueError, GraphError) as exc:
            raise CLIParseError(str(exc))
    elif args.generator:
        n = args.nodes
        if args.generator == "bintree":
            graph = synth.gen_binary_tree(n)
        elif args.generator == "treerings":
            graph = synth.gen_tree_of_rings(args.branching, args.ring_size, n)
        elif args.generator == "ringlat":
            graph = synth.gen_ring_lattice(n, args.degree)
        elif args.generator == "er":
            m = args.edges if args.edges is not None else n
            graph = synth.gen_er(n, m, args.seed)
        else:
            m = args.edges if args.edges is not None else 2 * n
            deg = _balanced_degrees(n, m)
            graph = synth.gen_chung_lu_directed(deg, deg, args.seed)
    else:
        raise ConfigInvalid("either --input or --generator is required")
    if args.rewire:
        graph = synth.rewire(graph, args.rewire, args.seed)
    return graph


def _emit_set(args) -> set[str]:
    emit = {token.strip() for token in args.emit.split(",") if token.strip()}
    if not emit or not emit <= {"json", "dot"}:
        raise ConfigInvalid(f"--emit takes json and dot, got {args.emit!r}")
    return emit


def _write_outputs(args, emit, result, manifest) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "json" in emit:
        save_artifact(result, out / "artifact.json", manifest)
        write_json(out / "grammar.json", {"manifest": manifest, **result.grammar.to_json_obj()})
        report = analysis.report_json_obj(result)
        report["manifest"] = manifest
        write_json(out / "report.json", report)
    if "dot" in emit:
        for rid in result.grammar.ordered_ids():
            dot = rule_to_dot(result.grammar.codes[rid], name=f"rule_{rid}")
            (out / f"rule_{rid}.dot").write_text(dot)


def cmd_extract(args) -> int:
    emit = _emit_set(args)
    graph = load_or_generate(args)
    result = extract(graph, make_config(args))
    manifest = manifest_from_args(args)
    _write_outputs(args, emit, result, manifest)
    rate = compression_rate(result.account)
    print(
        f"extracted {result.iterations} applications of "
        f"{len(result.grammar)} rules; "
        f"compression rate {rate:.4f}"
    )
    return EXIT_OK


def _first_difference(expected: DiGraph, got: DiGraph) -> str:
    missing_nodes = sorted(expected.active - got.active)
    extra_nodes = sorted(got.active - expected.active)
    if missing_nodes:
        return f"node {missing_nodes[0]} missing from decoded graph"
    if extra_nodes:
        return f"unexpected node {extra_nodes[0]} in decoded graph"
    want = set(expected.edges())
    have = set(got.edges())
    for e in sorted(want - have):
        return f"edge {e[0]}->{e[1]} missing from decoded graph"
    for e in sorted(have - want):
        return f"unexpected edge {e[0]}->{e[1]} in decoded graph"
    return "graphs differ"


def cmd_roundtrip(args) -> int:
    graph = load_or_generate(args)
    if getattr(args, "artifact", None):
        try:
            result, _ = load_artifact(args.artifact)
        except ArtifactInvalid as exc:
            raise CLIParseError(str(exc))
    else:
        result = extract(graph, make_config(args))
    try:
        rebuilt = decode(result)
    except CorruptRecord as exc:
        print(f"round-trip failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if rebuilt == graph:
        print(f"round-trip ok: {graph.num_nodes()} nodes, {graph.num_edges()} edges")
        return EXIT_OK
    print(f"round-trip mismatch: {_first_difference(graph, rebuilt)}", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_compare(args) -> int:
    emit = _emit_set(args)
    if args.top < 0:
        raise ConfigInvalid(f"--top must be non-negative, got {args.top}")
    graph = load_or_generate(args)
    config = make_config(args)
    result = extract(graph, config)
    n = graph.num_nodes()
    m = graph.num_edges()
    out_deg = [len(graph.out_adj[v]) if v in graph.active else 0 for v in range(graph.n0)]
    in_deg = [len(graph.in_adj[v]) if v in graph.active else 0 for v in range(graph.n0)]
    nulls = {
        "er": synth.gen_er(n, m, args.seed),
        "chunglu": synth.gen_chung_lu_directed(out_deg, in_deg, args.seed),
    }
    p = analysis.rule_distribution(result.grammar)
    comparisons = {}
    rankings = {}
    for name, null_graph in nulls.items():
        q = analysis.rule_distribution(extract(null_graph, config).grammar)
        comparisons[name] = analysis.kl_divergence(p, q)
        rankings[name] = analysis.rank_interesting(comparisons[name][1], result.grammar)
    manifest = manifest_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = analysis.report_json_obj(result, comparisons)
    report["manifest"] = manifest
    if "json" in emit:
        write_json(out / "compare.json", report)
    if "dot" in emit:
        for name, ranked in rankings.items():
            for rank, code in enumerate(ranked[: args.top]):
                if code not in result.grammar.index:
                    continue
                dot = rule_to_dot(code, name=f"{name}_top{rank}")
                (out / f"interesting_{name}_{rank}.dot").write_text(dot)
    for name in sorted(comparisons):
        print(f"kl[{name}] = {comparisons[name][0]:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
        values = [float(v) if args.axis == "rewire" else int(v) for v in raw_values]
    except ValueError as exc:
        raise ConfigInvalid(f"bad --values: {exc}")
    if not values:
        raise ConfigInvalid("--values is empty")
    if args.axis == "nodes" and not args.generator:
        raise ConfigInvalid("--axis nodes needs --generator")
    points = []
    for value in values:
        point = argparse.Namespace(**vars(args))
        setattr(point, args.axis, value)
        points.append((value, load_or_generate(point), make_config(point)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, graph, config in points:
        result = extract(graph, config)
        rows.append(
            {
                "param": args.axis,
                "value": value,
                "compression_rate": compression_rate(result.account),
                "runtime_seconds": round(result.runtime_seconds, 6),
                "rules": len(result.grammar),
                "extractions": result.iterations,
            }
        )
    path = out / "sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep points to {path}")
    return EXIT_OK


COMMANDS = {
    "extract": cmd_extract,
    "roundtrip": cmd_roundtrip,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CLIParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigInvalid, ParamInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
