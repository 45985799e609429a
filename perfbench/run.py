"""Benchmark of vrgc: extraction and decoding time, output size, memory.

    python3 perfbench/run.py --workload tree_noisy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload, both modes

One run generates its workload's batch of inputs from ``--seed``, writes
each as an edge-list file, and extracts the first input in a fresh
interpreter with another hash seed.  It then runs rounds over the batch in
turn until another round would pass ``--seconds`` (at least one round per
input).  A round parses one file, extracts with cold caches, saves the
artifact, and runs a fixed number of load-and-decode passes.  Every
round's output is checked by ``checks``, and every extraction of an input
must give the same grammar hash.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  Without ``--workload`` every workload runs in its own
process, untraced and then traced, and a table with the tracing overhead
is printed.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, install  # noqa: E402

END_TO_END = {
    "extract_s": "s",
    "decode_s": "s",
    "setup_s": "s",
    "compressed_bits": "bit",
    "artifact_bytes": "B",
    "peak_rss_mb": "MiB",
}

# per-layer time metric -> (span name, "total" or "self", per decode pass?)
SPAN_METRICS = {
    "graphs.parse_s": ("graphs.parse", "total", False),
    "enumeration.initial_s": ("enumeration.initial", "total", False),
    "enumeration.register_s": ("enumeration.register", "total", False),
    "enumeration.update_s": ("enumeration.update", "self", False),
    "enumeration.remove_touching_s": ("enumeration.remove_touching", "total", False),
    "mdl.analyze_set_s": ("mdl.analyze_set", "total", False),
    "mdl.pcr_s": ("mdl.pcr", "total", False),
    "rules.canonical_s": ("rules.canonical", "total", False),
    "engine.select_s": ("engine.select", "total", False),
    "engine.apply_s": ("engine.apply", "total", False),
    "engine.replay_s": ("engine.replay", "total", True),
    "artifact.load_s": ("artifact.load", "total", True),
}

# per-layer count metric -> (key in a round's counts, per decode pass?)
COUNT_METRICS = {
    "enumeration.sets_initial": ("sets_initial", False),
    "enumeration.register_calls": ("register_calls", False),
    "enumeration.entries_scanned": ("entries_scanned", False),
    "enumeration.index_entries_max": ("index_entries_max", False),
    "mdl.side_minima_hits": ("side_minima_hits", False),
    "mdl.side_minima_misses": ("side_minima_misses", False),
    "rules.canonical_hits": ("canonical_hits", False),
    "rules.canonical_misses": ("canonical_misses", False),
    "rules.interned": ("interned", False),
    "rules.used": ("used", False),
    "engine.codes_scored": ("codes_scored", False),
    "engine.occurrences_scored": ("occurrences_scored", False),
    "engine.iterations": ("iterations", False),
    "engine.edits_replayed": ("edits_replayed", True),
    "artifact.codes_loaded": ("codes_loaded", True),
}

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


class SetupError(Exception):
    pass


def import_program():
    """Import vrgc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vrgc" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC}/vrgc")
    sys.path.insert(0, str(SRC))
    import vrgc
    from vrgc import artifact, engine, enumeration, graphs, mdl, rules

    if Path(vrgc.__file__).resolve().parent != (SRC / "vrgc").resolve():
        raise SetupError(f"vrgc imported from {vrgc.__file__}, not from {SRC}")
    return artifact, engine, enumeration, graphs, mdl, rules


def measure_setup(
    graph_path: Path, n0: int, edges: int, kernel_s: list[float]
) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    vrgc and parsed the workload file, scaled and unscaled.  Each probe is
    scaled by the kernel times before and after it."""
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(graph_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.split() != [str(n0), str(edges)]:
            raise SetupError(f"set-up probe failed: exit {proc.returncode}, output {line!r}")
        samples.append(ready - started)
        scaled.append(samples[-1] * next_scale(kernel_s))
    return statistics.median(scaled), statistics.median(samples)


def next_scale(kernel_s: list[float]) -> float:
    """Time the reference kernel again and return the factor that scales
    the work since the previous kernel time to the reference speed."""
    kernel_s.append(calibration.kernel_seconds())
    return 2 * calibration.REFERENCE_S / (kernel_s[-2] + kernel_s[-1])


@dataclass(frozen=True)
class Input:
    """One relabelling in a run's batch, as written to its edge file."""

    index: int
    graph_path: Path
    art_path: Path
    edges: set  # the pairs the benchmark itself reads back from the file
    n0: int


def make_inputs(out: Path, name: str, seed: int, nodes: int | None) -> list[Input]:
    inputs = []
    for index in range(workloads.WORKLOADS[name].inputs):
        graph_path = out / f"graph-{index}.edges"
        workloads.write_edge_file(graph_path, name, seed, workloads.generate(name, seed, index, nodes))
        edges = workloads.read_edge_file(graph_path)
        n0 = 1 + max(max(e) for e in edges)
        inputs.append(Input(index, graph_path, out / f"artifact-{index}.json", edges, n0))
    return inputs


def fresh_extraction(workload, inp: Input, out: Path) -> tuple[str | None, float]:
    """Extract ``inp`` in a new interpreter whose hash seed differs from this
    one's; return the grammar hash of its artifact (None if the extraction
    failed) and the wall time it took."""
    ours = os.environ.get("PYTHONHASHSEED", "")
    theirs = (int(ours) + 1) % 2**32 if ours.isdigit() else 1
    art_path = out / "artifact-fresh.json"
    art_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "probe.py"), str(inp.graph_path),
        str(workload.k_max), str(workload.shortcut), str(art_path),
    ]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd,
        stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONHASHSEED=str(theirs)),
        timeout=CHILD_TIMEOUT_S,
    )
    fresh_s = time.perf_counter() - started
    if proc.returncode != 0:
        return None, fresh_s
    return checks.grammar_hash(json.loads(art_path.read_text())), fresh_s


def run_round(program, workload, inp: Input, kernel_s: list[float] | None) -> dict:
    """Extract one input and decode it; with ``kernel_s`` (untraced runs),
    the kernel is timed after the extraction and after the decode passes,
    and each is scaled by the kernel times on either side of it."""
    artifact, engine, enumeration, graphs, mdl, rules = program
    rules.canonical_form.cache_clear()
    mdl._side_minima.cache_clear()
    graph = graphs.parse_edge_list(inp.graph_path.read_text())
    config = enumeration.ExtractConfig(k_min=2, k_max=workload.k_max, shortcut_s=workload.shortcut)
    started = time.perf_counter()
    result = engine.extract(graph, config)
    extract_s = time.perf_counter() - started
    extract_scale = 1.0 if kernel_s is None else next_scale(kernel_s)
    canonical, side = rules.canonical_form.cache_info(), mdl._side_minima.cache_info()
    artifact.save_artifact(result, inp.art_path)

    failures = []
    decode_s = []
    for _ in range(workload.decode_passes):
        started = time.perf_counter()
        loaded, _ = artifact.load_artifact(inp.art_path)
        decoded = engine.decode(loaded)
        decode_s.append(time.perf_counter() - started)
        failures += checks.check_decoded(set(decoded.edges()), set(decoded.active), inp.edges)
    decode_scale = 1.0 if kernel_s is None else next_scale(kernel_s)

    art = json.loads(inp.art_path.read_text())
    failures += checks.check_artifact(art, inp.n0)
    if art["account"]["compressed_bits"] != result.account.compressed_bits:
        failures.append("artifact account differs from the extraction result's")
    return {
        "input": inp.index,
        "extract_s": extract_s,
        "decode_s": decode_s,
        "extract_scale": extract_scale,
        "decode_scale": decode_scale,
        "compressed_bits": result.account.compressed_bits,
        "artifact_bytes": inp.art_path.stat().st_size,
        "hash": checks.grammar_hash(art),
        "used_codes": checks.used_codes(art),
        "failures": failures,
        "counts": {
            "canonical_hits": canonical.hits,
            "canonical_misses": canonical.misses,
            "side_minima_hits": side.hits,
            "side_minima_misses": side.misses,
            "interned": len(result.grammar.codes),
            "used": sum(1 for f in result.grammar.frequency if f),
        },
    }


def layer_metrics(rounds: list[dict], firsts: list[dict], passes: int) -> tuple[dict, list[str]]:
    """Span times are medians over rounds; counts are means over the batch,
    and must repeat exactly when an input is extracted again."""
    failures = []
    for r in rounds:
        if r["counts"] != firsts[r["input"]]["counts"]:
            failures.append(f"per-layer counts of input {r['input']} differ between rounds")
    metrics = {}
    for metric, (span, kind, per_pass) in SPAN_METRICS.items():
        values = [r["spans"].get(span, {}).get(kind, 0.0) for r in rounds]
        value = statistics.median(values) / (passes if per_pass else 1)
        metrics[metric] = {"value": value, "unit": "s"}
    for metric, (key, per_pass) in COUNT_METRICS.items():
        values = [f["counts"].get(key, 0) for f in firsts]
        if per_pass:
            if any(v % passes for v in values):
                failures.append(f"{metric} differs between decode passes")
            values = [v // passes for v in values]
        metrics[metric] = {"value": statistics.mean(values), "unit": "count"}
    metrics["trace.extract_s"] = {
        "value": statistics.median(r["extract_s"] for r in rounds),
        "unit": "s",
    }
    metrics["trace.decode_s"] = {
        "value": statistics.median(t for r in rounds for t in r["decode_s"]),
        "unit": "s",
    }
    return metrics, failures


def run_workload(name: str, seed: int, seconds: int, traced: bool, nodes: int | None) -> dict:
    """Extract the first input in a fresh process, then the batch's inputs in
    turn, round after round, until another round would pass ``seconds``."""
    program = import_program()
    workload = workloads.WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    out.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(out, name, seed, nodes)
    first = inputs[0]
    fresh_hash, fresh_s = fresh_extraction(workload, first, out)
    # reference kernel times, taken between all timed work of an untraced run
    kernel_s = None if traced else [calibration.kernel_seconds()]
    if not traced:
        setup_s, unscaled_setup_s = measure_setup(
            first.graph_path, first.n0, len(first.edges), kernel_s
        )

    tracer = Tracer()
    if traced:
        install(tracer)
    rounds, attempted, failed = [], 0, 0
    first_of: dict[int, dict] = {}  # the first successful round of each input
    ops = 1 + workload.decode_passes  # one extraction and its decode passes
    started = time.perf_counter()
    longest = 0.0
    while attempted < len(inputs) * ops or (
        time.perf_counter() - started + longest <= seconds - fresh_s
    ):
        round_started = time.perf_counter()
        inp = inputs[(attempted // ops) % len(inputs)]
        tracer.reset()
        attempted += ops
        try:
            rnd = run_round(program, workload, inp, kernel_s)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += ops
            rnd = None
        longest = max(longest, time.perf_counter() - round_started)
        if rnd is not None:
            if traced:
                rnd["spans"] = tracer.aggregate()
                rnd["counts"].update(tracer.counts)
                if not rounds:
                    tracer.write(out / "spans.tsv.gz")
            first_of.setdefault(rnd["input"], rnd)
            rounds.append(rnd)
    tracer.uninstall()
    if len(first_of) < len(inputs):
        raise SetupError("every extraction of an input failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    firsts = [first_of[i] for i in range(len(inputs))]
    failures = [f for r in rounds for f in r["failures"]]
    for r in firsts:
        failures += checks.check_rules_distinct(r["used_codes"])
    for r in rounds:
        if r["hash"] != firsts[r["input"]]["hash"]:
            failures.append(f"grammar hash of input {r['input']} differs between rounds")
    attempted += 1  # the fresh extraction
    if fresh_hash is None:
        failed += 1
    elif fresh_hash != firsts[0]["hash"]:
        failures.append("grammar hash of input 0 differs in a fresh process")
    if traced:
        metrics, count_failures = layer_metrics(rounds, firsts, workload.decode_passes)
        failures += count_failures
    else:
        metrics = {
            "extract_s": statistics.median(r["extract_s"] * r["extract_scale"] for r in rounds),
            "decode_s": statistics.median(
                t * r["decode_scale"] for r in rounds for t in r["decode_s"]
            ),
            "setup_s": setup_s,
            "compressed_bits": statistics.median(r["compressed_bits"] for r in firsts),
            "artifact_bytes": statistics.median(r["artifact_bytes"] for r in firsts),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    detail = {
        "workload": name,
        "seed": seed,
        "nodes": nodes or workload.nodes,
        "rounds": len(rounds),
        "grammar_hashes": [r["hash"] for r in firsts],
        "fresh_process_hash": fresh_hash,
        "failures": failures,
    }
    if not traced:
        detail["unscaled"] = {
            "extract_s": statistics.median(r["extract_s"] for r in rounds),
            "decode_s": statistics.median(t for r in rounds for t in r["decode_s"]),
            "setup_s": unscaled_setup_s,
            "kernel_s": kernel_s,
        }
    (out / "run.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail), file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; the two runs
    of a workload must give the same grammar hashes."""
    summary = {}
    for name in workloads.WORKLOADS:
        summary[name] = {}
        for traced in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced),
            ]
            if args.nodes:
                cmd += ["--nodes", str(args.nodes)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name} (trace {traced}) exited with {proc.returncode}", file=sys.stderr)
                return 1
            summary[name]["traced" if traced else "untraced"] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
        hashes = [
            json.loads((OUT / f"{name}-seed{args.seed}-trace{t}" / "run.json").read_text())["grammar_hashes"]
            for t in (0, 1)
        ]
        if hashes[0] != hashes[1]:
            print(f"CHECK FAILED: grammar hashes of {name} differ between the untraced and traced runs", file=sys.stderr)
            summary[name]["untraced"]["correct"] = False
    ok = True
    for name, runs in summary.items():
        plain, traced = runs["untraced"], runs["traced"]
        ok &= plain["correct"] and traced["correct"] and not plain["failed"] + traced["failed"]
        print(f"\n{name}: correct={plain['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        # traced times are unscaled, so compare them with unscaled times
        unscaled = json.loads((OUT / f"{name}-seed{args.seed}-trace0" / "run.json").read_text())["unscaled"]
        overhead = {
            "extract": traced["metrics"]["trace.extract_s"]["value"] / unscaled["extract_s"] - 1,
            "decode": traced["metrics"]["trace.decode_s"]["value"] / unscaled["decode_s"] - 1,
        }
        runs["tracing_overhead"] = overhead
        print(f"  traced run: correct={traced['correct']} attempted={traced['attempted']} failed={traced['failed']}")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  tracing overhead: extract {overhead['extract']:+.1%}, decode {overhead['decode']:+.1%}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, help="input size, for smoke runs")
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.nodes)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
