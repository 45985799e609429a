"""Tests of the benchmark itself: smoke runs of every workload, and each
output check failing on a tampered artifact.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from vrgc.artifact import load_artifact, save_artifact  # noqa: E402
from vrgc.engine import decode, extract  # noqa: E402
from vrgc.enumeration import ExtractConfig  # noqa: E402
from vrgc.graphs import parse_edge_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_NODES = 40


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_json(workload, seed, trace):
    return json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}" / "run.json").read_text()
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    common = ["--workload", workload, "--seed", "3", "--seconds", "1", "--nodes", str(SMOKE_NODES)]
    plain = last_json(bench(*common, "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0
    plain_hashes = run_json(workload, 3, 0)["grammar_hashes"]

    traced = [last_json(bench(*common, "--trace", "1")) for _ in range(2)]
    for result in traced:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in traced
    ]
    assert counts[0] == counts[1]
    assert run_json(workload, 3, 1)["grammar_hashes"] == plain_hashes


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "er_sparse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5, 0, 50) == workloads.generate(name, 5, 0, 50)
        assert workloads.generate(name, 5, 0, 50) != workloads.generate(name, 6, 0, 50)
        assert workloads.generate(name, 5, 0, 50) != workloads.generate(name, 5, 1, 50)


def test_tracer_spans_and_self_time():
    tracer = Tracer()
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x
    mod.outer = lambda xs: [mod.leaf(x) for x in xs]
    mod.items = lambda n: iter(range(n))
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap_generator(mod, "items", "items", "yielded")
    gen = mod.items(3)
    assert mod.outer(gen) == [0, 1, 2]
    tracer.uninstall()
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["outer", "items", "leaf", "leaf", "leaf"]
    # the generator's span stays open until it is exhausted, so calls made
    # while it is suspended fall inside it
    assert list(tracer.parent) == [-1, 0, 1, 1, 1]
    assert all(tracer.end[i] >= tracer.end[i + 1] for i in (0, 1))
    assert tracer.counts["yielded"] == 3
    agg = tracer.aggregate()
    assert agg["leaf"]["calls"] == 3
    outer, items = agg["outer"], agg["items"]
    assert outer["self"] == pytest.approx(outer["total"] - items["total"], abs=1e-9)
    assert items["self"] == pytest.approx(items["total"] - agg["leaf"]["total"], abs=1e-9)


# -- tampered artifacts ------------------------------------------------------


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A small tree_noisy extraction saved as an artifact, with its source."""
    out = tmp_path_factory.mktemp("artifact")
    edges = workloads.generate("tree_noisy", 2, 0, 60)
    workloads.write_edge_file(out / "graph.edges", "tree_noisy", 2, edges)
    graph = parse_edge_list((out / "graph.edges").read_text())
    result = extract(graph, ExtractConfig(k_min=2, k_max=4, shortcut_s=1))
    save_artifact(result, out / "artifact.json")
    art = json.loads((out / "artifact.json").read_text())
    assert len(art["records"]) >= 2
    return out, edges, graph.n0, art


def decode_failures(out, art, edges):
    path = out / "tampered.json"
    path.write_text(json.dumps(art))
    decoded = decode(load_artifact(path)[0])
    return checks.check_decoded(set(decoded.edges()), set(decoded.active), edges)


def test_untampered_artifact_passes(made):
    out, edges, n0, art = made
    assert decode_failures(out, art, edges) == []
    assert checks.check_artifact(art, n0) == []
    assert checks.check_rules_distinct(checks.used_codes(art)) == []
    assert checks.grammar_hash(art) == checks.grammar_hash(copy.deepcopy(art))


def test_toggled_residual_edge_fails_decode_and_bits(made):
    out, edges, n0, art = made
    bad = copy.deepcopy(art)
    a, b = sorted(bad["residual"]["active"])[:2]
    residual_edges = bad["residual"]["edges"]
    if [a, b] in residual_edges:
        residual_edges.remove([a, b])
    else:
        residual_edges.append([a, b])
    assert decode_failures(out, bad, edges)
    assert any("residual_bits" in f for f in checks.check_bits(bad, n0))
    assert checks.grammar_hash(bad) != checks.grammar_hash(art)


def test_altered_record_id_fails_hash(made):
    _, _, _, art = made
    bad = copy.deepcopy(art)
    record = bad["records"][0]
    record["rule_id"] = next(
        rid for rid in range(len(bad["grammar"]["codes"]))
        if bad["grammar"]["codes"][rid] != bad["grammar"]["codes"][record["rule_id"]]
    )
    assert checks.grammar_hash(bad) != checks.grammar_hash(art)


def test_altered_edit_fails_bits(made):
    _, _, n0, art = made
    bad = copy.deepcopy(art)
    bad["records"][0]["edits"].append([0, 0, "in"])
    assert any("application_bits" in f for f in checks.check_bits(bad, n0))


def test_extra_residual_node_fails_size(made):
    _, _, n0, art = made
    bad = copy.deepcopy(art)
    bad["residual"]["active"].append(max(bad["records"][0]["node_ids"]))  # a retired id
    assert checks.check_residual_size(bad, n0)


def test_isomorphic_used_rules_fail_distinct(made):
    _, _, _, art = made
    bad = copy.deepcopy(art)
    rid = bad["records"][0]["rule_id"]
    k, i_mask, o_mask, rows = checks.rule_of_code(bad["grammar"]["codes"][rid])
    perm = list(reversed(range(k)))  # new position p holds old position perm[p]
    new_of = {old: new for new, old in enumerate(perm)}
    new_rows = [0] * k
    for new, old in enumerate(perm):
        for q in range(k):
            if rows[old] >> q & 1:
                new_rows[new] |= 1 << new_of[q]
    i_new = sum((i_mask >> old & 1) << new for new, old in enumerate(perm))
    o_new = sum((o_mask >> old & 1) << new for new, old in enumerate(perm))
    code = bytes([k, i_new, o_new, *new_rows]).hex()
    bad["grammar"]["codes"].append(code)
    bad["records"][-1]["rule_id"] = len(bad["grammar"]["codes"]) - 1
    assert checks.check_rules_distinct(checks.used_codes(bad))
