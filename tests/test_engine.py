import gc
import json
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrgc
from conftest import filled_index, random_digraph
from vrgc import engine
from vrgc.artifact import result_from_obj, result_to_obj
from vrgc.engine import (
    ApplicationRecord,
    Choice,
    CorruptRecord,
    StaleCandidate,
    decode,
    extract,
    extract_one,
    record_bits,
    replay,
    select_best,
)
from vrgc.enumeration import EnumState, ExtractConfig
from vrgc.graphs import DiGraph
from vrgc.mdl import analyze_set, b_application, b_graph, b_rule
from vrgc.rules import code_edges
from vrgc.synth import gen_binary_tree, gen_er


def first_choice(graph, cfg):
    state = filled_index(graph, cfg)
    return state, state.library, select_best(state)


def test_demo6_first_selection(demo6):
    """The winning pair rule marks the edge head on both sides, occurs at
    costs {0,0,1,2}, and is first extracted at (0,1)."""
    state, lib, choice = first_choice(demo6, ExtractConfig(k_min=2, k_max=2, shortcut_s=None))
    assert choice is not None
    assert choice.nodes == (0, 1)
    assert choice.cost == 0
    key = state.keys[choice.code]
    assert (key.nodes, key.bits) == (6, 35)
    code = lib.codes[choice.rule_id]
    assert code[0] == 2
    ((tail, head),) = code_edges(code)
    assert code[1] == 1 << head
    assert code[2] == 1 << head
    costs = sorted(
        c for c, sets in state.tables[choice.code].items() for _ in sets
    )
    assert costs == [0, 0, 1, 2]


def test_demo6_full_collapse_and_roundtrip(demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=2, shortcut_s=None))
    assert res.residual.num_nodes() == 1
    assert res.iterations == 5
    assert decode(res) == demo6
    # first two extractions are the head rule at cost 0
    assert res.records[0].rule_id == res.records[1].rule_id
    assert res.records[0].edits == ()
    assert res.records[1].edits == ()


def test_demo6_k3_roundtrip(demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
    assert decode(res) == demo6
    assert res.residual.num_nodes() == 1


def test_zero_records_decode_identity():
    g = DiGraph(3)  # no edges, no connected sets
    res = extract(g, ExtractConfig())
    assert res.records == []
    assert res.residual == g
    assert decode(res) == g
    assert res.account.compressed_bits == res.account.original_bits


def test_monotone_shrinkage(demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=3))
    sizes = [demo6.num_nodes()]
    for record in res.records:
        sizes.append(sizes[-1] - (len(record.node_ids) - 1))
    assert sizes[-1] == res.residual.num_nodes()
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_roundtrip_property(seed):
    rng = random.Random(seed)
    g = random_digraph(rng, rng.randrange(2, 14), rng.randrange(0, 30))
    res = extract(g, ExtractConfig(k_min=2, k_max=4, shortcut_s=1))
    assert decode(res) == g


def test_roundtrip_with_shortcut_off_matches_graph():
    rng = random.Random(5)
    g = random_digraph(rng, 12, 25)
    res = extract(g, ExtractConfig(k_min=2, k_max=4, shortcut_s=None))
    assert decode(res) == g


def test_realized_bits_identity():
    g = gen_binary_tree(63)
    res = extract(g, ExtractConfig(k_min=2, k_max=4, shortcut_s=1))
    lib = res.grammar
    assert res.account.application_bits == sum(
        application for _, application in record_bits(res.records, lib.codes, g.n0)
    )
    assert res.account.rule_bits == sum(
        b_rule(lib.codes[rid][0], g.n0) for rid in range(len(lib)) if lib.frequency[rid]
    )
    assert res.account.residual_bits == b_graph(
        res.residual.num_nodes(), res.residual.num_edges()
    )
    assert res.account.original_bits == b_graph(63, 62)
    assert (
        res.account.compressed_bits
        == res.account.rule_bits + res.account.application_bits + res.account.residual_bits
    )


def test_determinism_byte_identical():
    g = gen_binary_tree(127)
    cfg = ExtractConfig(k_min=2, k_max=5, shortcut_s=1)
    a, b = (json.dumps(result_to_obj(extract(g, cfg)), sort_keys=True) for _ in range(2))
    assert a == b


def test_mdl_stop_shrinks_record_count():
    g = gen_binary_tree(127)
    full = extract(g, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
    stopped = extract(g, ExtractConfig(k_min=2, k_max=3, shortcut_s=1, mdl_stop=True))
    assert stopped.iterations <= full.iterations
    assert decode(stopped) == g


def prefix_bits(full, n0):
    """The whole encoding's size after each prefix of ``full.records``,
    with every prefix's residual rebuilt by replay."""
    lib = full.grammar
    residuals = [full.residual]
    for record in reversed(full.records):
        residuals.append(replay(residuals[-1], [record], lib))
    residuals.reverse()
    out = []
    for p, residual in enumerate(residuals):
        records = full.records[:p]
        used = {r.rule_id for r in records}
        previous = [None] + [r.rule_id for r in records]
        out.append(
            sum(b_rule(lib.codes[rid][0], n0) for rid in used)
            + sum(
                b_application(lib.codes[r.rule_id][0], len(r.edits), n0, r.rule_id == before)
                for r, before in zip(records, previous)
            )
            + b_graph(residual.num_nodes(), residual.num_edges())
        )
    return out


@pytest.mark.parametrize("graph", [gen_er(200, 600, 1), gen_binary_tree(127)])
def test_mdl_stop_keeps_cheapest_prefix(graph):
    """``mdl_stop`` keeps the shortest prefix of the full extraction with
    the fewest bits, so the grammar never costs more than the plain
    encoding, and a rule whose first use does not yet pay still can."""
    full = extract(graph, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
    stopped = extract(graph, ExtractConfig(k_min=2, k_max=3, shortcut_s=1, mdl_stop=True))
    assert stopped.account.compressed_bits <= stopped.account.original_bits
    assert decode(stopped) == graph
    count = stopped.iterations
    assert stopped.records == full.records[:count]
    running = prefix_bits(full, graph.n0)
    assert stopped.account.compressed_bits == min(running) == running[count]
    assert min(running[:count], default=math.inf) > running[count]
    assert sum(stopped.grammar.frequency) == count


def test_mdl_stop_counts_edges_once(monkeypatch):
    """``extract`` follows the residual's edge count through the
    extractions instead of summing every adjacency set after each one, so
    ``DiGraph.num_edges`` is called as often on a short extraction as on
    a long one."""
    real = DiGraph.num_edges
    count = 0

    def counted(graph):
        nonlocal count
        count += 1
        return real(graph)

    monkeypatch.setattr(DiGraph, "num_edges", counted)
    calls = []
    for graph in (gen_binary_tree(31), gen_binary_tree(127)):
        count = 0
        result = extract(graph, ExtractConfig(k_min=2, k_max=3, shortcut_s=1, mdl_stop=True))
        calls.append((count, result.iterations))
    (short_calls, short_iterations), (long_calls, long_iterations) = calls
    assert short_iterations < long_iterations
    assert short_calls == long_calls


@pytest.mark.parametrize("graph", [gen_er(60, 180, 1), gen_er(40, 160, 2)])
def test_incident_edges_track_the_residual(graph):
    """Each extraction removes the edges incident to its set, as they stand
    before the edits, and adds the survivor's: the edits only toggle edges
    with an endpoint in the set, which the collapse replaces anyway."""
    real = engine.extract_one
    steps = []

    def checked(g, choice):
        before = g.num_edges() - engine.incident_edges(g, choice.nodes)
        record, changed = real(g, choice)
        assert g.num_edges() == before + engine.incident_edges(g, (record.survivor,))
        steps.append(record)
        return record, changed

    with mock.patch.object(engine, "extract_one", checked):
        extract(graph, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
    assert any(record.edits for record in steps)


def test_extraction_independent_of_hash_seed():
    """The dirty-code set iterates in hash order; the output must not."""
    script = (
        "import json\n"
        "from vrgc.artifact import result_to_obj\n"
        "from vrgc.engine import extract\n"
        "from vrgc.enumeration import ExtractConfig\n"
        "from vrgc.synth import gen_er\n"
        "obj = result_to_obj(extract(gen_er(40, 100, 3), ExtractConfig(k_min=2, k_max=4)))\n"
        "print(json.dumps(obj, sort_keys=True))\n"
    )
    src = str(Path(vrgc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["records"]) > 0


@pytest.mark.parametrize(
    "graph, config, calls",
    [
        # Before externals tied to one member left ``changed``: 18,768,
        # 61,556 and 15,673 calls.
        (gen_er(200, 600, 1), ExtractConfig(k_min=2, k_max=3, shortcut_s=1), 12_077),
        (gen_er(200, 600, 1), ExtractConfig(k_min=2, k_max=3, shortcut_s=None), 36_338),
        (gen_binary_tree(1000), ExtractConfig(k_min=2, k_max=5, shortcut_s=1), 12_891),
    ],
    ids=["er_s1", "er_off", "tree"],
)
def test_register_calls_per_extraction(graph, config, calls):
    """The number of sets one extraction registers, the initial
    enumeration included, is pinned: an update that revisits more sets
    than the changed nodes hold shows here first."""
    with mock.patch.object(
        EnumState, "register", autospec=True, side_effect=EnumState.register
    ) as register:
        extract(graph, config)
    assert register.call_count == calls


def test_extraction_index_dies_when_extract_returns():
    """No reference cycle holds an extraction's index: with the cyclic
    collector off, the ``EnumState`` is freed by the time ``extract``
    returns."""
    states = []

    def make_state(graph, config):
        state = EnumState(graph, config)
        states.append(weakref.ref(state))
        return state

    gc.disable()
    try:
        with mock.patch.object(engine, "EnumState", make_state):
            extract(gen_binary_tree(1000), ExtractConfig(k_min=2, k_max=5, shortcut_s=1))
        assert len(states) == 1
        assert states[0]() is None
    finally:
        gc.enable()


def test_extract_one_rejects_disconnected_set_before_editing(demo6):
    """``collapse`` trusts its caller and ``canonical_form`` does not
    validate: a set that came apart has disconnected rows, so its code is
    none that registration made, and ``extract_one`` raises
    ``StaleCandidate`` for every registered code before any edit or
    collapse."""
    state = filled_index(demo6, ExtractConfig(k_min=2, k_max=2, shortcut_s=None))
    nodes = (0, 5)
    cost = analyze_set(demo6, nodes).cost
    before = demo6.copy()
    for code, rid in state.library.index.items():
        with pytest.raises(StaleCandidate):
            extract_one(demo6, Choice(rid, code, nodes, cost))
    assert demo6 == before


@pytest.mark.parametrize("stale", ["code", "cost"])
def test_extract_one_rejects_stale_choice_before_editing(demo6, stale):
    """A choice whose set no longer has the chosen code at the chosen cost
    raises ``StaleCandidate`` and leaves the graph as it was.  In the
    ``code`` case the set keeps its cost, so a cost check alone would write
    the record under a rule the fragment does not have."""
    state = filled_index(demo6, ExtractConfig(k_min=2, k_max=3, shortcut_s=None))
    nodes, entry = next(
        (t, e) for t, e in state.entries.items() if len(t) == 3 and e.cost == 0
    )
    if stale == "code":
        code = next(c for c in state.tables if c[0] == 3 and c not in entry.codes)
        cost = entry.cost
    else:
        code, cost = entry.codes[0], entry.cost + 1
    choice = Choice(state.library.index[code], code, nodes, cost)
    before = demo6.copy()
    with pytest.raises(StaleCandidate):
        extract_one(demo6, choice)
    assert demo6 == before


def test_replay_rejects_bad_rule_id(demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=2))
    bad = ApplicationRecord(
        rule_id=len(res.grammar.codes) + 3,
        node_ids=res.records[0].node_ids,
        edits=(),
    )
    with pytest.raises(CorruptRecord):
        replay(res.residual, res.records[:-1] + [bad], res.grammar)


def test_replay_rejects_edit_to_an_inactive_id():
    """An edit may name an id that the loader accepts (below ``n0``,
    outside its record) but that is inactive when its record is replayed:
    one an older record freed.  The batch toggle checks each endpoint, so
    the artifact loads and its decode ends in ``CorruptRecord``."""
    res = extract(gen_er(30, 80, 1), ExtractConfig(k_min=2, k_max=3))
    freed = max(res.records[0].node_ids)
    obj = result_to_obj(res)
    edited = next(r for r in obj["records"][1:] if r["edits"])
    edited["edits"][0][1] = freed
    loaded, _ = result_from_obj(obj)
    with pytest.raises(CorruptRecord, match=f"node {freed} is not active"):
        decode(loaded)
