"""Properties of the paper's contract over every generator, and a fuzzed
artifact loader.

``decode(extract(G)) == G`` must hold on every generator, at every
``kmax`` up to 8, with the shortcut at 0, 1 and off and ``mdl_stop`` on and
off, also after the result goes through the artifact's JSON, and each
replayed record must leave the graph that a reference regrow, with a
checked call per edge, leaves.  The loader
must turn any one-leaf change of a saved artifact into ``ArtifactInvalid``,
or else hand back a result that decodes to a graph or raises
``CorruptRecord``.
"""

import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vrgc import synth
from vrgc.artifact import ArtifactInvalid, result_from_obj, result_to_obj
from vrgc.engine import CorruptRecord, decode, extract, replay
from vrgc.enumeration import ExtractConfig
from vrgc.graphs import DiGraph


@st.composite
def small_graphs(draw):
    """A graph of 6 to 12 nodes from one of the five generators."""
    kind = draw(st.sampled_from(["bintree", "treerings", "ringlat", "er", "chunglu"]))
    if kind == "treerings":
        ring = draw(st.integers(3, 6))
        rings = draw(st.integers(-(-6 // ring), 12 // ring))
        return synth.gen_tree_of_rings(draw(st.integers(1, 3)), ring, ring * rings)
    n = draw(st.integers(6, 12))
    if kind == "bintree":
        return synth.gen_binary_tree(n)
    if kind == "ringlat":
        return synth.gen_ring_lattice(n, draw(st.sampled_from([2, 4])))
    seed = draw(st.integers(0, 10_000))
    if kind == "er":
        return synth.gen_er(n, draw(st.integers(n - 1, 2 * n)), seed)
    out_degrees = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return synth.gen_chung_lu_directed(out_degrees, draw(st.permutations(out_degrees)), seed)


def reference_regrow(graph, code, record):
    """Undo one record with a checked call per edge: ``remove_edge`` and
    ``add_edge`` regrow the fragment, and ``has_edge`` picks the call that
    flips each edit.  ``DiGraph.expand`` and ``DiGraph.toggle_edges`` write
    the adjacency sets directly and must leave the same graph."""
    k, i_mask, o_mask = code[:3]
    node_ids = record.node_ids
    survivor = min(node_ids)
    in_nbrs = list(graph.in_adj[survivor])
    out_nbrs = list(graph.out_adj[survivor])
    for u in in_nbrs:
        graph.remove_edge(u, survivor)
    for w in out_nbrs:
        graph.remove_edge(survivor, w)
    graph.active.update(node_ids)
    for p, (nid, row) in enumerate(zip(node_ids, code[3:])):
        for j in range(k):
            if row >> j & 1:
                graph.add_edge(nid, node_ids[j])
        if i_mask >> p & 1:
            for u in in_nbrs:
                graph.add_edge(u, nid)
        if o_mask >> p & 1:
            for w in out_nbrs:
                graph.add_edge(nid, w)
    for p, external, direction in record.edits:
        u, v = (external, node_ids[p]) if direction == "in" else (node_ids[p], external)
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)


def check_replay_against_reference(res):
    """After every replayed record, ``replay``'s graph equals the
    reference's, its ``out_adj`` and ``in_adj`` mirror each other, and
    every edge joins two active ids."""
    ref = res.residual.copy()
    for i in reversed(range(len(res.records))):
        record = res.records[i]
        reference_regrow(ref, res.grammar.codes[record.rule_id], record)
        g = replay(res.residual, res.records[i:], res.grammar)
        assert g == ref
        edges = {(u, v) for u, succs in g.out_adj.items() for v in succs}
        assert edges == {(u, v) for v, preds in g.in_adj.items() for u in preds}
        assert all(u in g.active and v in g.active for u, v in edges)


# A fixed draw keeps tier-1's time fixed: these 12 examples cover all five
# generators, kmax 2..8, each shortcut and both mdl_stop values in about 9 s,
# most of it one Chung-Lu graph at kmax 8.  Shrinking is off: each shrink
# step re-extracts at kmax up to 8, so a broken replay would run for many
# minutes before failing; a failure is reported unshrunk instead.
@settings(
    max_examples=12, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)
@given(
    g=small_graphs(),
    k_max=st.integers(2, 8),
    shortcut=st.sampled_from([0, 1, None]),
    mdl_stop=st.booleans(),
)
def test_roundtrip_every_generator(g, k_max, shortcut, mdl_stop):
    res = extract(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut, mdl_stop=mdl_stop))
    assert decode(res) == g
    check_replay_against_reference(res)
    loaded, _ = result_from_obj(json.loads(json.dumps(result_to_obj(res))))
    assert decode(loaded) == g


FUZZ_CASES = {
    "bintree_40_k4": (lambda: synth.gen_binary_tree(40), ExtractConfig(k_min=2, k_max=4)),
    "er_30_80_k3": (lambda: synth.gen_er(30, 80, 1), ExtractConfig(k_min=2, k_max=3)),
    "ringlat_20_k5_off": (
        lambda: synth.gen_ring_lattice(20),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=None),
    ),
}

# How many mutants of each case end in ``ArtifactInvalid``, in
# ``CorruptRecord``, in the source graph and in another graph.  A change
# that moves a check shows here; a count may move only from a decoded
# outcome to a rejection.
FUZZ_OUTCOMES = {
    "bintree_40_k4": (662, 0, 19, 30),
    "er_30_80_k3": (1533, 74, 50, 201),
    "ringlat_20_k5_off": (473, 3, 17, 18),
}


def leaves(obj, path=()):
    """Paths to the scalar leaves of a JSON object, outside ``manifest``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if path == () and key == "manifest":
            continue
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def replacements(value):
    """The values one leaf is replaced by: generic wrong values, a step of
    one either way for a number, the other truth value for a bool, a code
    one byte shorter and one byte longer, and the other edit direction."""
    out = [0, -1, 10**6, "x", None, 0.5]
    if type(value) in (int, float):
        out += [value + 1, value - 1]
    elif type(value) is bool:
        out.append(not value)
    elif value in ("in", "out"):
        out.append("out" if value == "in" else "in")
    elif isinstance(value, str):
        out += [value[:-2], value + "00"]
    return out


def mutants(obj):
    """Make every single-leaf mutation of ``obj`` in place, yielding the
    mutated leaf's path; each leaf is restored after its last mutation."""
    for path in list(leaves(obj)):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        for value in replacements(original):
            parent[path[-1]] = value
            yield path
        parent[path[-1]] = original


def load_and_decode(obj):
    """The decoded graph of a loaded artifact object, or the documented
    exception type that stopped it."""
    try:
        return decode(result_from_obj(obj)[0])
    except (ArtifactInvalid, CorruptRecord) as exc:
        return type(exc)


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_loader_fuzz_single_leaf(case):
    """Every one-leaf mutation of a saved artifact is rejected with
    ``ArtifactInvalid`` or ``CorruptRecord``, or decodes to a graph; no
    other exception escapes the loader or the decoder, and each outcome
    comes as often as ``FUZZ_OUTCOMES`` says."""
    make, config = FUZZ_CASES[case]
    g = make()
    obj = json.loads(json.dumps(result_to_obj(extract(g, config))))
    assert load_and_decode(obj) == g
    sections = set()
    counts = [0, 0, 0, 0]
    for path in mutants(obj):
        outcome = load_and_decode(obj)
        if outcome is ArtifactInvalid:
            counts[0] += 1
        elif outcome is CorruptRecord:
            counts[1] += 1
        else:
            assert isinstance(outcome, DiGraph)
            counts[2 if outcome == g else 3] += 1
        sections.add(path[0])
    assert sections == set(obj) - {"manifest"}
    assert tuple(counts) == FUZZ_OUTCOMES[case]
    assert load_and_decode(obj) == g
