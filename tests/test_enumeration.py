import math
import random
from unittest import mock

import pytest

from conftest import brute_connected_sets, filled_index, random_digraph
from vrgc import enumeration
from vrgc.enumeration import (
    ConfigInvalid,
    EnumState,
    ExtractConfig,
    enumerate_connected_sets,
    extension_slack,
    update_after_extraction,
)
from vrgc.graphs import DiGraph
from vrgc.mdl import analyze_set
from vrgc.rules import canonical_code


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ExtractConfig(k_min=1)
    with pytest.raises(ConfigInvalid):
        ExtractConfig(k_max=9)
    with pytest.raises(ConfigInvalid):
        ExtractConfig(k_min=4, k_max=3)
    with pytest.raises(ConfigInvalid):
        ExtractConfig(shortcut_s=-1)


def test_extension_slack_disabled_always_extends():
    cfg = ExtractConfig(k_min=2, k_max=8, shortcut_s=None)
    slack = extension_slack(cfg)
    assert slack == [math.inf] * 8
    assert 10_000 <= 0 + slack[2]


def test_extension_slack_bound_values(demo6):
    cfg = ExtractConfig(k_min=2, k_max=7, shortcut_s=1)
    slack = extension_slack(cfg)
    # k=6: remaining 1, slack = min(2, 1 + ceil(ln 1)) = 1
    assert slack[6] == 1
    # k=2: remaining 5, slack = min(6, 1 + ceil(ln 5)) = 3
    assert slack[2] == 3
    # unknown best cost: an empty index's c_best is infinite, so any set extends
    c_best = EnumState(demo6, cfg).c_best()
    assert c_best == math.inf
    assert 50 <= c_best + slack[2]


def test_demo6_pairs(demo6):
    cfg = ExtractConfig(k_min=2, k_max=2, shortcut_s=None)
    got = set(enumerate_connected_sets(EnumState(demo6, cfg)))
    assert got == {(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5)}


def test_demo6_triples(demo6):
    cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=None)
    got = set(enumerate_connected_sets(EnumState(demo6, cfg)))
    triples = {t for t in got if len(t) == 3}
    assert triples == {
        (0, 1, 2),
        (0, 1, 3),
        (1, 2, 3),
        (1, 3, 4),
        (1, 3, 5),
        (2, 3, 4),
        (2, 3, 5),
        (3, 4, 5),
    }
    assert len(got) == 14


def test_no_duplicates_and_oracle_small():
    rng = random.Random(17)
    for _ in range(25):
        g = random_digraph(rng, rng.randrange(4, 11), rng.randrange(4, 22))
        cfg = ExtractConfig(k_min=2, k_max=4, shortcut_s=None)
        emitted = list(enumerate_connected_sets(EnumState(g, cfg)))
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == brute_connected_sets(g, 2, 4)


def test_restricted_roots_cover_exactly(demo6):
    """A search from several roots emits each set that holds an active
    root exactly once.  The random cases include a root freed by a
    ``collapse``, as ``update_after_extraction`` passes freed ids."""
    cfg = ExtractConfig(k_min=2, k_max=4, shortcut_s=None)
    cases = [(demo6, {3})]
    rng = random.Random(29)
    for _ in range(30):
        g = random_digraph(rng, rng.randrange(5, 11), rng.randrange(6, 24))
        roots = set(rng.sample(sorted(g.active), 3))
        edges = sorted((u, v) for u in g.active for v in g.out_adj[u])
        if edges:
            u, v = rng.choice(edges)
            g.collapse({u, v})
            roots.add(max(u, v))
        cases.append((g, roots))
    for g, roots in cases:
        got = list(enumerate_connected_sets(EnumState(g, cfg), roots))
        assert len(got) == len(set(got))
        live = roots & g.active
        assert set(got) == {t for t in brute_connected_sets(g, 2, 4) if live.intersection(t)}


def test_pruning_only_drops_supersets(demo6):
    """With the heuristic on, everything emitted is a real connected set
    and the cheapest sets always survive."""
    cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=0)
    got = set(enumerate_connected_sets(EnumState(demo6, cfg)))
    everything = brute_connected_sets(demo6, 2, 3)
    assert got <= everything
    assert {t for t in got if len(t) == 2} == {t for t in everything if len(t) == 2}


def test_state_bookkeeping(demo6):
    """Collapsing d and f changes the adjacency of d and f alone: b, c and
    e are tied only to d, the survivor.  ``remove_touching`` takes the
    entries holding d or f out of ``entries``, the cost counts, the tables
    and ``by_node``, and marks their codes dirty; ``(0, 1)`` and ``(1, 2)``
    stay as they were.  The search from d and f analyses the sets that
    hold d, and the index ends as a fresh one on the collapsed graph."""
    cfg = ExtractConfig(k_min=2, k_max=2, shortcut_s=None)
    state = filled_index(demo6, cfg)
    assert len(state.entries) == 6
    assert state.c_best() == 0
    costs = sorted(e.cost for e in state.entries.values())
    assert costs == [0, 0, 0, 0, 1, 2]
    before = dict(state.entries)
    demo6.collapse({3, 5})
    changed = {3, 5}
    state.dirty.clear()
    state.remove_touching(changed)
    kept = {(0, 1), (1, 2)}
    assert state.entries == {t: before[t] for t in kept}
    assert all(state.entries[t] is before[t] for t in kept)
    assert state.c_best() == min(before[t].cost for t in kept)
    assert {t for levels in state.tables.values() for sets in levels.values() for t in sets} == kept
    assert state.dirty == {code for t in before if t not in kept for code in before[t].codes}
    assert [sorted(sets) for sets in state.by_node] == [
        [(0, 1)], [(0, 1), (1, 2)], [(1, 2)], [], [], []
    ]
    analysed = []

    def recording(graph, nodes):
        analysed.append(nodes)
        return analyze_set(graph, nodes)

    with mock.patch.object(enumeration, "analyze_set", recording):
        for _ in enumerate_connected_sets(state, changed):
            pass
    assert sorted(analysed) == [(1, 3), (2, 3), (3, 4)]
    assert all(state.entries[t] is before[t] for t in kept)
    fresh = filled_index(demo6, cfg)
    assert state.tables == fresh.tables
    assert {t: (e.cost, e.codes) for t, e in state.entries.items()} == {
        t: (e.cost, e.codes) for t, e in fresh.entries.items()
    }
    assert [sorted(sets) for sets in state.by_node] == [
        [(0, 1)], [(0, 1), (1, 2), (1, 3)], [(1, 2), (2, 3)], [(1, 3), (2, 3), (3, 4)], [(3, 4)], []
    ]


def test_shape_in_a_second_position_order_reuses_its_codes():
    """A transitive triangle fed by two externals and feeding one has two
    minimizing in-masks, so two codes.  A copy with its second and third
    nodes swapped reads other rows and masks in sorted-id positions, so it
    misses ``codes_of``; its masks, moved onto the canonical positions,
    come out in the same order, so ``codes_of_shape`` answers it without a
    mask-pair lookup, with the codes a fresh index gives it, in order."""
    base = [(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (2, 5)]
    label = [0, 2, 1, 3, 4, 5]
    graph = DiGraph.from_edges(12, base + [(6 + label[u], 6 + label[v]) for u, v in base])
    config = ExtractConfig(k_min=3, k_max=3, shortcut_s=None)
    state = EnumState(graph, config)
    state.register((0, 1, 2))
    with mock.patch.object(
        enumeration, "canonical_code", autospec=True, side_effect=canonical_code
    ) as lookup:
        state.register((6, 7, 8))
    assert lookup.call_count == 0
    assert len(state.codes_of) == 2
    assert len(state.codes_of_shape) == 1
    fresh = EnumState(graph, config)
    fresh.register((6, 7, 8))
    assert len(fresh.entries[(6, 7, 8)].codes) == 2
    assert state.entries[(6, 7, 8)].codes == fresh.entries[(6, 7, 8)].codes


def test_incremental_update_matches_scratch(demo6):
    """Dropping and re-registering around every extraction must equal a
    fresh index on the mutated graph.  On ``gen_er(10, 20, 1)`` the third
    extraction changes sets that hold neighbours of the survivor but not
    the survivor itself, such as ``(4, 5)``."""
    from vrgc.engine import extract_one, select_best
    from vrgc.synth import gen_er

    cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=None)
    for g in (demo6, gen_er(10, 20, 1)):
        state = filled_index(g, cfg)
        while (choice := select_best(state)) is not None:
            _, changed = extract_one(g, choice)
            state.library.record_extraction(choice.rule_id)
            update_after_extraction(state, changed)
            fresh = filled_index(g, cfg)
            assert {t: e.cost for t, e in state.entries.items()} == {
                t: e.cost for t, e in fresh.entries.items()
            }
            for t, entry in state.entries.items():
                assert entry.codes == fresh.entries[t].codes


@pytest.mark.parametrize("shortcut_s", [1, None], ids=["shortcut", "exhaustive"])
@pytest.mark.parametrize("name", ["demo6_k3", "binary_tree_31_k5", "ring_lattice_12_4_k6"])
def test_search_yields_what_it_registers(demo6, name, shortcut_s):
    """The search hands off exactly the sets it registers, each once and
    in registration order: on a fresh index, the index's entries; after
    each extraction, the search from ``changed`` yields exactly the
    entries it adds.  The initial enumeration's count and the emitted-set
    tests read this hand-off."""
    from vrgc.engine import extract_one, select_best
    from vrgc.synth import gen_binary_tree, gen_ring_lattice

    graph, k_max = {
        "demo6_k3": (demo6, 3),
        "binary_tree_31_k5": (gen_binary_tree(31), 5),
        "ring_lattice_12_4_k6": (gen_ring_lattice(12, 4), 6),
    }[name]
    state = EnumState(graph, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut_s))
    found = list(enumerate_connected_sets(state))
    assert found == list(state.entries)
    extractions = 0
    while (choice := select_best(state)) is not None:
        _, changed = extract_one(graph, choice)
        state.library.record_extraction(choice.rule_id)
        state.remove_touching(changed)
        kept = set(state.entries)
        found = list(enumerate_connected_sets(state, changed))
        assert found == [t for t in state.entries if t not in kept]
        extractions += 1
    assert extractions > 1
