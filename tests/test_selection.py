"""Incremental rule selection, the incremental occurrence index and set
registration, each checked against a full-recomputation oracle at every
iteration of a real extraction on small random ER graphs."""

from dataclasses import astuple
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from vrgc import engine
from vrgc.enumeration import EnumState, ExtractConfig, enumerate_connected_sets
from vrgc.mdl import CostLevel, analyze_set, default_params, pcr
from vrgc.rules import RuleLibrary, canonical_code, from_node_set
from vrgc.synth import gen_er


def full_scan_select(state, library, n0):
    """Reference selection: every known rule code is scored on every call,
    ordered by (-value, min cost, k, rule id), then the smallest node set
    among the winner's cheapest occurrences."""
    best = None
    for code, levels in state.tables.items():
        rid = library.index[code]
        k = code[0]
        params = default_params(k, n0, library.frequency[rid] > 0)
        table = [
            CostLevel(c, len(levels[c]), sum(len(t) for t in levels[c]))
            for c in sorted(levels)
        ]
        value, _ = pcr(table, params)
        key = (-value, table[0].c, k, rid)
        if best is None or key < best[0]:
            best = (key, code, value, min(levels[table[0].c]))
    if best is None:
        return None
    (_, cost, _, rid), code, value, nodes = best
    entry = state.entries[nodes]
    pair = entry.pairs[entry.codes.index(code)]
    return rid, nodes, pair, cost, value


def snapshot(state):
    entries = {
        t: (e.cost, dict(zip(e.codes, e.pairs))) for t, e in state.entries.items()
    }
    return entries, state.tables, state.c_best()


def fresh_index(graph, config):
    state = EnumState()
    library = RuleLibrary()
    probe = lambda nodes: state.register(graph, nodes, library)
    for _ in enumerate_connected_sets(graph, config, cost_probe=probe):
        pass
    return state


small_er = st.tuples(
    st.integers(2, 12), st.integers(0, 36), st.integers(0, 10_000)
).map(lambda a: gen_er(a[0], min(a[1], a[0] * (a[0] - 1)), a[2]))


@settings(max_examples=60, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4), shortcut=st.sampled_from([1, None]))
def test_incremental_selection_matches_full_scan(g, k_max, shortcut):
    real = engine.select_best
    calls = []

    def checked(state, library, n0):
        expected = full_scan_select(state, library, n0)
        got = real(state, library, n0)
        if expected is None:
            assert got is None
        else:
            assert (got.rule_id, got.nodes, got.pair, got.cost, got.value) == expected
            assert isinstance(got.value, Fraction)
        calls.append(got)
        return got

    with mock.patch.object(engine, "select_best", checked):
        res = engine.extract(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut))
    assert len(calls) == res.iterations + 1
    assert calls[-1] is None
    assert engine.decode(res) == g


@settings(max_examples=40, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4))
def test_incremental_index_matches_rebuild(g, k_max):
    """With the shortcut off, the index after every extraction equals one
    rebuilt afresh on the mutated graph: entries, the codes (and mask
    pairs) of each entry, the per-code tables and the cheapest cost."""
    config = ExtractConfig(k_min=2, k_max=k_max, shortcut_s=None)
    real = engine.update_after_extraction
    updates = []

    def checked(state, graph, affected, cfg, library):
        out = real(state, graph, affected, cfg, library)
        assert snapshot(state) == snapshot(fresh_index(graph, cfg))
        updates.append(len(state))
        return out

    with mock.patch.object(engine, "update_after_extraction", checked):
        res = engine.extract(g, config)
    assert len(updates) == res.iterations


def assert_registered_like_oracle(state, graph):
    """Every entry's codes are the canonical codes of validated rules built
    one per minimum-cost mask pair, in first-seen order, and its pairs are
    the first pair seen for each code."""
    for nodes, entry in state.entries.items():
        first = {}
        for i_mask, o_mask in analyze_set(graph, nodes).mask_pairs():
            rule = from_node_set(graph, nodes, i_mask, o_mask)
            first.setdefault(canonical_code(*astuple(rule)), (i_mask, o_mask))
        assert entry.codes == list(first)
        assert entry.pairs == list(first.values())


@settings(max_examples=40, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4), shortcut=st.sampled_from([1, None]))
def test_registration_matches_rule_oracle(g, k_max, shortcut):
    config = ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut)
    state = EnumState()
    library = RuleLibrary()
    probe = lambda nodes: state.register(g, nodes, library)
    for _ in enumerate_connected_sets(g, config, cost_probe=probe):
        pass
    assert_registered_like_oracle(state, g)

    real = engine.update_after_extraction
    updates = []

    def checked(state, graph, affected, cfg, library):
        out = real(state, graph, affected, cfg, library)
        assert_registered_like_oracle(state, graph)
        updates.append(len(state))
        return out

    with mock.patch.object(engine, "update_after_extraction", checked):
        res = engine.extract(g, config)
    assert len(updates) == res.iterations


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=2, max_denominator=4),
            st.integers(0, 3),
            st.integers(2, 4),
        ),
        min_size=2,
        max_size=10,
    )
)
def test_key_order_matches_tuple_order(items):
    """Cross-multiplied keys sort like (-value, min cost, k, rule id)."""
    keys = [engine._Key(v, c, k, rid, b"") for rid, (v, c, k) in enumerate(items)]
    assert sorted(keys) == sorted(keys, key=lambda x: (-x.value, x.cost, x.k, x.rid))
