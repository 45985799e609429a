"""Incremental rule selection, the incremental occurrence index and set
registration, each checked against a full-recomputation oracle at every
iteration of a real extraction on small random ER graphs."""

import random
from fractions import Fraction
from itertools import product
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import filled_index, naive_set_read
from vrgc import engine
from vrgc.enumeration import EnumState, ExtractConfig, enumerate_connected_sets
from vrgc.graphs import DiGraph
from vrgc.mdl import analyze_set, boundary_edits, default_params, pcr
from vrgc.rules import canonical_code, canonical_form, check_codes
from vrgc.synth import gen_binary_tree, gen_er, gen_ring_lattice


@st.composite
def small_graphs(draw):
    """A uniform graph, binary tree or ring lattice of 4 to 10 nodes."""
    kind = draw(st.sampled_from(["er", "bintree", "ringlat"]))
    n = draw(st.integers(4, 10))
    if kind == "bintree":
        return gen_binary_tree(n)
    if kind == "ringlat":
        return gen_ring_lattice(n + 1, draw(st.sampled_from([2, 4])))
    return gen_er(n, draw(st.integers(n - 1, 2 * n)), draw(st.integers(0, 10_000)))


def full_scan_select(state):
    """Reference selection: every known rule code is scored on every call,
    ordered by (-value, min cost, k, rule id), then the smallest node set
    among the winner's cheapest occurrences.  Returns the winner's rule id,
    node set and cost, and its value as a normalised fraction."""
    library, n0 = state.library, state.graph.n0
    best = None
    for code, levels in state.tables.items():
        rid = library.index[code]
        k = code[0]
        assert all(len(t) == k for sets in levels.values() for t in sets)
        params = default_params(k, n0, library.frequency[rid] > 0)
        value = Fraction(*pcr(levels, k, params))
        cost = min(levels)
        key = (-value, cost, k, rid)
        if best is None or key < best[0]:
            best = (key, min(levels[cost]))
    if best is None:
        return None
    (value, cost, _, rid), nodes = best
    return rid, nodes, cost, -value


def snapshot(state):
    entries = {t: (e.cost, e.codes) for t, e in state.entries.items()}
    return entries, state.tables, state.c_best()


small_er = st.tuples(
    st.integers(2, 12), st.integers(0, 36), st.integers(0, 10_000)
).map(lambda a: gen_er(a[0], min(a[1], a[0] * (a[0] - 1)), a[2]))


@settings(max_examples=60, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4), shortcut=st.sampled_from([1, None]))
def test_incremental_selection_matches_full_scan(g, k_max, shortcut):
    real = engine.select_best
    calls = []

    def checked(state):
        expected = full_scan_select(state)
        got = real(state)
        if expected is None:
            assert got is None
        else:
            key = state.keys[got.code]
            value = Fraction(key.nodes, key.bits)
            assert (got.rule_id, got.nodes, got.cost, value) == expected
        calls.append(got)
        return got

    with mock.patch.object(engine, "select_best", checked):
        res = engine.extract(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut))
    assert len(calls) == res.iterations + 1
    assert calls[-1] is None
    assert engine.decode(res) == g


@settings(max_examples=40, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4))
@example(g=gen_ring_lattice(16, 4), k_max=6)
@example(g=gen_er(12, 30, 2), k_max=6)
@example(g=gen_er(10, 20, 1), k_max=8)
def test_incremental_index_matches_rebuild(g, k_max):
    """With the shortcut off, the index after every extraction equals one
    rebuilt afresh on the mutated graph: entries, the cost and codes of
    each entry, the per-code tables and the cheapest cost."""
    config = ExtractConfig(k_min=2, k_max=k_max, shortcut_s=None)
    real = engine.update_after_extraction
    updates = []

    def checked(state, changed):
        out = real(state, changed)
        assert snapshot(state) == snapshot(filled_index(state.graph, config))
        updates.append(len(state.entries))
        return out

    with mock.patch.object(engine, "update_after_extraction", checked):
        res = engine.extract(g, config)
    assert len(updates) == res.iterations


class DropAllIndex(EnumState):
    """The update by a scan: every entry holding a changed node leaves the
    index, found by scanning ``entries`` rather than ``by_node``, and the
    search from the changed nodes registers each set it reaches afresh."""

    def update(self, changed):
        for t in [t for t in self.entries if not changed.isdisjoint(t)]:
            entry = self.entries.pop(t)
            self._cost_counts[entry.cost] -= 1
            if not self._cost_counts[entry.cost]:
                del self._cost_counts[entry.cost]
            for code in entry.codes:
                levels = self.tables[code]
                levels[entry.cost].discard(t)
                if not levels[entry.cost]:
                    del levels[entry.cost]
                if not levels:
                    del self.tables[code]
        for _ in enumerate_connected_sets(self, changed):
            pass


def check_against_drop_all(g, config):
    """Extract ``g``, updating a ``DropAllIndex`` on the same graph beside
    the real index, and compare the two after every extraction; the real
    index's ``by_node`` lists must hold each indexed set once under each of
    its nodes.  Every entry holding no changed node must survive the
    update as the same object.  Returns how many such entries the updates
    kept and how many sets they analysed afresh."""
    oracles = []
    kept = analysed = 0

    def make_state(graph, config):
        oracle = DropAllIndex(graph, config)
        for _ in enumerate_connected_sets(oracle):
            pass
        oracles.append(oracle)
        return EnumState(graph, config)

    real = engine.update_after_extraction

    def checked(state, changed):
        nonlocal kept, analysed
        untouched = {t: e for t, e in state.entries.items() if changed.isdisjoint(t)}
        real(state, changed)
        oracles[0].update(changed)
        assert snapshot(state) == snapshot(oracles[0])
        listed = [(v, t) for v, sets in enumerate(state.by_node) for t in sets]
        assert sorted(listed) == sorted((v, t) for t in state.entries for v in t)
        assert state.library.codes == oracles[0].library.codes
        assert all(state.entries[t] is entry for t, entry in untouched.items())
        kept += len(untouched)
        analysed += len(state.entries) - len(untouched)

    with (
        mock.patch.object(engine, "EnumState", make_state),
        mock.patch.object(engine, "update_after_extraction", checked),
    ):
        res = engine.extract(g, config)
    assert engine.decode(res) == g
    return kept, analysed


@settings(max_examples=60, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4), shortcut=st.sampled_from([0, 1, None]))
@example(g=gen_er(5, 5, 3), k_max=3, shortcut=1)
def test_suspended_update_matches_drop_all(g, k_max, shortcut):
    """After every extraction, with the shortcut on or off, the index the
    update leaves through ``by_node`` equals the one a scan of every entry
    leaves: entries, their costs and codes, the tables, the cheapest cost
    and the library's codes in order.  In the explicit example a set with
    a changed node comes back with its cost and masks but other adjacency
    rows, so codes looked up by its masks alone would be stale."""
    check_against_drop_all(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut))


def test_suspended_update_keeps_and_rebuilds_on_a_tree():
    """On a 127-node binary tree at k 2..5 with the shortcut on, every
    entry holding no changed node survives each update as the same object,
    at least one such entry exists, at least one set is analysed afresh,
    and the index matches the oracle."""
    kept, analysed = check_against_drop_all(
        gen_binary_tree(127), ExtractConfig(k_min=2, k_max=5, shortcut_s=1)
    )
    assert kept > 0 and analysed > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=small_graphs(), k_max=st.integers(2, 8), shortcut=st.sampled_from([0, 1, None]))
@example(g=gen_er(10, 20, 2), k_max=8, shortcut=None)
@example(g=gen_binary_tree(10), k_max=8, shortcut=1)
@example(g=gen_ring_lattice(11, 4), k_max=8, shortcut=0)
def test_changed_holds_every_node_whose_adjacency_changed(g, k_max, shortcut):
    """The update revisits only the sets that hold a node of ``changed``,
    so every node whose in- or out-adjacency an extraction changes must be
    in ``changed``; and ``changed`` lies within the extracted set and its
    neighbours before the extraction."""
    real = engine.extract_one
    calls = []

    def checked(graph, choice):
        before = {v: (set(graph.in_adj[v]), set(graph.out_adj[v])) for v in graph.active}
        near = set(choice.nodes).union(*(graph.neighbors(v) for v in choice.nodes))
        record, changed = real(graph, choice)
        differ = {v for v, adj in before.items() if adj != (graph.in_adj[v], graph.out_adj[v])}
        assert differ <= changed <= near
        calls.append(choice)
        return record, changed

    with mock.patch.object(engine, "extract_one", checked):
        res = engine.extract(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut))
    assert len(calls) == res.iterations


def first_pairs(graph, nodes):
    """Each canonical code of a set's validated minimum-cost rules, built one
    per mask pair, mapped to the first mask pair that gives it."""
    first = {}
    adj = naive_set_read(graph, nodes)[0]
    analysis = analyze_set(graph, nodes)
    for i_mask, o_mask in product(analysis.i_masks, analysis.o_masks):
        code = canonical_code(len(nodes), adj, i_mask, o_mask)
        check_codes([code])
        first.setdefault(code, (i_mask, o_mask))
    return first


def assert_registered_like_oracle(state, graph):
    """Every entry's codes are the oracle's codes, in first-seen order."""
    for nodes, entry in state.entries.items():
        assert entry.codes == tuple(first_pairs(graph, nodes))


def expected_record(graph, choice):
    """The record of a choice, read off the first mask pair that gives the
    chosen code: node ids in that pair's canonical order, and its edits."""
    nodes = choice.nodes
    i_mask, o_mask = first_pairs(graph, nodes)[choice.code]
    _, perm = canonical_form(len(nodes), naive_set_read(graph, nodes)[0], i_mask, o_mask)
    pos = {old: new for new, old in enumerate(perm)}
    edits = boundary_edits(analyze_set(graph, nodes), i_mask, o_mask)
    return engine.ApplicationRecord(
        choice.rule_id,
        tuple(nodes[old] for old in perm),
        tuple((pos[p], external, d) for p, external, d in edits),
    )


def relabelled(graph, seed):
    """``graph`` with its node ids shuffled by ``seed``."""
    label = list(range(graph.n0))
    random.Random(seed).shuffle(label)
    return DiGraph.from_edges(graph.n0, ((label[u], label[v]) for u, v in graph.edges()))


@settings(max_examples=40, deadline=None)
@given(g=small_er, k_max=st.integers(2, 4), shortcut=st.sampled_from([1, None]))
@example(g=relabelled(gen_er(12, 30, 1), 8), k_max=2, shortcut=1)
@example(g=relabelled(gen_binary_tree(15), 9), k_max=3, shortcut=None)
@example(g=relabelled(gen_ring_lattice(12, 4), 1), k_max=5, shortcut=None)
@example(g=relabelled(gen_binary_tree(15), 2), k_max=5, shortcut=1)
@example(g=relabelled(gen_ring_lattice(11, 4), 3), k_max=6, shortcut=1)
@example(g=relabelled(gen_binary_tree(12), 4), k_max=6, shortcut=None)
@example(g=relabelled(gen_ring_lattice(9, 4), 5), k_max=7, shortcut=None)
@example(g=relabelled(gen_binary_tree(15), 2), k_max=7, shortcut=1)
@example(g=relabelled(gen_ring_lattice(9, 4), 7), k_max=8, shortcut=1)
@example(g=relabelled(gen_binary_tree(11), 6), k_max=8, shortcut=None)
def test_registration_matches_rule_oracle(g, k_max, shortcut):
    """Registration matches the oracle after every extraction, and every
    record follows the first mask pair that gives its rule's code.  The
    explicit examples are a relabelled uniform graph, ring lattices and
    binary trees with ``k_max`` 2 to 8, whose fragments of every size
    registration looks up on their canonical rows.  The changed nodes
    ``extract_one`` hands to the update are the record's node ids, the
    edits' externals and every external tied to a member other than the
    survivor before the extraction."""
    config = ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut)
    assert_registered_like_oracle(filled_index(g, config), g)

    real, real_extract = engine.update_after_extraction, engine.extract_one
    updates = []

    def checked(state, changed):
        out = real(state, changed)
        assert_registered_like_oracle(state, state.graph)
        updates.append(len(state.entries))
        return out

    def checked_extract(graph, choice):
        expected = expected_record(graph, choice)
        survivor = min(choice.nodes)
        tied_elsewhere = {
            x for v in choice.nodes if v != survivor for x in graph.neighbors(v)
        } - set(choice.nodes)
        record, changed = real_extract(graph, choice)
        assert record == expected
        externals = {e for _, e, _ in record.edits}
        assert changed == set(record.node_ids) | externals | tied_elsewhere
        return record, changed

    with (
        mock.patch.object(engine, "update_after_extraction", checked),
        mock.patch.object(engine, "extract_one", checked_extract),
    ):
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
    """Cross-multiplied keys sort like (-value, min cost, k, rule id), also
    when equal values are given by unreduced terms."""
    keys = [
        engine._Key(v.numerator * (rid + 1), v.denominator * (rid + 1), c, k, rid, b"")
        for rid, (v, c, k) in enumerate(items)
    ]
    assert sorted(keys) == sorted(
        keys, key=lambda x: (-Fraction(x.nodes, x.bits), x.cost, x.k, x.rid)
    )
