import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NOutOfRange,
    brute_connected_sets,
    cost_of_n,
    naive_set_read,
    random_digraph,
    random_levels,
)
from vrgc.mdl import (
    BitParams,
    _side_minima,
    analyze_set,
    b_application,
    b_graph,
    b_rule,
    boundary_edits,
    ceil_log2,
    default_params,
    pcr,
)
from vrgc.rules import canonical_code, check_codes, code_edges


def edit_cost(graph, nodes, i_mask, o_mask):
    """Edit count and edit list making ``nodes`` an exact occurrence of
    the mask pair."""
    edits = boundary_edits(analyze_set(graph, nodes), i_mask, o_mask)
    return len(edits), edits


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_analyze_set_patterns(demo6):
    analysis = analyze_set(demo6, (2, 3))
    assert sorted(analysis.in_pats.items()) == [(1, 0b11), (4, 0b10)]
    assert sorted(analysis.out_pats.items()) == [(5, 0b10)]
    assert analysis.adj == (0b10, 0)


def test_analyze_set_fragment(demo6):
    adj = analyze_set(demo6, (1, 2, 3)).adj
    check_codes([canonical_code(3, adj, 0b001, 0b100)])
    assert sorted(code_edges(bytes((3, 0b001, 0b100, *adj)))) == [(0, 1), (0, 2), (1, 2)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_analyze_set_reads_like_naive_oracle(seed):
    """Adjacency rows and boundary patterns from the one-walk reader equal
    a set-based computation, for members in any order, connected or not."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    g = random_digraph(rng, n, rng.randrange(0, 3 * n))
    for _ in range(5):
        nodes = tuple(rng.sample(range(n), rng.randrange(1, min(n, 6) + 1)))
        analysis = analyze_set(g, nodes)
        assert (
            analysis.adj, sorted(analysis.in_pats.items()), sorted(analysis.out_pats.items())
        ) == naive_set_read(g, nodes)


# Minimum edit costs of the worked example's six pair sets.
DEMO6_PAIR_COSTS = {
    (0, 1): 0,
    (1, 2): 0,
    (1, 3): 2,
    (2, 3): 1,
    (3, 4): 0,
    (3, 5): 0,
}


def test_demo6_pair_costs(demo6):
    for nodes, want in DEMO6_PAIR_COSTS.items():
        assert analyze_set(demo6, nodes).cost == want, nodes


def test_demo6_head_rule_match(demo6):
    """The two-node rule whose head inherits both boundary sides matches
    (2,3) at cost 1: external 1 is rewired by deleting its edge into 2."""
    cost, edits = edit_cost(demo6, (2, 3), 0b10, 0b10)
    assert cost == 1
    assert edits == [(0, 1, "in")]
    assert demo6.has_edge(1, 2)  # the toggle deletes
    # with both positions marked on the in-side, the tie at external 4
    # resolves to detaching it
    cost2, edits2 = edit_cost(demo6, (2, 3), 0b11, 0b10)
    assert cost2 == 1
    assert edits2 == [(1, 4, "in")]
    assert demo6.has_edge(4, 3)


def test_deletion_preferred_on_ties(demo6):
    # External 4 has one boundary edge into (2,3), at position 1; detaching
    # it costs 1 and rewiring it to mask 0b01 costs 2, so the edit must be
    # the deletion.  The tie itself is in test_demo6_head_rule_match.
    cost, edits = edit_cost(demo6, (2, 3), 0b01, 0b10)
    external_4 = [e for e in edits if e[1] == 4]
    assert external_4 == [(1, 4, "in")]
    assert demo6.has_edge(4, 3)  # so the one toggle of external 4 deletes


def test_side_minima_without_patterns_keeps_every_mask():
    # With no externals every mask costs 0, so every mask is a minimiser.
    for k in range(2, 9):
        assert _side_minima((), k) == (0, tuple(range(1 << k)))


def brute_min_cost(graph, nodes, i_mask, o_mask):
    """Independent oracle: per external, best of reaching mask or empty."""
    _, in_pats, out_pats = naive_set_read(graph, nodes)
    total = 0
    for pats, mask in ((in_pats, i_mask), (out_pats, o_mask)):
        for _, pat in pats:
            total += min(
                bin(pat ^ target).count("1") for target in (0, mask)
            )
    return total


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_edit_cost_matches_oracle(seed):
    rng = random.Random(seed)
    g = random_digraph(rng, 6, rng.randrange(4, 18))
    for nodes in brute_connected_sets(g, 2, 3):
        k = len(nodes)
        for i_mask in range(1 << k):
            for o_mask in range(1 << k):
                cost, edits = edit_cost(g, nodes, i_mask, o_mask)
                assert cost == len(edits)
                assert cost == brute_min_cost(g, nodes, i_mask, o_mask)
        analysis = analyze_set(g, nodes)
        exhaustive = min(
            brute_min_cost(g, nodes, i, o)
            for i in range(1 << k)
            for o in range(1 << k)
        )
        assert analysis.cost == exhaustive


def best_candidates(graph, nodes):
    """Every minimum-cost ((k, adj, i_mask, o_mask), edits) pair of a node
    set, ties all kept."""
    ordered = tuple(sorted(nodes))
    analysis = analyze_set(graph, ordered)
    out = []
    for i_mask, o_mask in product(analysis.i_masks, analysis.o_masks):
        edits = boundary_edits(analysis, i_mask, o_mask)
        assert len(edits) == analysis.cost
        out.append(((len(ordered), analysis.adj, i_mask, o_mask), edits))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_edits_produce_exact_occurrence(seed):
    """After applying the edit list, every external's boundary pattern is
    either empty or exactly the mask."""
    rng = random.Random(seed)
    g = random_digraph(rng, 6, rng.randrange(4, 18))
    sets = sorted(brute_connected_sets(g, 2, 3))
    if not sets:
        return
    nodes = sets[rng.randrange(len(sets))]
    for (_, _, i_mask, o_mask), edits in best_candidates(g, nodes):
        edited = g.copy()
        for p, external, direction in edits:
            if direction == "in":
                edited.toggle_edge(external, nodes[p])
            else:
                edited.toggle_edge(nodes[p], external)
        _, in_pats, out_pats = naive_set_read(edited, nodes)
        for _, pat in in_pats:
            assert pat == i_mask
        for _, pat in out_pats:
            assert pat == o_mask


def table_for_tests():
    """The worked example's winning pair rule: occurrences at costs {0,0,1,2}."""
    return {0: {(0, 1), (1, 2)}, 1: {(2, 3)}, 2: {(1, 3)}}


def test_cost_of_n_and_nodes_of_n():
    params = BitParams(C_R=12, C_ID=3, C_node=5, C_edit=5)
    table = table_for_tests()
    assert cost_of_n(table, params, 1) == 12 + 3 + 5
    assert cost_of_n(table, params, 2) == 12 + 3 + 10
    assert cost_of_n(table, params, 3) == 12 + 3 + 15 + 5
    assert cost_of_n(table, params, 4) == 12 + 3 + 20 + 5 + 10
    # the best prefix is three extractions, which remove three 2-node sets
    assert pcr(table, 2, params) == (3 * 2, cost_of_n(table, params, 3))
    with pytest.raises(NOutOfRange):
        cost_of_n(table, params, 0)
    with pytest.raises(NOutOfRange):
        cost_of_n(table, params, 5)


def test_pcr_demo6_value():
    """Hand-checked prediction for the worked example's winning rule."""
    params = BitParams(C_R=12, C_ID=3, C_node=5, C_edit=5)
    assert pcr(table_for_tests(), 2, params) == (6, 35)


def test_pcr_prefix_equals_exhaustive():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randrange(2, 9)
        table = random_levels(rng, k)
        params = BitParams(
            C_R=rng.randrange(0, 40),
            C_ID=rng.randrange(1, 12),
            C_node=rng.randrange(1, 12),
            C_edit=rng.randrange(1, 12),
        )
        total = sum(len(sets) for sets in table.values())
        exhaustive = max(
            Fraction(n * k, cost_of_n(table, params, n)) for n in range(1, total + 1)
        )
        assert Fraction(*pcr(table, k, params)) == exhaustive


def test_bit_formula_spot_checks():
    assert b_graph(6, 6) == 35
    assert b_graph(1, 0) == 1
    assert b_graph(0, 0) == 0
    assert b_rule(2, 6) == 12
    assert b_application(2, 1, 6, same_rule_as_previous=True) == 10
    assert b_application(2, 1, 6, same_rule_as_previous=False) == 13


def test_default_params_alignment():
    p = default_params(2, 6, rule_already_defined=False)
    assert p == BitParams(C_R=12, C_ID=3, C_node=5, C_edit=5)
    assert default_params(2, 6, rule_already_defined=True).C_R == 0


@pytest.mark.parametrize("defined", [False, True])
def test_default_params_match_hand_written_widths(defined):
    """The parameters read off ``b_rule`` and ``b_application`` equal the
    field widths they were once written out as."""

    def hand_written(k, n0, defined):
        width = ceil_log2(n0)
        return BitParams(
            C_R=0 if defined else ceil_log2(n0) + k * (ceil_log2(k) + 2) + k * (k - 1) + 1,
            C_ID=width,
            C_node=width + 2,
            C_edit=ceil_log2(k) + width + 1,
        )

    for k in range(2, 9):
        for n0 in (k, 6, 63, 64, 65, 1000, 1 << 20):
            assert default_params(k, n0, defined) == hand_written(k, n0, defined)
