import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_connected_sets, random_digraph
from vrgc.graphs import EditKind
from vrgc.mdl import (
    BitParams,
    CostLevel,
    NOutOfRange,
    analyze_set,
    b_application,
    b_graph,
    b_rule,
    boundary_patterns,
    ceil_log2,
    cost_of_n,
    default_params,
    edit_cost,
    nodes_of_n,
    pcr,
)
from vrgc.rules import from_node_set


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_boundary_patterns(demo6):
    in_pats, out_pats = boundary_patterns(demo6, (2, 3))
    assert in_pats == [(1, 0b11), (4, 0b10)]
    assert out_pats == [(5, 0b10)]


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
    assert len(edits) == 1
    assert (edits[0].src, edits[0].dst, edits[0].kind) == (1, 2, EditKind.DELETE)
    # with both positions marked on the in-side, the tie at external 4
    # resolves to detaching it
    cost2, edits2 = edit_cost(demo6, (2, 3), 0b11, 0b10)
    assert cost2 == 1
    assert (edits2[0].src, edits2[0].dst, edits2[0].kind) == (4, 3, EditKind.DELETE)


def test_deletion_preferred_on_ties(demo6):
    # External 4 has one boundary edge into (2,3); rewiring to mask 0b01
    # and detaching both cost 1, so the edit must be the deletion.
    cost, edits = edit_cost(demo6, (2, 3), 0b01, 0b10)
    dels = [e for e in edits if e.kind is EditKind.DELETE]
    assert any((e.src, e.dst) == (4, 3) for e in dels)
    assert not any(e.kind is EditKind.ADD and e.dst == 3 and e.src == 4 for e in edits)


def brute_min_cost(graph, nodes, i_mask, o_mask):
    """Independent oracle: per external, best of reaching mask or empty."""
    in_pats, out_pats = boundary_patterns(graph, nodes)
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
    """Every minimum-cost (rule, edits) pair of a node set, ties all kept."""
    ordered = tuple(sorted(nodes))
    analysis = analyze_set(graph, ordered)
    out = []
    for i_mask, o_mask in analysis.mask_pairs():
        cost, edits = edit_cost(graph, ordered, i_mask, o_mask)
        assert cost == analysis.cost
        out.append((from_node_set(graph, ordered, i_mask, o_mask), edits))
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
    for rule, edits in best_candidates(g, nodes):
        edited = g.copy()
        for e in edits:
            edited.apply_edit(e)
        in_pats, out_pats = boundary_patterns(edited, nodes)
        for _, pat in in_pats:
            assert pat == rule.i_mask
        for _, pat in out_pats:
            assert pat == rule.o_mask


def table_for_tests():
    return [CostLevel(0, 2, 4), CostLevel(1, 1, 2), CostLevel(2, 1, 2)]


def test_cost_of_n_and_nodes_of_n():
    params = BitParams(C_R=12, C_ID=3, C_node=5, C_edit=5)
    table = table_for_tests()
    assert cost_of_n(table, params, 1) == 12 + 3 + 5
    assert cost_of_n(table, params, 2) == 12 + 3 + 10
    assert cost_of_n(table, params, 3) == 12 + 3 + 15 + 5
    assert cost_of_n(table, params, 4) == 12 + 3 + 20 + 5 + 10
    assert nodes_of_n(table, 1) == 2
    assert nodes_of_n(table, 3) == 6
    with pytest.raises(NOutOfRange):
        cost_of_n(table, params, 0)
    with pytest.raises(NOutOfRange):
        cost_of_n(table, params, 5)


def test_fractional_nodes_inside_level():
    table = [CostLevel(0, 2, 5)]
    assert nodes_of_n(table, 1) == Fraction(5, 2)


def test_pcr_demo6_value():
    """Hand-checked prediction for the worked example's winning rule."""
    params = BitParams(C_R=12, C_ID=3, C_node=5, C_edit=5)
    value, level = pcr(table_for_tests(), params)
    assert value == Fraction(6, 35)
    assert level == 1


def random_table(rng):
    table = []
    for c in range(rng.randrange(1, 7)):
        x = rng.randrange(1, 11)
        table.append(CostLevel(c, x, x * rng.randrange(2, 9)))
    return table


def test_pcr_prefix_equals_exhaustive():
    rng = random.Random(99)
    for _ in range(300):
        table = random_table(rng)
        params = BitParams(
            C_R=rng.randrange(0, 40),
            C_ID=rng.randrange(1, 12),
            C_node=rng.randrange(1, 12),
            C_edit=rng.randrange(1, 12),
        )
        value, _ = pcr(table, params)
        total = sum(lv.x for lv in table)
        exhaustive = max(
            Fraction(nodes_of_n(table, n)) / cost_of_n(table, params, n)
            for n in range(1, total + 1)
        )
        assert value == exhaustive


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
