import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO6_EDGES, naive_set_read, random_digraph
from vrgc.graphs import DiGraph, GraphError, parse_edge_list
from vrgc.rules import canonical_form


def test_from_edges_and_counts(demo6):
    assert demo6.num_nodes() == 6
    assert demo6.num_edges() == 6
    assert demo6.has_edge(1, 3)
    assert not demo6.has_edge(3, 1)


def test_neighbors_ignore_direction(demo6):
    assert demo6.neighbors(3) == {1, 2, 4, 5}


def test_equal_graphs_are_unhashable(demo6):
    """A graph compares by value and is mutable, so it has no hash."""
    assert demo6 == demo6.copy()
    with pytest.raises(TypeError):
        hash(demo6)


def test_toggle_flips_presence(demo6):
    demo6.toggle_edges([(1, 3)])
    assert not demo6.has_edge(1, 3)
    demo6.toggle_edges([(1, 3)])
    assert demo6.has_edge(1, 3)
    demo6.toggle_edges([(0, 3)])
    assert demo6.has_edge(0, 3)
    assert not demo6.has_edge(3, 0)


def test_edit_inverse_restores(demo6):
    """A second toggle of the same pair undoes the first, for additions
    and deletions alike."""
    demo6.toggle_edges([(0, 3), (1, 3), (3, 1), (5, 3)])
    assert demo6 != DiGraph.from_edges(6, DEMO6_EDGES)
    demo6.toggle_edges([(5, 3), (3, 1), (1, 3), (0, 3)])
    assert demo6 == DiGraph.from_edges(6, DEMO6_EDGES)


def test_edit_on_inactive_endpoint(demo6):
    demo6.collapse({0, 1})
    with pytest.raises(GraphError, match="node 1 is not active"):
        demo6.toggle_edges([(1, 2)])


def test_self_loop_rejected(demo6):
    with pytest.raises(GraphError, match="self-loop 2->2"):
        demo6.add_edge(2, 2)


def test_collapse_merges_boundary(demo6):
    survivor = demo6.collapse({2, 3})
    assert survivor == 2
    assert demo6.active == {0, 1, 2, 4, 5}
    assert sorted(demo6.edges()) == [(0, 1), (1, 2), (2, 5), (4, 2)]


def test_collapse_validations(demo6):
    demo6.collapse({0, 1})
    with pytest.raises(GraphError, match="node 1 is not active"):
        demo6.collapse({1, 2})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_collapse_boundary_property(seed):
    rng = random.Random(seed)
    g = random_digraph(rng, rng.randrange(4, 10), rng.randrange(5, 25))
    candidates = [v for v in g.active]
    base = rng.choice(candidates)
    nodes = {base}
    while len(nodes) < 3:
        frontier = set().union(*(g.neighbors(v) for v in nodes)) - nodes
        if not frontier:
            break
        nodes.add(rng.choice(sorted(frontier)))
    if len(nodes) < 2:
        return
    _, in_pats, out_pats = naive_set_read(g, tuple(sorted(nodes)))
    survivor = g.copy()
    s = survivor.collapse(nodes)
    assert s == min(nodes)
    assert survivor.in_adj[s] == {u for u, _ in in_pats}
    assert survivor.out_adj[s] == {w for w, _ in out_pats}
    for v in nodes - {s}:
        assert v not in survivor.active


def test_expand_rewires_boundary():
    g = DiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    # raw positions (1, 2): x -> y, x inherits ins, y inherits outs
    code, perm = canonical_form(2, (2, 0), 0b01, 0b10)
    g.collapse({1, 2})  # make id 2 free, survivor 1
    g.expand(tuple((1, 2)[old] for old in perm), code[3:], code[1], code[2])
    assert g.has_edge(1, 2)
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3)
    assert not g.has_edge(1, 3)


def test_expand_regrows_at_the_smallest_id():
    """The survivor is ``min(node_ids)`` wherever it sits in canonical
    order: regrowing a collapsed set from its code restores the graph."""
    before = DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    nodes = (1, 2, 3)
    # raw positions follow ``nodes``: 1 -> 2 -> 3, 1 inherits the in-edge, 3 the out-edge
    code, perm = canonical_form(3, (0b010, 0b100, 0), 0b001, 0b100)
    node_ids = tuple(nodes[old] for old in perm)
    assert node_ids == (2, 3, 1)
    g = before.copy()
    g.collapse(set(nodes))
    g.expand(node_ids, code[3:], code[1], code[2])
    assert g == before


def test_expand_checks_the_survivor_before_any_write():
    edges = [(0, 1), (1, 2)]
    g = DiGraph.from_edges(4, edges)
    chain = bytes((0b10, 0))  # position 0 -> position 1
    with pytest.raises(GraphError, match="survivor 1 alone must be active"):
        g.expand((1, 2), chain, 0b01, 0b10)  # 2 is active
    g.collapse({1, 2})
    with pytest.raises(GraphError, match="survivor 2 alone must be active"):
        g.expand((2, 3), chain, 0b01, 0b10)  # 2 was freed
    with pytest.raises(GraphError, match="survivor 1 has edges on a side the rule has no mask for"):
        g.expand((1, 2), chain, 0, 0b10)  # 0 -> 1 and no in-mask
    collapsed = DiGraph.from_edges(4, edges)
    collapsed.collapse({1, 2})
    assert g == collapsed  # no failed call changed the graph


def test_parse_edge_list_roundtrip():
    text = "# comment\n0 1\n1 2\n\n  # indented comment\n1 2\n2 0\n"
    g = parse_edge_list(text)
    assert g.n0 == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]


def test_parse_edge_list_errors():
    with pytest.raises(GraphError, match="line 2: self-loop 3->3 rejected"):
        parse_edge_list("0 1\n3 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError, match="line 1: expected 'src dst', got '0 1 # edge'"):
        parse_edge_list("0 1 # edge\n")
