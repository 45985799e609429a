import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_digraph
from vrgc.graphs import (
    DiGraph,
    EdgeEdit,
    EditKind,
    EditContradictsState,
    InactiveEndpoint,
    NotConnected,
    SelfLoopRejected,
    TooSmall,
    parse_edge_list,
)


def test_from_edges_and_counts(demo6):
    assert demo6.num_nodes() == 6
    assert demo6.num_edges() == 6
    assert demo6.has_edge(1, 3)
    assert not demo6.has_edge(3, 1)


def test_neighbors_ignore_direction(demo6):
    assert demo6.neighbors(3) == {1, 2, 4, 5}


def test_apply_edit_toggle_discipline(demo6):
    demo6.apply_edit(EdgeEdit(1, 3, EditKind.DELETE))
    assert not demo6.has_edge(1, 3)
    with pytest.raises(EditContradictsState):
        demo6.apply_edit(EdgeEdit(1, 3, EditKind.DELETE))
    demo6.apply_edit(EdgeEdit(1, 3, EditKind.ADD))
    with pytest.raises(EditContradictsState):
        demo6.apply_edit(EdgeEdit(1, 3, EditKind.ADD))


def test_edit_inverse_restores(demo6):
    edit = EdgeEdit(0, 3, EditKind.ADD)
    demo6.apply_edit(edit)
    demo6.apply_edit(EdgeEdit(0, 3, EditKind.DELETE))
    assert demo6 == DiGraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 5), (4, 3)])


def test_edit_on_inactive_endpoint(demo6):
    demo6.collapse({0, 1})
    with pytest.raises(InactiveEndpoint):
        demo6.apply_edit(EdgeEdit(1, 2, EditKind.ADD))


def test_self_loop_rejected(demo6):
    with pytest.raises(SelfLoopRejected):
        demo6.add_edge(2, 2)


def test_external_neighbors(demo6):
    in_map, out_map = demo6.external_neighbors({2, 3})
    assert in_map == {1: {2, 3}, 4: {3}}
    assert out_map == {5: {3}}


def test_collapse_merges_boundary(demo6):
    survivor = demo6.collapse({2, 3})
    assert survivor == 2
    assert demo6.active == {0, 1, 2, 4, 5}
    assert sorted(demo6.edges()) == [(0, 1), (1, 2), (2, 5), (4, 2)]


def test_collapse_validations(demo6):
    with pytest.raises(TooSmall):
        demo6.collapse({3})
    with pytest.raises(NotConnected):
        demo6.collapse({0, 5})
    demo6.collapse({0, 1})
    with pytest.raises(InactiveEndpoint):
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
    in_map, out_map = g.external_neighbors(nodes)
    survivor = g.copy()
    s = survivor.collapse(nodes)
    assert s == min(nodes)
    assert survivor.in_adj[s] == set(in_map)
    assert survivor.out_adj[s] == set(out_map)
    for v in nodes - {s}:
        assert v not in survivor.active


def test_parse_edge_list_roundtrip():
    text = "# comment\n0 1\n1 2\n\n1 2\n2 0\n"
    g = parse_edge_list(text)
    assert g.n0 == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]


def test_parse_edge_list_errors():
    with pytest.raises(SelfLoopRejected, match="line 2"):
        parse_edge_list("0 1\n3 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")
