import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgc.synth import (
    ParamInvalid,
    gen_binary_tree,
    gen_chung_lu_directed,
    gen_er,
    gen_ring_lattice,
    gen_tree_of_rings,
    rewire,
    seed_stream,
)


def test_seed_streams_are_independent():
    a = seed_stream(7, "alpha").random()
    b = seed_stream(7, "beta").random()
    a2 = seed_stream(7, "alpha").random()
    assert a == a2
    assert a != b


def test_binary_tree_shapes():
    g = gen_binary_tree(7)
    assert g.num_edges() == 6
    assert len(g.out_adj[0]) == 2
    assert all(len(g.out_adj[v]) == 0 for v in (3, 4, 5, 6))
    assert gen_binary_tree(1).num_edges() == 0
    assert gen_binary_tree(3000).num_edges() == 2999


def test_tree_of_rings_counts():
    single = gen_tree_of_rings(3, 15, 15)
    assert single.num_nodes() == 15
    assert single.num_edges() == 15
    g = gen_tree_of_rings(3, 15, 3000)
    t = 3000 // 15
    assert g.num_nodes() == t * 15
    assert g.num_edges() == t * 15 + (t - 1)
    with pytest.raises(ParamInvalid):
        gen_tree_of_rings(3, 2, 100)
    with pytest.raises(ParamInvalid):
        gen_tree_of_rings(0, 15, 100)
    assert gen_tree_of_rings(3, 15, 29).num_nodes() == 15  # whole rings only
    for too_few in (0, 7, 14):
        with pytest.raises(ParamInvalid, match="at least one ring"):
            gen_tree_of_rings(3, 15, too_few)


def test_ring_lattice():
    g = gen_ring_lattice(10, 4)
    assert g.num_edges() == 20
    for v in range(10):
        assert len(g.out_adj[v]) == 2
        assert len(g.in_adj[v]) == 2
    assert gen_ring_lattice(3000, 4).num_edges() == 6000
    with pytest.raises(ParamInvalid):
        gen_ring_lattice(10, 3)
    with pytest.raises(ParamInvalid):
        gen_ring_lattice(4, 4)


def test_rewire_identity_at_zero():
    g = gen_binary_tree(31)
    assert rewire(g, 0.0, 3) == g


@settings(max_examples=30, deadline=None)
@given(
    r=st.sampled_from([0.1, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_rewire_preserves_edge_count_and_simplicity(r, seed):
    g = gen_binary_tree(63)
    noisy = rewire(g, r, seed)
    assert noisy.num_edges() == g.num_edges()
    for u, v in noisy.edges():
        assert u != v
    # mirror consistency
    for u in noisy.active:
        for v in noisy.out_adj[u]:
            assert u in noisy.in_adj[v]


def test_rewire_determinism():
    g = gen_ring_lattice(50, 4)
    assert rewire(g, 0.5, 9) == rewire(g, 0.5, 9)


def test_rewire_rejects_probability_outside_unit_interval():
    g = gen_binary_tree(7)
    for r in (1.5, -0.1):
        with pytest.raises(ParamInvalid, match="outside"):
            rewire(g, r, 0)


def test_er_exact_edges_and_determinism():
    g = gen_er(20, 50, 11)
    assert g.num_edges() == 50
    assert g == gen_er(20, 50, 11)
    assert gen_er(20, 0, 1).num_edges() == 0
    full = gen_er(5, 20, 0)
    assert full.num_edges() == 20
    with pytest.raises(ParamInvalid):
        gen_er(5, 21, 0)


def test_chung_lu_forced_structure():
    # all incoming mass on node 0: every generated edge targets node 0
    out_deg = [0, 3, 3, 3, 3]
    in_deg = [12, 0, 0, 0, 0]
    g = gen_chung_lu_directed(out_deg, in_deg, 2)
    for u, v in g.edges():
        assert v == 0
    with pytest.raises(ParamInvalid):
        gen_chung_lu_directed([1, 2], [2, 2], 0)


def test_chung_lu_zero_total_has_no_edges():
    g = gen_chung_lu_directed([0, 0, 0], [0, 0, 0], 1)
    assert g.num_nodes() == 3 and g.num_edges() == 0
    for out_deg, in_deg in [([1, -1], [1, -1]), ([-1, -1], [-1, -1]), ([], [])]:
        with pytest.raises(ParamInvalid):
            gen_chung_lu_directed(out_deg, in_deg, 1)


def test_chung_lu_mean_degree():
    n = 400
    out_deg = [2] * n
    in_deg = [2] * n
    g = gen_chung_lu_directed(out_deg, in_deg, 123)
    mean_out = g.num_edges() / n
    assert abs(mean_out - 2) / 2 < 0.05
