import itertools
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgc.graphs import DiGraph
from vrgc.rules import (
    IdCollision,
    Rule,
    RuleError,
    RuleLibrary,
    TargetBoundaryMismatch,
    apply_rule,
    canonical_code,
    canonical_form,
    canonical_rule,
    from_node_set,
    permute,
    rule_from_code,
    rule_to_dot,
)


def all_connected_rules(k):
    """Every valid rule on k nodes (adjacency x both masks)."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for present in itertools.product([0, 1], repeat=len(pairs)):
        adj = [0] * k
        for bit, (i, j) in zip(present, pairs):
            if bit:
                adj[i] |= 1 << j
        try:
            base = Rule(k, tuple(adj), 0, 0)
        except RuleError:
            continue
        for i_mask in range(1 << k):
            for o_mask in range(1 << k):
                yield Rule(k, base.adj, i_mask, o_mask)


def orbit(rule):
    """All relabelings of a rule; the isomorphism-class oracle."""
    return frozenset(
        permute(rule, perm) for perm in itertools.permutations(range(rule.k))
    )


def test_rule_validation():
    with pytest.raises(RuleError):
        Rule(2, (1, 0), 0, 0)  # self-loop at position 0
    with pytest.raises(RuleError):
        Rule(2, (0, 0), 0, 0)  # disconnected
    with pytest.raises(RuleError):
        Rule(3, (2, 4), 0, 0)  # wrong row count
    with pytest.raises(RuleError):
        Rule(2, (4, 0), 0, 0)  # bit outside fragment


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_code_exhaustive(k):
    """Equal codes exactly when isomorphic, over every k-node rule."""
    by_orbit = {}
    for rule in all_connected_rules(k):
        by_orbit.setdefault(orbit(rule), set()).add(canonical_code(*astuple(rule)))
    for codes in by_orbit.values():
        assert len(codes) == 1


def test_canonical_code_sampled_k4():
    rng = random.Random(4)
    for _ in range(80):
        adj = [0] * 4
        for i in range(4):
            for j in range(4):
                if i != j and rng.random() < 0.5:
                    adj[i] |= 1 << j
        try:
            rule = Rule(4, tuple(adj), rng.randrange(16), rng.randrange(16))
        except RuleError:
            continue
        perm = tuple(rng.sample(range(4), 4))
        assert canonical_code(*astuple(rule)) == canonical_code(*astuple(permute(rule, perm)))


def reference_canonical_form(rule):
    """The ``Rule``-keyed canonical form as it was before the raw-field
    cache, frozen here as an oracle: brute force over within-group
    arrangements of the (i, o, out-degree, in-degree) invariant groups,
    scanning every column of every row."""
    k = rule.k
    groups = {}
    for v in range(k):
        out = rule.adj[v].bit_count()
        inn = sum(rule.adj[u] >> v & 1 for u in range(k))
        groups.setdefault((rule.i_mask >> v & 1, rule.o_mask >> v & 1, out, inn), []).append(v)
    best_key = best_perm = None
    arrangements = (itertools.permutations(groups[key]) for key in sorted(groups))
    for combo in itertools.product(*arrangements):
        perm = tuple(v for part in combo for v in part)
        inv = [0] * k
        for new, old in enumerate(perm):
            inv[old] = new
        key = tuple(
            sum(1 << inv[j] for j in range(k) if rule.adj[old] >> j & 1) for old in perm
        )
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    i_new = sum((rule.i_mask >> old & 1) << new for new, old in enumerate(best_perm))
    o_new = sum((rule.o_mask >> old & 1) << new for new, old in enumerate(best_perm))
    nbytes = (k + 7) // 8
    code = bytes([k, i_new, o_new]) + b"".join(row.to_bytes(nbytes, "big") for row in best_key)
    return code, best_perm


@st.composite
def connected_rules(draw):
    """A weakly connected fragment on 2..8 nodes: a random spanning tree
    with random directions, plus random extra edges, and random masks."""
    k = draw(st.integers(2, 8))
    adj = [0] * k
    for v in range(1, k):
        u = draw(st.integers(0, v - 1))
        if draw(st.booleans()):
            adj[u] |= 1 << v
        else:
            adj[v] |= 1 << u
    extra = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2 * k))
    for u, v in extra:
        if u != v:
            adj[u] |= 1 << v
    masks = st.integers(0, (1 << k) - 1)
    return Rule(k, tuple(adj), draw(masks), draw(masks))


@settings(max_examples=150, deadline=None)
@given(rule=connected_rules())
def test_canonical_form_matches_reference(rule):
    assert canonical_form(*astuple(rule)) == reference_canonical_form(rule)


def symmetric_fragments(k):
    ring = tuple(1 << (v + 1) % k for v in range(k))
    window = tuple(((1 << v + 1) | (1 << v + 2)) & ((1 << k) - 1) for v in range(k))
    star = ((1 << k) - 2,) + (0,) * (k - 1)
    complete_dag = tuple(((1 << k) - 1) & ~((1 << v + 1) - 1) for v in range(k))
    return [ring, window, star, complete_dag]


@pytest.mark.parametrize("k", [6, 7, 8])
def test_canonical_form_matches_reference_on_symmetric_fragments(k):
    """Directed ring, ring-lattice window, out-star and complete DAG: the
    invariant groups are large, so many arrangements tie."""
    full = (1 << k) - 1
    for adj in symmetric_fragments(k):
        for i_mask, o_mask in [(0, 0), (full, full), (1, 0b10), (0b101, full)]:
            rule = Rule(k, adj, i_mask, o_mask)
            assert canonical_form(*astuple(rule)) == reference_canonical_form(rule)


@pytest.mark.parametrize(
    "fields",
    [
        (2, (0, 0), 0, 0),  # disconnected
        (3, (2, 0, 0), 0, 0),  # disconnected, one node isolated
        (2, (1, 2), 0, 0),  # self-loops
        (2, (4, 0), 0, 0),  # adjacency bit outside the fragment
        (2, (2, 0), 0b100, 0),  # mask bit outside the fragment
        (3, (2, 4), 0, 0),  # wrong row count
    ],
)
def test_canonical_form_rejects_invalid_fragments(fields):
    """Invalid raw fields raise on every lookup: they are never cached."""
    for _ in range(2):
        with pytest.raises(RuleError):
            canonical_form(*fields)
        with pytest.raises(RuleError):
            canonical_code(*fields)


def test_canonical_rule_is_stable():
    rule = Rule(3, (2, 4, 0), 0b100, 0b001)
    canon = canonical_rule(rule)
    assert canonical_code(*astuple(canon)) == canonical_code(*astuple(rule))
    assert canonical_rule(canon) == canon


def test_rule_code_roundtrip():
    rule = Rule(3, (6, 4, 1), 0b011, 0b101)
    code = canonical_code(*astuple(rule))
    back = rule_from_code(code)
    assert canonical_code(*astuple(back)) == code


def test_from_node_set(demo6):
    rule = from_node_set(demo6, (1, 2, 3), 0b001, 0b100)
    assert rule.k == 3
    assert sorted(rule.edge_list()) == [(0, 1), (0, 2), (1, 2)]


def test_library_intern_and_ordering():
    lib = RuleLibrary()
    a = Rule(2, (2, 0), 0b10, 0b10)
    b = Rule(2, (0, 1), 0b01, 0b01)  # same structure, relabeled
    c = Rule(2, (2, 0), 0b01, 0b01)
    rid_a, new_a = lib.intern(a)
    rid_b, new_b = lib.intern(b)
    rid_c, new_c = lib.intern(c)
    assert new_a and not new_b and new_c
    assert rid_a == rid_b != rid_c
    assert lib.discovery[rid_a] == 2
    assert lib.ordered_ids()[0] == rid_a
    lib.record_extraction(rid_c)
    assert lib.frequency[rid_c] == 1


def test_apply_rule_rewires_boundary():
    g = DiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    rule = Rule(2, (2, 0), 0b01, 0b10)  # x -> y, x inherits ins, y inherits outs
    g.collapse({1, 2})  # make id 2 free, survivor 1
    apply_rule(g, 1, rule, (1, 2))
    assert g.has_edge(1, 2)
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3)
    assert not g.has_edge(1, 3)


def test_apply_rule_errors():
    g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
    chain = Rule(2, (2, 0), 0b01, 0b10)
    with pytest.raises(IdCollision):
        apply_rule(g, 1, chain, (1, 1))
    with pytest.raises(IdCollision):
        apply_rule(g, 1, chain, (0, 2))
    no_in = Rule(2, (2, 0), 0, 0b10)
    with pytest.raises(TargetBoundaryMismatch):
        apply_rule(g, 1, no_in, (1, 3))


def test_rule_to_dot_mentions_boundary():
    dot = rule_to_dot(Rule(2, (2, 0), 0b10, 0b01))
    assert "digraph" in dot
    assert "in1" in dot and "out0" in dot
