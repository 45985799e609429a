"""Synthetic graph generators, noise rewiring, and null models.

Every function is a pure function of its parameters and seed.  Randomness
is drawn from named streams derived from one master seed, so independent
stages (generation, rewiring, null models) stay reproducible separately.
"""

from __future__ import annotations

import hashlib
import random

from .graphs import DiGraph


class ParamInvalid(Exception):
    pass


def seed_stream(seed: int, name: str) -> random.Random:
    """Deterministic child RNG for one named stage of a run."""
    h = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8)
    return random.Random(int.from_bytes(h.digest(), "big"))


def gen_binary_tree(n_nodes: int) -> DiGraph:
    """Complete-as-possible binary tree, edges parent -> child, root 0."""
    if n_nodes < 1:
        raise ParamInvalid("need at least one node")
    g = DiGraph(n_nodes)
    for v in range(n_nodes):
        for child in (2 * v + 1, 2 * v + 2):
            if child < n_nodes:
                g.add_edge(v, child)
    return g


def gen_tree_of_rings(branching: int = 3, ring_size: int = 15, n_nodes: int = 3000) -> DiGraph:
    """N-ary tree skeleton with every skeleton node expanded to a directed
    ring; one parent-ring to child-ring edge per tree edge, round-robin over
    the parent's ring positions.  ``n_nodes`` is rounded down to whole rings,
    of which there must be at least one."""
    if ring_size < 3:
        raise ParamInvalid("ring_size must be at least 3")
    if branching < 1:
        raise ParamInvalid("branching must be at least 1")
    t = n_nodes // ring_size
    if t < 1:
        raise ParamInvalid(f"{n_nodes} nodes: need at least one ring of {ring_size}")
    g = DiGraph(t * ring_size)
    for node in range(t):
        base = node * ring_size
        for p in range(ring_size):
            g.add_edge(base + p, base + (p + 1) % ring_size)
    attach_slot = [0] * t
    for child in range(1, t):
        parent = (child - 1) // branching
        src = parent * ring_size + attach_slot[parent]
        attach_slot[parent] = (attach_slot[parent] + 1) % ring_size
        g.add_edge(src, child * ring_size)
    return g


def gen_ring_lattice(n_nodes: int, degree: int = 4) -> DiGraph:
    """Directed ring lattice: node i points at its degree/2 clockwise
    successors."""
    if degree < 2 or degree % 2:
        raise ParamInvalid("degree must be even and at least 2")
    if n_nodes <= degree:
        raise ParamInvalid("need more nodes than the degree")
    g = DiGraph(n_nodes)
    for v in range(n_nodes):
        for step in range(1, degree // 2 + 1):
            g.add_edge(v, (v + step) % n_nodes)
    return g


def rewire(graph: DiGraph, r: float, seed: int) -> DiGraph:
    """Reassign each edge with probability r to a fresh uniform pair,
    resampling collisions and self-loops so |E| is exactly preserved."""
    if not 0.0 <= r <= 1.0:
        raise ParamInvalid(f"rewiring probability {r} outside [0, 1]")
    rng = seed_stream(seed, "rewire")
    g = graph.copy()
    if r == 0.0:
        return g
    ids = sorted(g.active)
    for u, v in graph.edges():
        if rng.random() >= r:
            continue
        g.remove_edge(u, v)
        while True:
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b and not g.has_edge(a, b):
                break
        g.add_edge(a, b)
    return g


def gen_er(n_nodes: int, n_edges: int, seed: int) -> DiGraph:
    """Uniform simple directed graph with exactly n_edges edges."""
    if n_nodes < 1:
        raise ParamInvalid("need at least one node")
    slots = n_nodes * (n_nodes - 1)
    if not 0 <= n_edges <= slots:
        raise ParamInvalid(f"{n_edges} edges: need 0 to the {slots} available pairs")
    rng = seed_stream(seed, "er")
    g = DiGraph(n_nodes)
    for idx in rng.sample(range(slots), n_edges):
        u, r = divmod(idx, n_nodes - 1)
        v = r if r < u else r + 1
        g.add_edge(u, v)
    return g


def gen_chung_lu_directed(out_degrees: list[int], in_degrees: list[int], seed: int) -> DiGraph:
    """Each pair (u, v) included independently with probability
    min(1, out_u * in_v / m) where m is the total degree mass.  All-zero
    sequences are a valid model: its graph has no edges."""
    if not out_degrees:
        raise ParamInvalid("need at least one node")
    if len(out_degrees) != len(in_degrees):
        raise ParamInvalid("degree sequences must have equal length")
    if min(out_degrees) < 0 or min(in_degrees) < 0:
        raise ParamInvalid("degrees must be non-negative")
    m = sum(out_degrees)
    if m != sum(in_degrees):
        raise ParamInvalid("degree sequences must share a total")
    rng = seed_stream(seed, "chunglu")
    n = len(out_degrees)
    g = DiGraph(n)
    for u in range(n):
        if not out_degrees[u]:
            continue
        for v in range(n):
            if u == v or not in_degrees[v]:
                continue
            if rng.random() < min(1.0, out_degrees[u] * in_degrees[v] / m):
                g.add_edge(u, v)
    return g
