"""Seeded input generators and extraction settings for each workload.

The generators are the benchmark's own: the program under test only ever
sees the edge-list file that ``write_edge_file`` produces.  Each workload
has one base graph, drawn from a fixed random stream.  A run works on a
batch of ``inputs`` relabellings of its nodes, all drawn from ``--seed``;
the same workload, seed and batch index always give the same file.

The seed relabels a fixed graph rather than drawing a new one, and a run
spreads its time over several relabellings rather than one, because inputs
differ in how much work they cause.  Over eight redrawn ``er_sparse``
graphs, registration calls had a quartile spread of 17% of their median,
against 7% over eight relabellings of one graph; relabellings still differ
(interned rule codes spread 17% over fifteen ``tree_noisy`` relabellings).
A new labelling changes the extraction's path, since ties between equally
good occurrences break toward the smallest node ids and shortcut pruning
depends on the order in which sets are enumerated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int  # default input size; ``--nodes`` overrides it for smoke runs
    k_max: int
    shortcut: int | None  # None turns shortcut pruning off
    inputs: int  # relabellings in a run's batch
    decode_passes: int  # load-and-decode passes per round, about 1 s of work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree_noisy", nodes=1000, k_max=5, shortcut=1, inputs=2, decode_passes=6),
        Workload("er_sparse", nodes=500, k_max=3, shortcut=1, inputs=5, decode_passes=30),
        Workload("lattice_exhaustive", nodes=100, k_max=6, shortcut=None, inputs=4, decode_passes=25),
    )
}

REWIRE_SHARE = 0.08  # share of tree edges moved to uniform random pairs
ER_EDGES_PER_NODE = 3
LATTICE_DEGREE = 4


def tree_noisy(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Binary tree (parent -> child, root 0) with exactly 8% of its edges
    replaced by uniform random pairs that are neither self-loops, existing
    edges, nor reversed existing edges."""
    tree = [(v, c) for v in range(n) for c in (2 * v + 1, 2 * v + 2) if c < n]
    moved = set(rng.sample(range(len(tree)), round(REWIRE_SHARE * len(tree))))
    edges = {e for i, e in enumerate(tree) if i not in moved}
    for _ in moved:
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (a, b) not in edges and (b, a) not in edges:
                break
        edges.add((a, b))
    return edges


def er_sparse(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Uniform simple directed graph with exactly 3n edges."""
    slots = rng.sample(range(n * (n - 1)), ER_EDGES_PER_NODE * n)
    edges = set()
    for idx in slots:
        u, r = divmod(idx, n - 1)
        edges.add((u, r if r < u else r + 1))
    return edges


def lattice_exhaustive(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Directed ring lattice: each node points at its two clockwise
    successors.  Relabelled, its fragments reach the canonicaliser in many
    position orders."""
    return {(v, (v + step) % n) for v in range(n) for step in range(1, LATTICE_DEGREE // 2 + 1)}


GENERATORS = {
    "tree_noisy": tree_noisy,
    "er_sparse": er_sparse,
    "lattice_exhaustive": lattice_exhaustive,
}


def generate(name: str, seed: int, index: int, nodes: int | None = None) -> set[tuple[int, int]]:
    """The workload's base graph with its nodes relabelled by ``seed`` and
    the batch index."""
    n = nodes or WORKLOADS[name].nodes
    base = GENERATORS[name](n, random.Random(f"perfbench:{name}:base"))
    label = list(range(n))
    random.Random(f"perfbench:{name}:{seed}:{index}").shuffle(label)
    return {(label[u], label[v]) for u, v in base}


def write_edge_file(path: Path, name: str, seed: int, edges: set[tuple[int, int]]) -> None:
    lines = [f"# perfbench {name} seed {seed}\n"]
    lines.extend(f"{u} {v}\n" for u, v in sorted(edges))
    path.write_text("".join(lines))


def read_edge_file(path: Path) -> set[tuple[int, int]]:
    """The benchmark's own reading of its edge file, kept apart from
    ``vrgc.graphs.parse_edge_list`` so the decode check is independent."""
    edges = set()
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            u, v = line.split()
            edges.add((int(u), int(v)))
    return edges
