"""Directed simple-graph representation with toggle and collapse primitives.

Node ids live in a fixed id space ``0..n0-1`` where ``n0`` is the original
node count.  Collapsing a node set retires all but the smallest id, which
survives; ids are never grown.  This keeps every ``ceil(log2 n0)`` address
width stable for the bit accounting and makes decode addressing exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(Exception):
    """An edge or collapse on an inactive node, or a self-loop, which is
    outside the model."""


class DiGraph:
    """Simple directed graph over dense integer node ids.

    ``out_adj`` and ``in_adj`` are exact mirrors.  No parallel edges, no
    self-loops.  Iteration-order-sensitive callers must sort; adjacency is
    stored as plain sets keyed by id.
    """

    __slots__ = ("n0", "active", "out_adj", "in_adj")

    def __init__(self, n0: int = 0):
        self.n0 = n0
        self.active: set[int] = set(range(n0))
        self.out_adj: dict[int, set[int]] = {v: set() for v in range(n0)}
        self.in_adj: dict[int, set[int]] = {v: set() for v in range(n0)}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n0: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        g = cls(n0)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "DiGraph":
        g = DiGraph.__new__(DiGraph)
        g.n0 = self.n0
        g.active = set(self.active)
        g.out_adj = {v: set(s) for v, s in self.out_adj.items()}
        g.in_adj = {v: set(s) for v, s in self.in_adj.items()}
        return g

    # -- basic accessors ---------------------------------------------------

    def num_nodes(self) -> int:
        return len(self.active)

    def num_edges(self) -> int:
        return sum(len(s) for s in self.out_adj.values())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out_adj.get(u, ())

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in sorted(self.active):
            for v in sorted(self.out_adj[u]):
                yield u, v

    def neighbors(self, v: int) -> set[int]:
        """Direction-ignored neighborhood (weak adjacency)."""
        return self.out_adj[v] | self.in_adj[v]

    def _check_active(self, *nodes: int) -> None:
        for v in nodes:
            if v not in self.active:
                raise GraphError(f"node {v} is not active")

    # -- mutation ----------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self-loop {u}->{v}")
        self._check_active(u, v)
        self.out_adj[u].add(v)
        self.in_adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self._check_active(u, v)
        self.out_adj[u].discard(v)
        self.in_adj[v].discard(u)

    def toggle_edge(self, u: int, v: int) -> None:
        """Flip edge presence; the one primitive that makes and undoes
        every recorded edit."""
        if self.has_edge(u, v):
            self.remove_edge(u, v)
        else:
            self.add_edge(u, v)

    # -- collapse ----------------------------------------------------------

    def collapse(self, nodes: set[int]) -> int:
        """Replace ``nodes`` by the single survivor (their smallest id).

        Every external node keeping at least one edge into the set ends up
        with exactly one edge to the survivor; symmetrically for out-edges.
        Internal edges vanish and parallel boundary edges merge.  The set
        must be weakly connected with at least two members; the caller
        checks that.  Returns the survivor id.
        """
        self._check_active(*nodes)
        survivor = min(nodes)
        preds: set[int] = set()
        succs: set[int] = set()
        for v in nodes:
            for u in self.in_adj[v]:
                self.out_adj[u].discard(v)
            for w in self.out_adj[v]:
                self.in_adj[w].discard(v)
            preds |= self.in_adj[v]
            succs |= self.out_adj[v]
            self.in_adj[v].clear()
            self.out_adj[v].clear()
            if v != survivor:
                self.active.discard(v)
        for u in preds - nodes:
            self.out_adj[u].add(survivor)
            self.in_adj[survivor].add(u)
        for w in succs - nodes:
            self.out_adj[survivor].add(w)
            self.in_adj[w].add(survivor)
        return survivor

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.active == other.active
            and all(self.out_adj[v] == other.out_adj.get(v, set()) for v in self.active)
        )

    def __repr__(self) -> str:
        return f"DiGraph(|V|={self.num_nodes()}, |E|={self.num_edges()})"


def parse_edge_list(text: str) -> DiGraph:
    """Parse whitespace-separated ``src dst`` lines into a graph.

    Lines starting with ``#`` are ignored, duplicate edges are deduplicated,
    and self-loops are rejected with a line-numbered diagnostic.
    """
    edges: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer node id in {line!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop {u}->{v} rejected")
        edges.add((u, v))
        max_id = max(max_id, u, v)
    return DiGraph.from_edges(max_id + 1, edges)
