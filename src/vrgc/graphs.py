"""Directed simple-graph representation with toggle, collapse and expand primitives.

Node ids live in a fixed id space ``0..n0-1`` where ``n0`` is the original
node count.  Collapsing a node set retires all but the smallest id, which
survives; ids are never grown.  This keeps every ``ceil(log2 n0)`` address
width stable for the bit accounting and makes decode addressing exact.

``collapse`` and ``expand`` are inverses: expanding a survivor with the
fragment rows and boundary masks of the set collapsed into it restores
the graph as it was before the collapse.  Both keep the invariant that an
inactive id has no edges, as do ``add_edge`` and ``toggle_edges``, which
check both endpoints, and the artifact loader, which adds the residual's
edges with ``add_edge``.  ``expand`` checks the survivor's state, then
relies on the invariant to write the fragment's edges unchecked.
"""

from __future__ import annotations

from typing import Iterable, Iterator


# The positions of the set bits of each byte, in ascending order.
_BITS = [tuple(j for j in range(8) if m >> j & 1) for m in range(256)]


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

    def toggle_edges(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Flip the presence of each edge ``(u, v)`` in turn; the one
        primitive that makes and undoes every recorded edit.  Both
        endpoints of each pair are checked, as ``add_edge`` checks them: a
        tampered record can name an external that is inactive when its
        edits are replayed."""
        active, out_adj, in_adj = self.active, self.out_adj, self.in_adj
        for u, v in pairs:
            if u == v:
                raise GraphError(f"self-loop {u}->{v}")
            if u not in active:
                raise GraphError(f"node {u} is not active")
            if v not in active:
                raise GraphError(f"node {v} is not active")
            succs = out_adj[u]
            if v in succs:
                succs.remove(v)
                in_adj[v].remove(u)
            else:
                succs.add(v)
                in_adj[v].add(u)

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

    def expand(
        self, node_ids: tuple[int, ...], rows: bytes, i_mask: int, o_mask: int
    ) -> None:
        """Regrow a fragment at its survivor ``min(node_ids)``: the inverse of
        ``collapse``.

        ``node_ids[p]`` stands at fragment position ``p``, and bit ``j`` of
        ``rows[p]`` is the edge ``node_ids[p] -> node_ids[j]``.  The
        survivor's in-neighbours get an edge to every id whose bit is set in
        ``i_mask``, its out-neighbours one from every id set in ``o_mask``.
        ``GraphError`` before any write unless the survivor is the only
        active id and has no edges on a side whose mask is 0; inactive ids
        having no edges, the edges are then written unchecked.  The caller
        passes ``k`` distinct ids and ``k`` rows with no self-loop.
        """
        survivor = min(node_ids)
        out_adj, in_adj = self.out_adj, self.in_adj
        if self.active.intersection(node_ids) != {survivor}:
            raise GraphError(f"of ids {node_ids}, the survivor {survivor} alone must be active")
        if in_adj[survivor] and not i_mask or out_adj[survivor] and not o_mask:
            raise GraphError(f"survivor {survivor} has edges on a side the rule has no mask for")
        survivor_bit = 1 << node_ids.index(survivor)
        for mask, near, far in ((i_mask, in_adj, out_adj), (o_mask, out_adj, in_adj)):
            nbrs = near[survivor]
            if not mask & survivor_bit:  # else its boundary edges stay as they are
                near[survivor] = set()
                for x in nbrs:
                    far[x].remove(survivor)
            for p in _BITS[mask & ~survivor_bit]:
                v = node_ids[p]
                near[v] = set(nbrs)
                for x in nbrs:
                    far[x].add(v)
        self.active.update(node_ids)
        for nid, row in zip(node_ids, rows):
            succs = out_adj[nid]
            for j in _BITS[row]:
                v = node_ids[j]
                succs.add(v)
                in_adj[v].add(nid)

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
    and self-loops are rejected with a line-numbered diagnostic.  A text
    with no edge line is rejected too: it names no node.
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
    if not edges:
        raise ValueError("no edge line in the edge list")
    return DiGraph.from_edges(max_id + 1, edges)
