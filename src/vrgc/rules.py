"""Rule representation, canonical isomorphism codes, and the rule library.

A rule is a weakly connected fragment of ``k`` nodes plus two boundary
indicator masks: ``i_mask`` marks fragment nodes that inherit all of the
replaced node's incoming boundary edges, ``o_mask`` the outgoing side.
Fragments and masks are stored as integer bitmasks over fragment positions
``0..k-1`` (bit ``j`` of ``adj[i]`` is the edge ``i -> j``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import DiGraph, GraphError

K_HARD_MAX = 8


class RuleError(Exception):
    pass


class TargetBoundaryMismatch(RuleError):
    """Rule with an all-false mask applied to a node that has boundary edges
    on that side."""


class IdCollision(RuleError):
    pass


@dataclass(frozen=True)
class Rule:
    """Fragment adjacency plus boundary masks.  Immutable value type; the
    library tracks frequency and discovery counts per rule id."""

    k: int
    adj: tuple[int, ...]
    i_mask: int
    o_mask: int

    def __post_init__(self):
        if not 1 <= self.k <= K_HARD_MAX:
            raise RuleError(f"fragment size {self.k} out of range 1..{K_HARD_MAX}")
        if len(self.adj) != self.k:
            raise RuleError("adjacency row count must equal k")
        for i, row in enumerate(self.adj):
            if row >> self.k:
                raise RuleError("adjacency bits outside fragment")
            if row & (1 << i):
                raise RuleError("self-loop in fragment")
        if self.k >= 2 and not self._weakly_connected():
            raise RuleError("fragment must be weakly connected")

    def _weakly_connected(self) -> bool:
        und = list(self.adj)
        for i in range(self.k):
            for j in range(self.k):
                if self.adj[i] >> j & 1:
                    und[j] |= 1 << i
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for i in range(self.k):
                if frontier >> i & 1:
                    nxt |= und[i]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.k) - 1

    def edge_list(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.k)
            for j in range(self.k)
            if self.adj[i] >> j & 1
        ]

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj)

    def degrees(self, v: int) -> tuple[int, int]:
        out = self.adj[v].bit_count()
        inn = sum(self.adj[u] >> v & 1 for u in range(self.k))
        return out, inn


def from_node_set(graph: DiGraph, nodes: tuple[int, ...], i_mask: int, o_mask: int) -> Rule:
    """Build a rule from the subgraph induced by ``nodes`` (given in the
    fixed order that the masks refer to)."""
    pos = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for v in nodes:
        for w in graph.out_adj[v]:
            if w in pos:
                adj[pos[v]] |= 1 << pos[w]
    return Rule(len(nodes), tuple(adj), i_mask, o_mask)


# -- canonicalization ------------------------------------------------------


def _invariant(rule: Rule, v: int) -> tuple[int, int, int, int]:
    out, inn = rule.degrees(v)
    return (rule.i_mask >> v & 1, rule.o_mask >> v & 1, out, inn)


def _candidate_perms(rule: Rule):
    """Permutations compatible with the invariant-sorted position order.

    Yields tuples ``perm`` with ``perm[new_pos] = old_pos``.  Positions are
    grouped by the (i, o, out-degree, in-degree) invariant; only permutations
    within equal-invariant groups can alter the serialization, so the search
    is the product of within-group arrangements.
    """
    groups: dict[tuple, list[int]] = {}
    for v in range(rule.k):
        groups.setdefault(_invariant(rule, v), []).append(v)
    keys = sorted(groups)
    for combo in itertools.product(*(itertools.permutations(groups[k]) for k in keys)):
        perm: list[int] = []
        for part in combo:
            perm.extend(part)
        yield tuple(perm)


def _serialize(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int) -> bytes:
    nbytes = (k + 7) // 8
    out = bytearray([k, i_mask, o_mask])
    for row in adj:
        out.extend(row.to_bytes(nbytes, "big"))
    return bytes(out)


@lru_cache(maxsize=1 << 18)
def canonical_form(rule: Rule) -> tuple[bytes, tuple[int, ...]]:
    """Canonical code and a witnessing permutation.

    The code is identical for all relabelings of the fragment (including
    masks); the permutation maps canonical positions to the rule's original
    positions (``perm[new] = old``).
    """
    best_key = None
    best_perm = None
    for perm in _candidate_perms(rule):
        inv = [0] * rule.k
        for new, old in enumerate(perm):
            inv[old] = new
        adj = [0] * rule.k
        for new, old in enumerate(perm):
            row = rule.adj[old]
            acc = 0
            for j in range(rule.k):
                if row >> j & 1:
                    acc |= 1 << inv[j]
            adj[new] = acc
        key = tuple(adj)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    i_new = sum(
        (rule.i_mask >> old & 1) << new for new, old in enumerate(best_perm)
    )
    o_new = sum(
        (rule.o_mask >> old & 1) << new for new, old in enumerate(best_perm)
    )
    return _serialize(rule.k, best_key, i_new, o_new), best_perm


def canonical_code(rule: Rule) -> bytes:
    return canonical_form(rule)[0]


def canonical_rule(rule: Rule) -> Rule:
    """The rule relabeled into its canonical position order."""
    code = canonical_code(rule)
    return rule_from_code(code)


def rule_from_code(code: bytes) -> Rule:
    k = code[0]
    i_mask = code[1]
    o_mask = code[2]
    nbytes = (k + 7) // 8
    adj = tuple(
        int.from_bytes(code[3 + i * nbytes : 3 + (i + 1) * nbytes], "big")
        for i in range(k)
    )
    return Rule(k, adj, i_mask, o_mask)


def permute(rule: Rule, perm: tuple[int, ...]) -> Rule:
    """Relabel the rule so new position ``n`` holds old position ``perm[n]``."""
    inv = [0] * rule.k
    for new, old in enumerate(perm):
        inv[old] = new
    adj = [0] * rule.k
    for new, old in enumerate(perm):
        acc = 0
        for j in range(rule.k):
            if rule.adj[old] >> j & 1:
                acc |= 1 << inv[j]
        adj[new] = acc
    i_mask = sum((rule.i_mask >> old & 1) << new for new, old in enumerate(perm))
    o_mask = sum((rule.o_mask >> old & 1) << new for new, old in enumerate(perm))
    return Rule(rule.k, tuple(adj), i_mask, o_mask)


# -- library ---------------------------------------------------------------


class RuleLibrary:
    """Frequency-ordered store of canonicalized rules with stable ids.

    ``discovery`` counts occurrences found during enumeration and drives the
    ordering heuristic; ``frequency`` counts accepted extractions.
    """

    def __init__(self):
        self.rules: list[Rule] = []
        self.codes: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.discovery: list[int] = []
        self.frequency: list[int] = []

    def __len__(self) -> int:
        return len(self.rules)

    def intern(self, rule: Rule) -> tuple[int, bool]:
        """Map a rule to its stable id, creating it if no isomorphic rule is
        known; bumps the discovery count either way."""
        code = canonical_code(rule)
        return self.intern_code(code)

    def intern_code(self, code: bytes) -> tuple[int, bool]:
        rid = self.index.get(code)
        if rid is None:
            rid = len(self.rules)
            self.index[code] = rid
            self.codes.append(code)
            self.rules.append(rule_from_code(code))
            self.discovery.append(1)
            self.frequency.append(0)
            return rid, True
        self.discovery[rid] += 1
        return rid, False

    @classmethod
    def from_codes(
        cls, codes: list[bytes], frequency: list[int], discovery: list[int]
    ) -> "RuleLibrary":
        """Rebuild a stored library; rule ids follow the order of ``codes``.

        Raises ``ValueError`` on a repeated code, which would otherwise
        shift every later rule id, or on counts that do not match the codes.
        """
        if not len(codes) == len(frequency) == len(discovery):
            raise ValueError("codes, frequency and discovery differ in length")
        library = cls()
        for code in codes:
            if not library.intern_code(code)[1]:
                raise ValueError(f"rule code {code.hex()} appears twice")
        library.frequency[:] = frequency
        library.discovery[:] = discovery
        return library

    def record_extraction(self, rid: int) -> None:
        self.frequency[rid] += 1

    def ordered_ids(self) -> list[int]:
        """Ids sorted by descending discovery count, stable on ties."""
        return sorted(range(len(self.rules)), key=lambda r: (-self.discovery[r], r))

    def to_json_obj(self) -> dict:
        return {
            "rules": [
                {
                    "id": rid,
                    "k": rule.k,
                    "edges": rule.edge_list(),
                    "i_mask": [bool(rule.i_mask >> v & 1) for v in range(rule.k)],
                    "o_mask": [bool(rule.o_mask >> v & 1) for v in range(rule.k)],
                    "frequency": self.frequency[rid],
                    "discovery": self.discovery[rid],
                }
                for rid, rule in enumerate(self.rules)
            ],
            "order": self.ordered_ids(),
        }


def rule_to_dot(rule: Rule, name: str = "rule") -> str:
    """DOT rendering with boundary edges drawn from/to phantom nodes."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for v in range(rule.k):
        lines.append(f"  n{v} [shape=circle, label=\"{v}\"];")
    for i, j in rule.edge_list():
        lines.append(f"  n{i} -> n{j};")
    for v in range(rule.k):
        if rule.i_mask >> v & 1:
            lines.append(f"  in{v} [shape=point, style=invis];")
            lines.append(f"  in{v} -> n{v} [color=red, style=dashed];")
        if rule.o_mask >> v & 1:
            lines.append(f"  out{v} [shape=point, style=invis];")
            lines.append(f"  n{v} -> out{v} [color=red, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- forward application (the decoder's grow step) -------------------------


def apply_rule(
    graph: DiGraph, target: int, rule: Rule, node_ids: tuple[int, ...]
) -> None:
    """Replace ``target`` by the rule fragment, in place.

    ``node_ids[p]`` is the node id for fragment position ``p``; the target's
    id must be among them, and the remaining ids must be free.  Former
    in-neighbors of the target are rewired to every i-marked fragment node,
    former out-neighbors symmetrically.
    """
    if target not in graph.active:
        raise GraphError(f"target {target} is not active")
    if len(node_ids) != rule.k or len(set(node_ids)) != rule.k:
        raise IdCollision(f"need {rule.k} distinct ids, got {node_ids}")
    if target not in node_ids:
        raise IdCollision("target id must be reused by the fragment")
    in_nbrs = sorted(graph.in_adj[target])
    out_nbrs = sorted(graph.out_adj[target])
    if in_nbrs and rule.i_mask == 0:
        raise TargetBoundaryMismatch(
            "rule without incoming boundary applied to a node with in-edges"
        )
    if out_nbrs and rule.o_mask == 0:
        raise TargetBoundaryMismatch(
            "rule without outgoing boundary applied to a node with out-edges"
        )
    for nid in node_ids:
        if nid != target and nid in graph.active:
            raise IdCollision(f"fragment id {nid} is already active")
    for u in in_nbrs:
        graph.remove_edge(u, target)
    for w in out_nbrs:
        graph.remove_edge(target, w)
    graph.active.discard(target)
    for nid in node_ids:
        graph.add_node(nid)
    for i, j in rule.edge_list():
        graph.add_edge(node_ids[i], node_ids[j])
    for p in range(rule.k):
        if rule.i_mask >> p & 1:
            for u in in_nbrs:
                graph.add_edge(u, node_ids[p])
        if rule.o_mask >> p & 1:
            for w in out_nbrs:
                graph.add_edge(node_ids[p], w)
