"""Rule representation, canonical isomorphism codes, and the rule library.

A rule is a weakly connected fragment of ``k`` nodes plus two boundary
indicator masks: ``i_mask`` marks fragment nodes that inherit all of the
replaced node's incoming boundary edges, ``o_mask`` the outgoing side.
Fragments and masks are stored as integer bitmasks over fragment positions
``0..k-1`` (bit ``j`` of ``adj[i]`` is the edge ``i -> j``), with
``2 <= k <= K_HARD_MAX``, so every mask and row fits in one byte.

A rule's code is ``k + 3`` bytes: ``k``, ``i_mask``, ``o_mask``, then one
byte per adjacency row, all in canonical position order.
``rule_from_code`` rejects a code of any other length, and ``check_codes``
a code that is not the canonical code of its rule.

Canonical codes are computed on these raw fields, ``(k, adj, i_mask,
o_mask)``, and memoized in ``canonical_form``'s ``lru_cache`` under that
tuple, so a repeated lookup allocates nothing.  A miss does not validate the
fragment, because no caller can pass an invalid one: the enumeration
registers only weakly connected sets of a graph with no self-loops;
``extract_one`` compares the code of the set it re-reads with the chosen
one, and a stale set that came apart has disconnected rows, so its code
equals no registered code and it raises ``StaleCandidate``; and
``check_codes`` validates each stored code through ``rule_from_code``
before it canonicalises it.  That cache is the only memo of
canonicalization: ``canonical_form.cache_clear()``, which the benchmark
calls before each round, starts it cold.

A ``Rule`` is built only from a code that comes from outside
(``check_codes``) or that a person reads (``grammar.json`` and DOT).  The
decoder's ``apply_rule`` regrows a fragment straight from its code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import DiGraph

K_HARD_MAX = 8


class RuleError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """Fragment adjacency plus boundary masks.  Immutable value type; the
    library tracks frequency per rule id."""

    k: int
    adj: tuple[int, ...]
    i_mask: int
    o_mask: int

    def __post_init__(self):
        if not 2 <= self.k <= K_HARD_MAX:
            raise RuleError(f"fragment size {self.k} out of range 2..{K_HARD_MAX}")
        if len(self.adj) != self.k:
            raise RuleError("adjacency row count must equal k")
        if (self.i_mask | self.o_mask) >> self.k:
            raise RuleError("mask bits outside fragment")
        for i, row in enumerate(self.adj):
            if row >> self.k:
                raise RuleError("adjacency bits outside fragment")
            if row & (1 << i):
                raise RuleError("self-loop in fragment")
        if not self._weakly_connected():
            raise RuleError("fragment must be weakly connected")

    def _weakly_connected(self) -> bool:
        und = list(self.adj)
        for i, row in enumerate(self.adj):
            while row:
                low = row & -row
                und[low.bit_length() - 1] |= 1 << i
                row ^= low
        seen = frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= und[low.bit_length() - 1]
                frontier ^= low
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


# -- canonicalization ------------------------------------------------------


def _candidate_perms(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int):
    """Permutations compatible with the invariant-sorted position order.

    Returns an iterable of tuples ``perm`` with ``perm[new_pos] = old_pos``.
    Positions are grouped by the (i, o, out-degree, in-degree) invariant;
    only permutations within equal-invariant groups can alter the
    serialization, so the search is the product of within-group
    arrangements, and the invariant order alone when every group is a
    singleton.
    """
    # Each invariant tuple is packed into one int that sorts the same way:
    # degrees are at most 7 (k <= 8, no self-loops), so three bits each.
    invariant = [
        (i_mask >> v & 1) << 7 | (o_mask >> v & 1) << 6 | row.bit_count() << 3
        for v, row in enumerate(adj)
    ]
    for row in adj:
        while row:
            low = row & -row
            invariant[low.bit_length() - 1] += 1
            row ^= low
    order = sorted(range(k), key=invariant.__getitem__)
    if len(set(invariant)) == k:
        return (tuple(order),)
    groups = [tuple(g) for _, g in itertools.groupby(order, key=invariant.__getitem__)]
    return (
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*map(itertools.permutations, groups))
    )


@lru_cache(maxsize=1 << 18)
def canonical_form(
    k: int, adj: tuple[int, ...], i_mask: int, o_mask: int
) -> tuple[bytes, tuple[int, ...]]:
    """Canonical code and a witnessing permutation of a raw fragment.

    The code is identical for all relabelings of the fragment (including
    masks): its rows are the lexicographically smallest over the candidate
    permutations, and on a tie the first candidate wins.  The permutation
    maps canonical positions to the fragment's original positions
    (``perm[new] = old``).  The cache key is the plain ``(k, adj, i_mask,
    o_mask)`` tuple.  The fields are not validated (see the module
    docstring): bits must lie inside ``k``, and only a weakly connected
    fragment without self-loops gets the code of a rule.

    Each candidate's rows are built in position order and compared with the
    best rows so far; the candidate is abandoned at its first greater row.
    """
    best_rows = best_perm = None
    for perm in _candidate_perms(k, adj, i_mask, o_mask):
        bit = [0] * k
        for new, old in enumerate(perm):
            bit[old] = 1 << new
        rows = []
        tied = best_rows is not None
        for p, old in enumerate(perm):
            row = adj[old]
            acc = 0
            while row:
                low = row & -row
                acc |= bit[low.bit_length() - 1]
                row ^= low
            if tied:
                if acc > best_rows[p]:
                    break
                tied = acc == best_rows[p]
            rows.append(acc)
        else:
            if not tied:
                best_rows, best_perm = rows, perm
    i_new = o_new = 0
    for new, old in enumerate(best_perm):
        i_new |= (i_mask >> old & 1) << new
        o_new |= (o_mask >> old & 1) << new
    return bytes((k, i_new, o_new, *best_rows)), best_perm


def canonical_code(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int) -> bytes:
    return canonical_form(k, adj, i_mask, o_mask)[0]


def rule_from_code(code: bytes) -> Rule:
    """The ``Rule`` a code stores; ``RuleError`` unless the code is exactly
    ``k + 3`` bytes of a valid rule."""
    return Rule(code[0], tuple(code[3:]), code[1], code[2])


def check_codes(codes: list[bytes]) -> None:
    """Check stored rule codes: ``RuleError`` from ``rule_from_code`` on a
    code of no valid rule, ``ValueError`` on a code that is not the
    canonical code of its rule, which would store one rule under two ids,
    and on a repeated code, which would otherwise shift every later rule id."""
    seen: set[bytes] = set()
    for code in codes:
        rule = rule_from_code(code)
        if canonical_code(rule.k, rule.adj, rule.i_mask, rule.o_mask) != code:
            raise ValueError(f"rule code {code.hex()} is not canonical")
        if code in seen:
            raise ValueError(f"rule code {code.hex()} appears twice")
        seen.add(code)


# -- library ---------------------------------------------------------------


class RuleLibrary:
    """Store of canonical rule codes with stable ids, in interning order.

    ``frequency`` counts accepted extractions.  A code's ``Rule`` is rebuilt
    with ``rule_from_code`` only to show it to a reader; decoding reads codes.
    """

    def __init__(self):
        self.codes: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.frequency: list[int] = []

    def __len__(self) -> int:
        return len(self.codes)

    def intern_code(self, code: bytes) -> tuple[int, bool]:
        """Map a canonical code to its stable id, creating it if new; the
        flag says whether it was new."""
        rid = self.index.get(code)
        if rid is not None:
            return rid, False
        rid = len(self.codes)
        self.index[code] = rid
        self.codes.append(code)
        self.frequency.append(0)
        return rid, True

    def record_extraction(self, rid: int) -> None:
        self.frequency[rid] += 1

    def ordered_ids(self) -> list[int]:
        """Ids sorted by descending extraction frequency, then by id."""
        return sorted(range(len(self.codes)), key=lambda r: (-self.frequency[r], r))

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
                }
                for rid, rule in enumerate(map(rule_from_code, self.codes))
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


def apply_rule(graph: DiGraph, code: bytes, node_ids: tuple[int, ...]) -> None:
    """Regrow the fragment ``code`` stores at the survivor ``min(node_ids)``, in place.

    ``node_ids[p]`` is the id at canonical position ``p``; the others must be
    free.  The code is checked for length only, as ``check_codes`` or
    ``canonical_form`` made it.  The survivor's in-neighbors are rewired to
    every i-marked fragment node, its out-neighbors to every o-marked one;
    ``RuleError`` before any change if a side without a mask has edges.
    """
    k, i_mask, o_mask = code[:3]
    if len(code) != k + 3:
        raise RuleError(f"rule code {code.hex()} is not {k + 3} bytes")
    if len(node_ids) != k or len(set(node_ids)) != k:
        raise RuleError(f"need {k} distinct ids, got {node_ids}")
    survivor = min(node_ids)
    if graph.active.intersection(node_ids) != {survivor}:
        raise RuleError(f"of ids {node_ids}, the survivor {survivor} alone must be active")
    in_nbrs = list(graph.in_adj[survivor])
    out_nbrs = list(graph.out_adj[survivor])
    if in_nbrs and not i_mask or out_nbrs and not o_mask:
        raise RuleError(f"survivor {survivor} has edges on a side the rule has no mask for")
    for u in in_nbrs:
        graph.remove_edge(u, survivor)
    for w in out_nbrs:
        graph.remove_edge(survivor, w)
    graph.active.update(node_ids)
    for p, (nid, row) in enumerate(zip(node_ids, code[3:])):
        while row:
            low = row & -row
            graph.add_edge(nid, node_ids[low.bit_length() - 1])
            row ^= low
        if i_mask >> p & 1:
            for u in in_nbrs:
                graph.add_edge(u, nid)
        if o_mask >> p & 1:
            for w in out_nbrs:
                graph.add_edge(nid, w)
