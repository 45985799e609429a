"""Canonical rule codes, their validation, and the rule library.

A rule is a weakly connected fragment of ``k`` nodes plus two boundary
indicator masks: ``i_mask`` marks fragment nodes that inherit all of the
replaced node's incoming boundary edges, ``o_mask`` the outgoing side.
Fragments and masks are stored as integer bitmasks over fragment positions
``0..k-1`` (bit ``j`` of ``adj[i]`` is the edge ``i -> j``), with
``2 <= k <= K_HARD_MAX``, so every mask and row fits in one byte.

A rule exists only as its code of ``k + 3`` bytes: ``k``, ``i_mask``,
``o_mask``, then one byte per adjacency row, all in canonical position
order.  ``check_codes`` rejects a code of any other length, a code of no
valid fragment, and a code that is not the canonical code of its rule.

Canonical codes are computed on the fields ``(k, adj, i_mask, o_mask)``
and memoized in ``canonical_form``'s ``lru_cache`` under that tuple, so a
repeated lookup allocates nothing.  Registration keys it by shape: the bare
fragment ``(k, adj, 0, 0)``, whose code gives the fragment's canonical
rows, and each mask pair moved onto those rows; each index keeps which
codes a reading gave (``enumeration.EnumState.codes_of``).  A miss does not
validate the fragment, because no caller can pass an invalid one: the
enumeration registers only weakly connected sets of a graph with no
self-loops; ``extract_one`` compares the code of the set it re-reads with
the chosen one, and a stale set that came apart has disconnected rows, so
its code equals no registered code and it raises ``StaleCandidate``; and
``check_codes`` validates each stored code before it canonicalises it.
That cache is the only memo of canonicalization that outlives an
extraction: ``canonical_form.cache_clear()``, which the benchmark calls
before each round, starts it cold.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import DiGraph

K_HARD_MAX = 8


class RuleError(Exception):
    pass


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
    i_new, o_new = relabel_mask(i_mask, best_perm), relabel_mask(o_mask, best_perm)
    return bytes((k, i_new, o_new, *best_rows)), best_perm


def relabel_mask(mask: int, perm: tuple[int, ...]) -> int:
    """``mask`` moved onto the positions of ``perm`` (``perm[new] = old``)."""
    out = 0
    for new, old in enumerate(perm):
        out |= (mask >> old & 1) << new
    return out


def canonical_code(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int) -> bytes:
    return canonical_form(k, adj, i_mask, o_mask)[0]


def _weakly_connected(rows: bytes) -> bool:
    und = list(rows)
    for i, row in enumerate(rows):
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
    return seen == (1 << len(rows)) - 1


def check_codes(codes: list[bytes]) -> None:
    """Check stored rule codes: ``RuleError`` on a code of no valid rule
    (size outside 2..K_HARD_MAX, not ``k + 3`` bytes, bits outside the
    fragment, a self-loop, or a fragment that is not weakly connected),
    ``ValueError`` on a code that is not the canonical code of its rule,
    which would store one rule under two ids, and on a repeated code, which
    would otherwise shift every later rule id."""
    seen: set[bytes] = set()
    for code in codes:
        k, i_mask, o_mask, rows = code[0], code[1], code[2], code[3:]
        if not 2 <= k <= K_HARD_MAX:
            raise RuleError(f"fragment size {k} out of range 2..{K_HARD_MAX}")
        if len(rows) != k:
            raise RuleError("adjacency row count must equal k")
        if (i_mask | o_mask) >> k:
            raise RuleError("mask bits outside fragment")
        for i, row in enumerate(rows):
            if row >> k:
                raise RuleError("adjacency bits outside fragment")
            if row & (1 << i):
                raise RuleError("self-loop in fragment")
        if not _weakly_connected(rows):
            raise RuleError("fragment must be weakly connected")
        if canonical_code(k, tuple(rows), i_mask, o_mask) != code:
            raise ValueError(f"rule code {code.hex()} is not canonical")
        if code in seen:
            raise ValueError(f"rule code {code.hex()} appears twice")
        seen.add(code)


def code_edges(code: bytes) -> list[tuple[int, int]]:
    """The edges ``(i, j)`` a code stores, row by row, then column by column."""
    k = code[0]
    return [(i, j) for i, row in enumerate(code[3:]) for j in range(k) if row >> j & 1]


# -- library ---------------------------------------------------------------


class RuleLibrary:
    """Store of canonical rule codes with stable ids, in interning order.

    ``frequency`` counts accepted extractions.
    """

    def __init__(self):
        self.codes: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.frequency: list[int] = []

    def __len__(self) -> int:
        return len(self.codes)

    def intern_code(self, code: bytes) -> int:
        """Map a canonical code to its stable id, creating it if new."""
        rid = self.index.get(code)
        if rid is not None:
            return rid
        rid = len(self.codes)
        self.index[code] = rid
        self.codes.append(code)
        self.frequency.append(0)
        return rid

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
                    "k": code[0],
                    "edges": code_edges(code),
                    "i_mask": [bool(code[1] >> v & 1) for v in range(code[0])],
                    "o_mask": [bool(code[2] >> v & 1) for v in range(code[0])],
                    "frequency": self.frequency[rid],
                }
                for rid, code in enumerate(self.codes)
            ],
            "order": self.ordered_ids(),
        }


def rule_to_dot(code: bytes, name: str = "rule") -> str:
    """DOT rendering of a code with boundary edges drawn from/to phantom nodes."""
    k, i_mask, o_mask = code[:3]
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for v in range(k):
        lines.append(f"  n{v} [shape=circle, label=\"{v}\"];")
    for i, j in code_edges(code):
        lines.append(f"  n{i} -> n{j};")
    for v in range(k):
        if i_mask >> v & 1:
            lines.append(f"  in{v} [shape=point, style=invis];")
            lines.append(f"  in{v} -> n{v} [color=red, style=dashed];")
        if o_mask >> v & 1:
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
