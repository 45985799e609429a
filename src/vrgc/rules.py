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
It is the one check of a stored code: ``engine.replay`` passes a code's
rows and masks straight to ``DiGraph.expand``, which trusts them.

Canonical codes are computed on the fields ``(k, adj, i_mask, o_mask)``
and memoized in ``canonical_form``'s ``lru_cache`` under that tuple, so
a repeated lookup allocates nothing; ``vrgc.enumeration`` describes the
tables registration keeps in front of it.  The search refines positions
by invariants first and tries only the arrangements inside tied groups,
as McKay's canonical labelling does.  A miss does not validate the
fragment, because no caller can pass an invalid one: the enumeration
registers only weakly connected sets of a graph with no self-loops;
``extract_one`` compares the code of the set it re-reads with the chosen
one, and a stale set that came apart has disconnected rows, so its code
equals no registered code and it raises ``StaleCandidate``; and
``check_codes`` validates each stored code before it canonicalises it.
That cache is the only memo of canonicalization that outlives an
extraction: ``canonical_form.cache_clear()``, which the benchmark calls
before each round, starts it cold.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import _BITS

K_HARD_MAX = 8


class RuleError(Exception):
    pass


# -- canonicalization ------------------------------------------------------


def _invariant_order(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int):
    """Each position's (i, o, out-degree, in-degree) invariant, and the
    positions stably sorted by it.

    Each invariant tuple is packed into one int that sorts the same way:
    degrees are at most 7 (k <= 8, no self-loops), so three bits each.
    """
    invariant = [
        (i_mask >> v & 1) << 7 | (o_mask >> v & 1) << 6 | row.bit_count() << 3
        for v, row in enumerate(adj)
    ]
    for row in adj:
        for j in _BITS[row]:
            invariant[j] += 1
    return invariant, sorted(range(k), key=invariant.__getitem__)


# A permutation of fragment positions is a tuple ``perm`` with
# ``perm[new] = old``: new position ``new`` holds old position ``old``.


def relabel_table(perm) -> list[int]:
    """``bit[old] = 1 << new``: the new place of each old position."""
    bit = [0] * len(perm)
    for new, old in enumerate(perm):
        bit[old] = 1 << new
    return bit


def relabel(x: int, bit: list[int]) -> int:
    """A row or mask ``x`` moved onto the new positions of ``bit``."""
    acc = 0
    for j in _BITS[x]:
        acc |= bit[j]
    return acc


def _candidate_perms(invariant: list[int], order: list[int]):
    """The permutations compatible with the invariant-sorted position order.

    Only permutations within equal-invariant groups can alter the
    serialization, so the search is the product of within-group
    arrangements of ``order``, each group in its order there.
    """
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
    maps canonical positions to the fragment's original positions.  The
    cache key is the plain ``(k, adj, i_mask, o_mask)`` tuple.  The fields
    are not validated (see the module docstring): bits must lie inside
    ``k``, and only a weakly connected fragment without self-loops gets
    the code of a rule.

    A bare fragment (both masks 0) whose invariants tie and whose
    positions are not already in invariant order is relabelled into that
    order, and its form is the sorted fragment's, looked up through this
    same cache, with the permutation composed back onto the original
    positions.  This is exact, permutation included: the candidates of
    the two fragments correspond one to one, in the same order, and each
    pair builds the same rows.  So every position order of one bare shape
    that sorts to the same fragment shares one search.

    Each candidate's rows are built in position order and compared with the
    best rows so far; the candidate is abandoned at its first greater row.
    """
    invariant, order = _invariant_order(k, adj, i_mask, o_mask)
    if len(set(invariant)) == k:
        candidates = (tuple(order),)
    elif not (i_mask or o_mask) and order != list(range(k)):
        bit = relabel_table(order)
        code, perm = canonical_form(k, tuple([relabel(adj[old], bit) for old in order]), 0, 0)
        return code, tuple([order[q] for q in perm])
    else:
        candidates = _candidate_perms(invariant, order)
    best_rows = best_perm = None
    for perm in candidates:
        bit = relabel_table(perm)
        rows = []
        tied = best_rows is not None
        for p, old in enumerate(perm):
            acc = relabel(adj[old], bit)
            if tied:
                if acc > best_rows[p]:
                    break
                tied = acc == best_rows[p]
            rows.append(acc)
        else:
            if not tied:
                best_rows, best_perm = rows, perm
    bit = relabel_table(best_perm)
    return bytes((k, relabel(i_mask, bit), relabel(o_mask, bit), *best_rows)), best_perm


def canonical_code(k: int, adj: tuple[int, ...], i_mask: int, o_mask: int) -> bytes:
    return canonical_form(k, adj, i_mask, o_mask)[0]


def _weakly_connected(rows: bytes) -> bool:
    und = list(rows)
    for i, row in enumerate(rows):
        for j in _BITS[row]:
            und[j] |= 1 << i
    seen = frontier = 1
    while frontier:
        nxt = 0
        for j in _BITS[frontier]:
            nxt |= und[j]
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
    return [(i, j) for i, row in enumerate(code[3:]) for j in _BITS[row]]


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
