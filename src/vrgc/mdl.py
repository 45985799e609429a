"""Edit-cost rule matching, the extraction-prediction model, and bit accounting.

The cost of matching a node set against a boundary-mask pair counts the edge
edits needed before the set is an exact occurrence.  For each external
neighbor with at least one boundary edge on a side, two repairs are possible:
rewire it to exactly the masked nodes, or delete all of its boundary edges on
that side (after which it simply is not attached on that side).  The cheaper
repair is taken, with deletion preferred on ties.  Externals with no boundary
edge on a side incur no requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graphs import DiGraph, EdgeEdit, EditKind
from .rules import Rule, from_node_set


class NOutOfRange(Exception):
    pass


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


# -- boundary analysis -----------------------------------------------------


def boundary_patterns(
    graph: DiGraph, nodes: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Per-external boundary bitmasks over the positions of ``nodes``.

    Returns ``(in_pats, out_pats)``; ``in_pats`` holds ``(external, mask)``
    where bit ``p`` of ``mask`` means the external points at ``nodes[p]``.
    """
    pos = {v: p for p, v in enumerate(nodes)}
    member = set(nodes)
    in_pats: dict[int, int] = {}
    out_pats: dict[int, int] = {}
    for v in nodes:
        p = pos[v]
        for u in graph.in_adj[v]:
            if u not in member:
                in_pats[u] = in_pats.get(u, 0) | 1 << p
        for w in graph.out_adj[v]:
            if w not in member:
                out_pats[w] = out_pats.get(w, 0) | 1 << p
    return sorted(in_pats.items()), sorted(out_pats.items())


def _external_cost(pattern: int, mask: int) -> int:
    """Cheapest repair for one external: rewire to the mask or detach."""
    return min((pattern ^ mask).bit_count(), pattern.bit_count())


@lru_cache(maxsize=1 << 18)
def _side_minima(patterns: tuple[int, ...], k: int) -> tuple[int, tuple[int, ...]]:
    """Minimum cost over all masks for one boundary side, with every
    minimizing mask.  ``patterns`` is the multiset of external bitmasks."""
    if not patterns:
        return 0, tuple(range(1 << k))
    best = None
    argmin: list[int] = []
    for mask in range(1 << k):
        c = sum(_external_cost(p, mask) for p in patterns)
        if best is None or c < best:
            best = c
            argmin = [mask]
        elif c == best:
            argmin.append(mask)
    return best, tuple(argmin)


def side_minima(patterns: list[tuple[int, int]], k: int) -> tuple[int, tuple[int, ...]]:
    return _side_minima(tuple(sorted(m for _, m in patterns)), k)


def edit_cost(
    graph: DiGraph, nodes: tuple[int, ...], i_mask: int, o_mask: int
) -> tuple[int, list[EdgeEdit]]:
    """Edit count and explicit edit list for one mask pair.

    Edits are listed externals-sorted, deletions before additions per
    external, and are exactly the edges toggled to make the set a cost-0
    occurrence of the mask-defined rule.
    """
    in_pats, out_pats = boundary_patterns(graph, nodes)
    edits: list[EdgeEdit] = []

    def repair(pattern: int, mask: int, external: int, incoming: bool) -> None:
        rewire = (pattern ^ mask).bit_count()
        detach = pattern.bit_count()
        target = 0 if detach <= rewire else mask
        for p in range(len(nodes)):
            have = pattern >> p & 1
            want = target >> p & 1
            if have and not want:
                kind = EditKind.DELETE
            elif want and not have:
                kind = EditKind.ADD
            else:
                continue
            if incoming:
                edits.append(EdgeEdit(external, nodes[p], kind))
            else:
                edits.append(EdgeEdit(nodes[p], external, kind))

    for u, pat in in_pats:
        repair(pat, i_mask, u, incoming=True)
    for w, pat in out_pats:
        repair(pat, o_mask, w, incoming=False)
    return len(edits), edits


@dataclass
class MaskAnalysis:
    """Minimum-cost boundary matching for one node set."""

    nodes: tuple[int, ...]
    cost: int
    i_options: tuple[int, ...]
    o_options: tuple[int, ...]

    def mask_pairs(self) -> list[tuple[int, int]]:
        return [(i, o) for i in self.i_options for o in self.o_options]


def analyze_set(graph: DiGraph, nodes: tuple[int, ...]) -> MaskAnalysis:
    """Evaluate every (i, o) mask pair; the two sides are independent, so
    the minimum-cost pairs are the product of the per-side minimizers."""
    k = len(nodes)
    in_pats, out_pats = boundary_patterns(graph, nodes)
    ic, iopts = side_minima(in_pats, k)
    oc, oopts = side_minima(out_pats, k)
    return MaskAnalysis(nodes, ic + oc, iopts, oopts)


@dataclass
class CandidateOccurrence:
    """A node set, one minimum-cost rule it matches, and the exact edits."""

    nodes: tuple[int, ...]
    rule: Rule
    cost: int
    edits: list[EdgeEdit]


def best_candidates(graph: DiGraph, nodes: set[int] | tuple[int, ...]) -> list[CandidateOccurrence]:
    """All minimum-cost candidates for a node set (ties all kept)."""
    ordered = tuple(sorted(nodes))
    analysis = analyze_set(graph, ordered)
    out = []
    for i_mask, o_mask in analysis.mask_pairs():
        cost, edits = edit_cost(graph, ordered, i_mask, o_mask)
        assert cost == analysis.cost
        rule = from_node_set(graph, ordered, i_mask, o_mask)
        out.append(CandidateOccurrence(ordered, rule, cost, edits))
    return out


# -- extraction-count prediction -------------------------------------------


class CostLevel(NamedTuple):
    c: int  # edit cost at this level
    x: int  # occurrences at this cost
    n: int  # total nodes covered by them


@dataclass(frozen=True)
class BitParams:
    C_R: int
    C_ID: int
    C_node: int
    C_edit: int


def _level_of_n(table: list[CostLevel], n: int) -> tuple[int, int]:
    """Index j reached extracting cheapest-first, and the count taken there."""
    total = sum(lv.x for lv in table)
    if not 1 <= n <= total:
        raise NOutOfRange(f"n={n} outside 1..{total}")
    consumed = 0
    for j, lv in enumerate(table):
        if n <= consumed + lv.x:
            return j, n - consumed
        consumed += lv.x
    raise AssertionError("unreachable")


def cost_of_n(table: list[CostLevel], params: BitParams, n: int) -> int:
    """Predicted bits to perform ``n`` extractions of a rule, cheapest first."""
    j, taken = _level_of_n(table, n)
    bits = params.C_R + params.C_ID + n * params.C_node
    bits += taken * table[j].c * params.C_edit
    bits += sum(lv.x * lv.c * params.C_edit for lv in table[:j])
    return bits


def nodes_of_n(table: list[CostLevel], n: int) -> Fraction:
    """Predicted node count removed by ``n`` extractions (may be fractional
    inside a partially consumed level)."""
    j, taken = _level_of_n(table, n)
    return Fraction(taken, table[j].x) * table[j].n + sum(lv.n for lv in table[:j])


def pcr(table: list[CostLevel], params: BitParams) -> tuple[Fraction, int]:
    """Best nodes-per-bit ratio over whole-level prefixes.

    Equal to the exhaustive maximum over every extraction count n; ties go
    to the smallest prefix.  Prefixes compare by cross-multiplication (bit
    counts are positive); the winner is returned exactly as a rational.
    """
    if not table:
        raise NOutOfRange("empty cost table")
    best_nodes, best_bits, best_j = 0, 1, -1
    nodes = 0
    bits = params.C_R + params.C_ID
    for j, lv in enumerate(table):
        nodes += lv.n
        bits += lv.x * (params.C_node + lv.c * params.C_edit)
        if best_j < 0 or nodes * best_bits > best_nodes * bits:
            best_nodes, best_bits, best_j = nodes, bits, j
    return Fraction(best_nodes, best_bits), best_j


# -- bit accounting --------------------------------------------------------


def b_graph(num_nodes: int, num_edges: int) -> int:
    """Bits for the minimalist adjacency-list graph encoding."""
    if num_nodes == 0:
        return 0
    width = ceil_log2(num_nodes)
    return max(0, 2 * width - 1) + num_nodes + num_edges * (width + 1)


def b_rule(k: int, n0: int) -> int:
    """Bits to define a k-node rule in an id space of ``n0`` nodes."""
    return ceil_log2(n0) + k * (ceil_log2(k) + 2) + k * (k - 1) + 1


def b_application(k: int, m: int, n0: int, same_rule_as_previous: bool) -> int:
    """Bits to record one application of a k-node rule with ``m`` edits."""
    bits = 2 + ceil_log2(n0) + m * (ceil_log2(k) + ceil_log2(n0) + 1)
    if not same_rule_as_previous:
        bits += ceil_log2(n0)
    return bits


@lru_cache(maxsize=256)
def default_params(k: int, n0: int, rule_already_defined: bool) -> BitParams:
    """Prediction parameters aligned with the realized application encoding:
    the 2-bit per-application opcode is folded into the per-node cost."""
    width = ceil_log2(n0)
    return BitParams(
        C_R=0 if rule_already_defined else b_rule(k, n0),
        C_ID=width,
        C_node=width + 2,
        C_edit=ceil_log2(k) + width + 1,
    )


@dataclass
class BitAccount:
    original_bits: int = 0
    rule_bits: int = 0
    application_bits: int = 0
    residual_bits: int = 0

    @property
    def compressed_bits(self) -> int:
        return self.rule_bits + self.application_bits + self.residual_bits

    def to_json_obj(self) -> dict:
        from .analysis import compression_rate

        return {
            "original_bits": self.original_bits,
            "rule_bits": self.rule_bits,
            "application_bits": self.application_bits,
            "residual_bits": self.residual_bits,
            "compressed_bits": self.compressed_bits,
            "compression_rate": compression_rate(self),
        }
