"""Greedy grammar extraction and the exact decoder.

Each iteration picks the rule with the highest predicted nodes-per-bit
ratio, extracts one cheapest occurrence of it (edge edits first, then
collapse to the smallest member id), and incrementally refreshes the
occurrence index around the nodes the extraction disturbed.  Selection is
incremental as well: only the rule codes whose occurrences changed since
the previous iteration are rescored, and the best score is read from a
lazily invalidated heap.  The records written along the way replay in
reverse to reproduce the input bit for bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .enumeration import (
    ConfigInvalid,
    EnumState,
    ExtractConfig,
    affected_nodes,
    enumerate_connected_sets,
    update_after_extraction,
)
from .graphs import DiGraph
from .mdl import (
    BitAccount,
    CostLevel,
    b_application,
    b_graph,
    b_rule,
    boundary_edits,
    boundary_patterns,
    default_params,
    pcr,
)
from .rules import RuleLibrary, apply_rule, canonical_form, fragment_adj, rule_from_code


class StaleCandidate(Exception):
    """The occurrence index disagreed with the graph at extraction time."""


class CorruptRecord(Exception):
    """A replay step referenced ids or edges inconsistent with the graph."""


@dataclass(frozen=True)
class ApplicationRecord:
    """One accepted extraction, sufficient to invert it.

    ``node_ids[p]`` is the original node id standing at canonical fragment
    position ``p``.  ``edits`` are edge toggles ``(position, external,
    direction)`` applied immediately before the collapse; ``direction`` is
    ``"in"`` for external -> fragment.  ``boundary`` and ``multi_boundary``
    snapshot the pre-edit externals for incremental-update bookkeeping and
    are not needed for decoding.
    """

    rule_id: int
    node_ids: tuple[int, ...]
    edits: tuple[tuple[int, int, str], ...]
    boundary: frozenset[int] = frozenset()
    multi_boundary: frozenset[int] = frozenset()

    @property
    def survivor(self) -> int:
        return min(self.node_ids)

    @property
    def freed_ids(self) -> tuple[int, ...]:
        s = self.survivor
        return tuple(sorted(v for v in self.node_ids if v != s))


@dataclass
class ExtractionResult:
    grammar: RuleLibrary
    records: list[ApplicationRecord]
    residual: DiGraph
    account: BitAccount
    rule_stats: dict[int, dict]
    config: ExtractConfig
    iterations: int = 0
    runtime_seconds: float = 0.0


@dataclass(frozen=True)
class Choice:
    rule_id: int
    code: bytes
    value: Fraction
    nodes: tuple[int, ...]
    pair: tuple[int, int]
    cost: int


def _cost_table(levels: dict[int, set[tuple[int, ...]]], k: int) -> list[CostLevel]:
    return [CostLevel(c, len(levels[c]), len(levels[c]) * k) for c in sorted(levels)]


class _Key:
    """Selection order of one rule code: the higher predicted nodes-per-bit
    first, then the cheaper occurrence, the smaller fragment and the older
    rule id.  Values compare exactly by cross-multiplying numerators and
    (positive) denominators; rule ids are unique, so no two keys tie."""

    __slots__ = ("value", "num", "den", "cost", "k", "rid", "code")

    def __init__(self, value: Fraction, cost: int, k: int, rid: int, code: bytes):
        self.value = value
        self.num = value.numerator
        self.den = value.denominator
        self.cost = cost
        self.k = k
        self.rid = rid
        self.code = code

    def __lt__(self, other: "_Key") -> bool:
        mine = self.num * other.den
        theirs = other.num * self.den
        if mine != theirs:
            return mine > theirs
        return (self.cost, self.k, self.rid) < (other.cost, other.k, other.rid)


def select_best(
    state: EnumState, library: RuleLibrary, n0: int
) -> Optional[Choice]:
    """Highest predicted nodes-per-bit rule plus one cheapest occurrence.

    Only the codes in ``state.dirty`` are rescored; every other code keeps
    the key stored at its last scoring.  Each new key is pushed onto
    ``state.heap``, and an entry that is no longer its code's stored key is
    dropped when it reaches the top.  The heap is rebuilt from the stored
    keys once stale entries outnumber live ones two to one.  The returned
    code is marked dirty, because extracting it defines its rule and so
    changes its score.  ``state`` must be scored against one ``library``
    and ``n0`` throughout.

    Ties break toward the cheaper occurrence, then the smaller fragment,
    then the older rule id, then the lexicographically smallest node set.
    """
    keys, heap = state.keys, state.heap
    for code in state.dirty:
        levels = state.tables.get(code)
        if levels is None:
            keys.pop(code, None)
            continue
        rid = library.index[code]
        k = code[0]
        params = default_params(k, n0, library.frequency[rid] > 0)
        table = _cost_table(levels, k)
        value, _ = pcr(table, params)
        key = keys[code] = _Key(value, table[0].c, k, rid, code)
        heapq.heappush(heap, key)
    state.dirty.clear()
    if len(heap) > 3 * len(keys):
        heap[:] = keys.values()
        heapq.heapify(heap)
    while heap and keys.get(heap[0].code) is not heap[0]:
        heapq.heappop(heap)
    if not heap:
        return None
    best = heap[0]
    state.dirty.add(best.code)
    nodes = min(state.tables[best.code][best.cost])
    entry = state.entries[nodes]
    pair = entry.pairs[entry.codes.index(best.code)]
    return Choice(best.rid, best.code, best.value, nodes, pair, best.cost)


def extract_one(graph: DiGraph, choice: Choice, library: RuleLibrary) -> ApplicationRecord:
    """Apply the chosen occurrence in place and return its replay record."""
    nodes = choice.nodes
    i_mask, o_mask = choice.pair
    in_pats, out_pats = boundary_patterns(graph, nodes)
    boundary = frozenset(u for u, _ in in_pats) | frozenset(w for w, _ in out_pats)
    counts: dict[int, int] = {}
    for u, pat in in_pats:
        counts[u] = counts.get(u, 0) + pat.bit_count()
    for w, pat in out_pats:
        counts[w] = counts.get(w, 0) + pat.bit_count()
    multi = frozenset(v for v, c in counts.items() if c >= 2)
    edits = boundary_edits(nodes, in_pats, out_pats, i_mask, o_mask)
    if len(edits) != choice.cost:
        raise StaleCandidate(
            f"occurrence {nodes} scored {choice.cost} but costs {len(edits)} now"
        )
    _, perm = canonical_form(len(nodes), fragment_adj(graph, nodes), i_mask, o_mask)
    node_ids = tuple(nodes[old] for old in perm)
    set_pos = {v: p for p, v in enumerate(nodes)}
    canon_pos = {old: new for new, old in enumerate(perm)}
    packed = []
    for e in edits:
        if e.src in set_pos:
            packed.append((canon_pos[set_pos[e.src]], e.dst, "out"))
        else:
            packed.append((canon_pos[set_pos[e.dst]], e.src, "in"))
        graph.apply_edit(e)
    graph.collapse(set(nodes))
    return ApplicationRecord(
        choice.rule_id, node_ids, tuple(packed), boundary, multi
    )


def extract(graph: DiGraph, config: ExtractConfig) -> ExtractionResult:
    started = time.perf_counter()
    g = graph.copy()
    n0 = g.n0
    if n0 < 1:
        raise ConfigInvalid("cannot extract from an empty graph")
    original_edges = g.num_edges()
    library = RuleLibrary()
    state = EnumState()
    probe = lambda nodes: state.register(g, nodes, library)
    for _ in enumerate_connected_sets(g, config, cost_probe=probe):
        pass
    records: list[ApplicationRecord] = []
    # With ``mdl_stop``, bits[p] is the whole encoding's size after the
    # first p records: rules used, applications and the residual.
    bits = [b_graph(n0, original_edges)]
    written = 0
    while True:
        choice = select_best(state, library, n0)
        if choice is None:
            break
        record = extract_one(g, choice, library)
        if config.mdl_stop:
            k = choice.code[0]
            same = bool(records) and records[-1].rule_id == choice.rule_id
            written += b_application(k, len(record.edits), n0, same_rule_as_previous=same)
            if library.frequency[choice.rule_id] == 0:
                written += b_rule(k, n0)
            bits.append(written + b_graph(g.num_nodes(), g.num_edges()))
        library.record_extraction(choice.rule_id)
        records.append(record)
        affected = affected_nodes(g, record)
        affected |= record.boundary
        affected |= set(record.freed_ids)
        update_after_extraction(state, g, affected, config, library)
    if config.mdl_stop:
        # Keep the shortest prefix with the fewest bits; undo the rest.
        keep = bits.index(min(bits))
        if keep < len(records):
            g = replay(g, records[keep:], library)
            for record in records[keep:]:
                library.frequency[record.rule_id] -= 1
            del records[keep:]
    account = BitAccount(
        original_bits=b_graph(n0, original_edges),
        rule_bits=sum(
            b_rule(library.rules[rid].k, n0)
            for rid in range(len(library))
            if library.frequency[rid] > 0
        ),
        application_bits=realized_application_bits(records, library, n0),
        residual_bits=b_graph(g.num_nodes(), g.num_edges()),
    )
    return ExtractionResult(
        grammar=library,
        records=records,
        residual=g,
        account=account,
        rule_stats=_rule_stats(records),
        config=config,
        iterations=len(records),
        runtime_seconds=time.perf_counter() - started,
    )


def _rule_stats(records: list[ApplicationRecord]) -> dict[int, dict]:
    """Per used rule: extractions, their edit-cost histogram and edges
    edited.  An occurrence's cost is the number of edits it needed."""
    rule_stats: dict[int, dict] = {}
    for record in records:
        stats = rule_stats.setdefault(
            record.rule_id, {"frequency": 0, "cost_histogram": {}, "edges_edited": 0}
        )
        cost = len(record.edits)
        stats["frequency"] += 1
        stats["cost_histogram"][cost] = stats["cost_histogram"].get(cost, 0) + 1
        stats["edges_edited"] += cost
    return rule_stats


def realized_application_bits(
    records: list[ApplicationRecord], library: RuleLibrary, n0: int
) -> int:
    bits = 0
    previous = None
    for record in records:
        k = library.rules[record.rule_id].k
        bits += b_application(
            k, len(record.edits), n0, same_rule_as_previous=record.rule_id == previous
        )
        previous = record.rule_id
    return bits


def decode(result: ExtractionResult) -> DiGraph:
    """Reconstruct the original graph from an extraction result."""
    return replay(result.residual, result.records, result.grammar)


def replay(
    residual: DiGraph, records: list[ApplicationRecord], library: RuleLibrary
) -> DiGraph:
    """Replay records newest first, regrowing each collapsed fragment and
    then re-toggling its recorded edits."""
    g = residual.copy()
    for record in reversed(records):
        try:
            rule = rule_from_code(library.codes[record.rule_id])
        except IndexError as exc:
            raise CorruptRecord(f"unknown rule id {record.rule_id}") from exc
        try:
            apply_rule(g, record.survivor, rule, record.node_ids)
            for position, external, direction in record.edits:
                member = record.node_ids[position]
                if direction == "in":
                    g.toggle_edge(external, member)
                elif direction == "out":
                    g.toggle_edge(member, external)
                else:
                    raise CorruptRecord(f"bad edit direction {direction!r}")
        except CorruptRecord:
            raise
        except Exception as exc:
            raise CorruptRecord(f"replay failed at rule {record.rule_id}: {exc}") from exc
    return g
