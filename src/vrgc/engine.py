"""Greedy grammar extraction and the exact decoder.

Each iteration picks the rule with the highest predicted nodes-per-bit
ratio, extracts one cheapest occurrence of it (edge edits first, then
collapse to the smallest member id), and refreshes the occurrence index
by revisiting only the sets whose reading the extraction can change:
those that hold a member of the set, an edit's external, or an external
tied to two or more members.  Selection is incremental as well: only the
rule codes whose occurrences changed since the previous iteration are
rescored, and the best score is read from a lazily invalidated heap.
The records written along the way replay in reverse to reproduce the
input bit for bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from itertools import accumulate, product
from typing import Iterator, Optional

from .enumeration import (
    ConfigInvalid,
    EnumState,
    ExtractConfig,
    enumerate_connected_sets,
    update_after_extraction,
)
from .graphs import DiGraph
from .mdl import (
    BitAccount,
    analyze_set,
    b_application,
    b_graph,
    b_rule,
    boundary_edits,
    default_params,
    pcr,
)
from .rules import RuleLibrary, canonical_form


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
    ``"in"`` for external -> fragment.
    """

    rule_id: int
    node_ids: tuple[int, ...]
    edits: tuple[tuple[int, int, str], ...]

    @property
    def survivor(self) -> int:
        return min(self.node_ids)


@dataclass
class ExtractionResult:
    """``grammar`` holds only the rules the records use (``used_grammar``)."""

    grammar: RuleLibrary
    records: list[ApplicationRecord]
    residual: DiGraph
    account: BitAccount
    config: ExtractConfig
    runtime_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Choice:
    """A selected rule and one cheapest occurrence, scored by ``state.keys[code]``;
    ``extract_one`` checks the code and cost against the graph."""

    rule_id: int
    code: bytes
    nodes: tuple[int, ...]
    cost: int


class _Key:
    """Selection order of one rule code: the higher predicted nodes-per-bit
    first, then the cheaper occurrence, the smaller fragment and the older
    rule id.  ``mdl.pcr``'s ``(nodes, bits)`` pairs compare by cross-multiplying
    (bits are positive), so equal ratios tie; rule ids are unique, so no two keys do."""

    __slots__ = ("nodes", "bits", "cost", "k", "rid", "code")

    def __init__(self, nodes: int, bits: int, cost: int, k: int, rid: int, code: bytes):
        self.nodes = nodes
        self.bits = bits
        self.cost = cost
        self.k = k
        self.rid = rid
        self.code = code

    def __lt__(self, other: "_Key") -> bool:
        mine = self.nodes * other.bits
        theirs = other.nodes * self.bits
        if mine != theirs:
            return mine > theirs
        return (self.cost, self.k, self.rid) < (other.cost, other.k, other.rid)


def select_best(state: EnumState) -> Optional[Choice]:
    """The rule code whose table scores best by ``mdl.pcr``, plus one cheapest occurrence.

    Only the codes in ``state.dirty`` are rescored; every other code keeps
    the key stored at its last scoring.  Each new key is pushed onto
    ``state.heap``, and an entry that is no longer its code's stored key is
    dropped when it reaches the top.  The heap is rebuilt from the stored
    keys once stale entries outnumber live ones two to one.

    Ties break toward the cheaper occurrence, then the smaller fragment,
    then the older rule id, then the lexicographically smallest node set.
    """
    keys, heap, library = state.keys, state.heap, state.library
    n0 = state.graph.n0
    for code in state.dirty:
        levels = state.tables.get(code)
        if levels is None:
            keys.pop(code, None)
            continue
        rid = library.index[code]
        k = code[0]
        params = default_params(k, n0, library.frequency[rid] > 0)
        key = keys[code] = _Key(*pcr(levels, k, params), min(levels), k, rid, code)
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
    nodes = min(state.tables[best.code][best.cost])
    return Choice(best.rid, best.code, nodes, best.cost)


def extract_one(graph: DiGraph, choice: Choice) -> tuple[ApplicationRecord, set[int]]:
    """Build the chosen occurrence's replay record, then apply it in
    place: toggle its edits and collapse its nodes.  The record follows the
    first minimum-cost mask pair with the chosen code, as registration saw
    it; ``StaleCandidate``, before any edit, if no pair at that cost has it.

    Returns the record and the nodes whose sets may read differently: the
    set, every edit's external, and every external tied to two or more
    members on a side.  The index update revisits exactly the sets that
    hold one of these nodes, and it is exact:

    - ``boundary_edits`` names no external only when its pattern already
      equals that side's mask, so on each side every external that no
      edit names has pattern 0 or exactly the mask.
    - If the mask has two or more bits, those externals lose edges in the
      collapse's merge, and they are in ``changed``.
    - If the mask is the single bit of member ``m``, take a set ``T`` that
      holds no node of ``changed``.  On that side every member of ``T``
      that touches the extracted set touches only ``m``, so ``m`` is
      ``T``'s only external from the extracted set there, and the
      collapse only renames ``m`` to the survivor: the external keeps its
      pattern over ``T``.  ``T``'s rows and other externals are untouched,
      so its reading ``(adj, sorted in-patterns, sorted out-patterns)``,
      and with it its cost, masks, codes and weak connectivity, stay the
      same, although the adjacency of its members tied to ``m`` changed.
    - Sets that hold ``m`` or the survivor hold a node of ``changed``
      already."""
    nodes = choice.nodes
    analysis = analyze_set(graph, nodes)
    pairs = product(analysis.i_masks, analysis.o_masks) if analysis.cost == choice.cost else ()
    for i_mask, o_mask in pairs:
        code, perm = canonical_form(len(nodes), analysis.adj, i_mask, o_mask)
        if code == choice.code:
            break
    else:
        raise StaleCandidate(f"{nodes} no longer has rule {choice.rule_id} at cost {choice.cost}")
    edits = boundary_edits(analysis, i_mask, o_mask)
    canon_pos = {old: new for new, old in enumerate(perm)}
    record = ApplicationRecord(
        choice.rule_id,
        tuple(nodes[old] for old in perm),
        tuple((canon_pos[p], external, d) for p, external, d in edits),
    )
    _toggle_edits(graph, record)
    graph.collapse(set(nodes))
    changed = {*nodes, *(external for _, external, _ in edits)}
    for pats in (analysis.in_pats, analysis.out_pats):
        changed.update(x for x, pat in pats.items() if pat & (pat - 1))
    return record, changed


def incident_edges(graph: DiGraph, nodes: tuple[int, ...]) -> int:
    """The number of edges with at least one endpoint in ``nodes``."""
    return sum(
        len(graph.out_adj[v]) + sum(u not in nodes for u in graph.in_adj[v]) for v in nodes
    )


def _toggle_edits(graph: DiGraph, record: ApplicationRecord) -> None:
    """Toggle a record's edits in one ``toggle_edges`` batch: extraction
    makes them and replay undoes them with the same call."""
    node_ids = record.node_ids
    graph.toggle_edges(
        (external, node_ids[p]) if direction == "in" else (node_ids[p], external)
        for p, external, direction in record.edits
    )


def extract(graph: DiGraph, config: ExtractConfig) -> ExtractionResult:
    started = time.perf_counter()
    g = graph.copy()
    n0 = g.n0
    if n0 < 1:
        raise ConfigInvalid("cannot extract from an empty graph")
    state = EnumState(g, config)
    library = state.library
    for _ in enumerate_connected_sets(state):
        pass
    records: list[ApplicationRecord] = []
    edges = g.num_edges()
    original_bits = b_graph(g.num_nodes(), edges)
    # residual_bits[p] is the residual's size after the first p records;
    # ``mdl_stop`` reads it.  ``edges`` follows the residual's edge count:
    # the edits only touch edges with an endpoint in the set, and the
    # collapse replaces all of those by the survivor's.
    residual_bits = [original_bits]
    while (choice := select_best(state)) is not None:
        edges -= incident_edges(g, choice.nodes)
        record, changed = extract_one(g, choice)
        edges += incident_edges(g, (record.survivor,))
        residual_bits.append(b_graph(g.num_nodes(), edges))
        library.record_extraction(choice.rule_id)
        records.append(record)
        update_after_extraction(state, changed)
    if config.mdl_stop:
        # Keep the shortest prefix with the fewest bits; undo the rest.
        written = accumulate(map(sum, record_bits(records, library.codes, n0)), initial=0)
        totals = [w + r for w, r in zip(written, residual_bits)]
        keep = totals.index(min(totals))
        g = replay(g, records[keep:], library)
        del records[keep:]
    grammar, records = used_grammar(library.codes, records)
    return ExtractionResult(
        grammar=grammar,
        records=records,
        residual=g,
        account=bit_account(records, grammar.codes, g, original_bits),
        config=config,
        runtime_seconds=time.perf_counter() - started,
    )


def used_grammar(
    codes: list[bytes], records: list[ApplicationRecord]
) -> tuple[RuleLibrary, list[ApplicationRecord]]:
    """The grammar of ``records``: the rules they use, numbered in ascending
    order of their index in ``codes``, with frequencies counted from the
    records; and the records renumbered into it."""
    grammar = RuleLibrary()
    for rid in sorted({record.rule_id for record in records}):
        grammar.intern_code(codes[rid])
    renumbered = []
    for record in records:
        rid = grammar.index[codes[record.rule_id]]
        grammar.record_extraction(rid)
        renumbered.append(record if rid == record.rule_id else replace(record, rule_id=rid))
    return grammar, renumbered


def record_bits(
    records: list[ApplicationRecord], codes: list[bytes], n0: int
) -> Iterator[tuple[int, int]]:
    """Each record's rule bits and application bits, in record order.  A
    rule's definition is charged to the first record that uses it, and a
    record writes its rule id only when the previous record used another
    rule."""
    defined: set[int] = set()
    previous = None
    for record in records:
        rid = record.rule_id
        k = codes[rid][0]
        rule = 0 if rid in defined else b_rule(k, n0)
        defined.add(rid)
        yield rule, b_application(k, len(record.edits), n0, same_rule_as_previous=rid == previous)
        previous = rid


def bit_account(
    records: list[ApplicationRecord], codes: list[bytes], residual: DiGraph, original_bits: int
) -> BitAccount:
    """The encoding's bit account: the rules the records use, their
    applications and the residual graph, against ``original_bits``."""
    bits = list(record_bits(records, codes, residual.n0))
    return BitAccount(
        original_bits=original_bits,
        rule_bits=sum(rule for rule, _ in bits),
        application_bits=sum(application for _, application in bits),
        residual_bits=b_graph(residual.num_nodes(), residual.num_edges()),
    )


def decode(result: ExtractionResult) -> DiGraph:
    """Reconstruct the original graph from an extraction result, and check
    that its plain encoding takes the account's ``original_bits``."""
    g = replay(result.residual, result.records, result.grammar)
    bits = b_graph(g.num_nodes(), g.num_edges())
    if bits != result.account.original_bits:
        raise CorruptRecord(
            f"decoded graph takes {bits} bits, the account says {result.account.original_bits}"
        )
    return g


def replay(residual: DiGraph, records: list[ApplicationRecord], library: RuleLibrary) -> DiGraph:
    """Replay records newest first, regrowing each collapsed fragment at
    its survivor with ``DiGraph.expand`` and re-toggling its edits.  It
    trusts the records' fields and the codes, which ``extract`` makes valid
    and the loader checks once; ``expand`` and ``toggle_edges`` check the
    graph at each step, and every fault ends in ``CorruptRecord``."""
    g = residual.copy()
    codes = library.codes
    for record in reversed(records):
        try:
            code = codes[record.rule_id]
            g.expand(record.node_ids, code[3:], code[1], code[2])
            _toggle_edits(g, record)
        except Exception as exc:
            raise CorruptRecord(f"replay failed at rule {record.rule_id}: {exc}") from exc
    return g
