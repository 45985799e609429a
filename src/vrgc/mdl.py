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
from functools import lru_cache
from itertools import repeat

from .graphs import _BITS, DiGraph


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


# -- boundary analysis -----------------------------------------------------


@dataclass
class SetAnalysis:
    """One node set read out of the graph, over the positions of the
    ``nodes`` it was read from.

    ``adj`` holds the induced fragment's adjacency rows (bit ``j`` of
    ``adj[i]`` is the edge ``nodes[i] -> nodes[j]``).  ``in_pats`` maps
    each external to a mask where bit ``p`` means the external points at
    ``nodes[p]``; ``out_pats`` likewise for edges out of the set.
    ``i_masks`` and ``o_masks`` are each side's minimizing masks, as
    ``_side_minima`` returns them (cached, so often shared); the pairs of
    minimum boundary edit ``cost`` are their product, ``i_mask`` outer and
    ``o_mask`` inner.
    """

    adj: tuple[int, ...]
    in_pats: dict[int, int]
    out_pats: dict[int, int]
    cost: int
    i_masks: tuple[int, ...]
    o_masks: tuple[int, ...]


@lru_cache(maxsize=512)
def _mask_costs(p: int, k: int) -> int:
    """The cost of one external with pattern ``p`` under every mask of
    ``k`` positions, packed one byte per mask: byte ``m`` is the cheaper
    of rewiring (``popcount(p ^ m)``) and detaching (``popcount(p)``), at
    most ``k``.  Keyed by ``(p, k)`` alone, so it holds at most
    ``2**k`` entries per ``k``: 508 for ``k <= 8``, filled on first use."""
    detach = p.bit_count()
    costs = bytes([min((p ^ m).bit_count(), detach) for m in range(1 << k)])
    return int.from_bytes(costs, "little")


def _positions(values: bytes, value: int) -> list[int]:
    """Every index of ``value`` in ``values``, ascending."""
    found = []
    i = values.find(value)
    while i >= 0:
        found.append(i)
        i = values.find(value, i + 1)
    return found


@lru_cache(maxsize=1 << 18)
def _side_minima(patterns: tuple[int, ...], k: int) -> tuple[int, tuple[int, ...]]:
    """Minimum cost over all masks for one boundary side, with every
    minimizing mask, ascending.  ``patterns`` is the sorted multiset of
    external bitmasks.

    Each external costs the cheaper of its two repairs: rewiring it to the
    mask (the bits that differ) or detaching it (the bits it has).  The
    side's cost under every mask is one packed sum: a field of ``width``
    bytes per mask, wide enough for ``k`` per external, so no field
    carries into the next.  The per-pattern vectors of ``_mask_costs``
    have one-byte fields, so they are summed ``255 // k`` at a time and
    each partial sum is spread onto the wide fields.  The masks minimal
    on the most significant byte of each field are then narrowed down
    byte by byte.
    """
    size = 1 << k
    width = (k * len(patterns)).bit_length() // 8 + 1
    step = 255 // k
    spread = bytearray(width * size)
    total = 0
    for start in range(0, len(patterns), step):
        part = sum(map(_mask_costs, patterns[start:start + step], repeat(k)))
        spread[::width] = part.to_bytes(size, "little")
        total += int.from_bytes(spread, "little")
    packed = total.to_bytes(width * size, "little")
    plane = packed[width - 1::width]
    argmin = _positions(plane, min(plane))
    for b in reversed(range(width - 1)):
        plane = bytes([packed[m * width + b] for m in argmin])
        argmin = [argmin[i] for i in _positions(plane, min(plane))]
    first = argmin[0] * width
    return int.from_bytes(packed[first:first + width], "little"), tuple(argmin)


def analyze_set(graph: DiGraph, nodes: tuple[int, ...]) -> SetAnalysis:
    """Read a node set out of the graph in one walk over its members' in-
    and out-adjacency, then score every (i, o) mask pair.  The walk maps
    every in- and out-neighbour, members included, to its pattern; a
    member's in-pattern is its fragment row (bit ``j`` of ``nodes[i]``'s is
    the edge ``nodes[i] -> nodes[j]``), so the rows are popped off the
    in-patterns and the members off the out-patterns.  The two sides are
    independent, so the minimum-cost pairs are the product of the per-side
    minimizers."""
    k = len(nodes)
    in_pats: dict[int, int] = {}
    out_pats: dict[int, int] = {}
    for p, v in enumerate(nodes):
        bit = 1 << p
        for w in graph.out_adj[v]:
            out_pats[w] = out_pats.get(w, 0) | bit
        for u in graph.in_adj[v]:
            in_pats[u] = in_pats.get(u, 0) | bit
    adj = tuple([in_pats.pop(v, 0) for v in nodes])
    for v in nodes:
        out_pats.pop(v, None)
    ic, iopts = _side_minima(tuple(sorted(in_pats.values())), k)
    oc, oopts = _side_minima(tuple(sorted(out_pats.values())), k)
    return SetAnalysis(adj, in_pats, out_pats, ic + oc, iopts, oopts)


def boundary_edits(
    analysis: SetAnalysis, i_mask: int, o_mask: int
) -> list[tuple[int, int, str]]:
    """Edge toggles ``(position, external, direction)`` that make the
    analysed set an exact occurrence of the mask pair.  ``position``
    indexes the analysed nodes; ``direction`` is ``"in"`` for external ->
    set.

    Each external is detached when that costs no more than rewiring it to
    the mask.  Edits are listed in-side first, then out-side, externals
    ascending, and positions ascending per external.
    """
    edits = []
    for pats, mask, direction in (
        (analysis.in_pats, i_mask, "in"), (analysis.out_pats, o_mask, "out")
    ):
        for external, pat in sorted(pats.items()):
            rewire = pat ^ mask
            flips = pat if pat.bit_count() <= rewire.bit_count() else rewire
            edits.extend((p, external, direction) for p in _BITS[flips])
    return edits


# -- extraction-count prediction -------------------------------------------


@dataclass(frozen=True)
class BitParams:
    C_R: int
    C_ID: int
    C_node: int
    C_edit: int


def pcr(levels: dict[int, set], k: int, params: BitParams) -> tuple[int, int]:
    """Best nodes-per-bit over whole-level prefixes of a k-node rule's
    ``{cost: occurrences}`` table, as the exact pair ``(nodes, bits)``.
    Equal to the exhaustive maximum over every extraction count n; ties go
    to the smallest prefix, and prefixes compare by cross-multiplication
    (bit counts are positive)."""
    best_nodes, best_bits = 0, 1
    nodes = 0
    bits = params.C_R + params.C_ID
    for c, occurrences in sorted(levels.items()):
        nodes += len(occurrences) * k
        bits += len(occurrences) * (params.C_node + c * params.C_edit)
        if nodes * best_bits > best_nodes * bits:
            best_nodes, best_bits = nodes, bits
    return best_nodes, best_bits


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
    width = ceil_log2(n0)
    bits = 2 + width + m * (ceil_log2(k) + width + 1)
    if not same_rule_as_previous:
        bits += width
    return bits


@lru_cache(maxsize=256)
def default_params(k: int, n0: int, rule_already_defined: bool) -> BitParams:
    """Prediction parameters read off the realized encoding: a run of
    applications of one rule writes its id once (``C_ID``), and each
    application costs ``C_node`` plus ``C_edit`` per edit."""
    repeat = b_application(k, 0, n0, same_rule_as_previous=True)
    return BitParams(
        C_R=0 if rule_already_defined else b_rule(k, n0),
        C_ID=b_application(k, 0, n0, same_rule_as_previous=False) - repeat,
        C_node=repeat,
        C_edit=b_application(k, 1, n0, same_rule_as_previous=True) - repeat,
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
        return {
            "original_bits": self.original_bits,
            "rule_bits": self.rule_bits,
            "application_bits": self.application_bits,
            "residual_bits": self.residual_bits,
            "compressed_bits": self.compressed_bits,
            "compression_rate": compression_rate(self),
        }


def compression_rate(account: BitAccount) -> float:
    """1 minus the compressed-to-original bits ratio; negative when the
    model costs more than the raw encoding."""
    if account.original_bits <= 0:
        raise ValueError("original encoding must be positive")
    return 1.0 - account.compressed_bits / account.original_bits
