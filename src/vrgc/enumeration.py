"""Connected node-set enumeration and the incremental occurrence index.

Sets are enumerated uniquely by a branch-and-exclude search: every weakly
connected set is generated exactly once, from its smallest member (or its
smallest member among the requested roots when the search is restricted).
Supersets of a set that scores too far above the cheapest known occurrence
are pruned via the shortcut inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .graphs import DiGraph
from .mdl import analyze_set
from .rules import K_HARD_MAX, RuleLibrary, canonical_code, fragment_adj

INFINITE_COST = math.inf


class ConfigInvalid(Exception):
    pass


@dataclass(frozen=True)
class ExtractConfig:
    k_min: int = 2
    k_max: int = 3
    shortcut_s: Optional[int] = 1  # None disables the heuristic
    seed: int = 0
    mdl_stop: bool = False

    def __post_init__(self):
        if self.k_min < 2:
            raise ConfigInvalid("k_min must be at least 2")
        if self.k_max > K_HARD_MAX:
            raise ConfigInvalid(f"k_max must be at most {K_HARD_MAX}")
        if self.k_min > self.k_max:
            raise ConfigInvalid("k_min must not exceed k_max")
        if self.shortcut_s is not None and self.shortcut_s < 0:
            raise ConfigInvalid("shortcut parameter must be non-negative")


def should_extend(c, c_best, k: int, config: ExtractConfig) -> bool:
    """Whether supersets of a set with cost ``c`` are worth enumerating.

    Extension continues while ``c <= c_best + min(1 + k_max - k,
    s + ceil(ln(k_max - k)))``; always true with the heuristic disabled.
    """
    if config.shortcut_s is None:
        return True
    if c_best == INFINITE_COST:
        return True
    remaining = config.k_max - k
    slack = min(
        1 + remaining,
        config.shortcut_s + math.ceil(math.log(remaining)),
    )
    return c <= c_best + slack


CostProbe = Callable[[tuple[int, ...]], int]


def enumerate_connected_sets(
    graph: DiGraph,
    config: ExtractConfig,
    cost_probe: Optional[CostProbe] = None,
    roots: Optional[set[int]] = None,
    c_best: float = INFINITE_COST,
) -> Iterator[tuple[int, ...]]:
    """Stream weakly connected node sets with ``k_min <= |S| <= k_max``.

    With ``roots`` given, only sets containing at least one root are
    produced (each exactly once).  ``cost_probe`` is called on every
    emitted set; its value feeds the shortcut pruning and updates the
    running cheapest cost.
    """
    if roots is None:
        root_list = sorted(graph.active)
    else:
        root_list = sorted(set(roots) & graph.active)
    best = [c_best]
    k_min, k_max = config.k_min, config.k_max

    def probe(nodes: tuple[int, ...]) -> Optional[int]:
        if cost_probe is None:
            return None
        c = cost_probe(nodes)
        if c < best[0]:
            best[0] = c
        return c

    def grow(members: set[int], excluded: set[int]) -> Iterator[tuple[int, ...]]:
        frontier: set[int] = set()
        for v in members:
            frontier |= graph.neighbors(v)
        frontier -= members
        frontier -= excluded
        local_excluded = set(excluded)
        for w in sorted(frontier):
            grown = members | {w}
            extend = True
            if len(grown) >= k_min:
                nodes = tuple(sorted(grown))
                yield nodes
                c = probe(nodes)
                if c is not None and len(grown) < k_max:
                    extend = should_extend(c, best[0], len(grown), config)
            if extend and len(grown) < k_max:
                yield from grow(grown, local_excluded)
            local_excluded.add(w)

    processed: set[int] = set()
    for r in root_list:
        if r in processed:
            continue
        yield from grow({r}, processed)
        processed.add(r)


# -- occurrence index ------------------------------------------------------


@dataclass
class SetEntry:
    nodes: tuple[int, ...]
    cost: int
    pairs: list[tuple[int, int]]  # one representative (i, o) mask pair per code
    codes: list[bytes]


class EnumState:
    """Registered occurrences plus per-rule cost aggregation.

    ``tables[code][cost]`` holds the node sets matching that rule at that
    cost; the cheapest registered cost is tracked for the shortcut bound.
    ``dirty`` collects the codes whose tables changed since rule selection
    last read them; ``keys`` and ``heap`` hold the selection's scores and
    belong to ``engine.select_best``.
    """

    def __init__(self):
        self.entries: dict[tuple[int, ...], SetEntry] = {}
        self.tables: dict[bytes, dict[int, set[tuple[int, ...]]]] = {}
        self._cost_counts: dict[int, int] = {}
        self.dirty: set[bytes] = set()
        self.keys: dict = {}
        self.heap: list = []

    def c_best(self) -> float:
        return min(self._cost_counts) if self._cost_counts else INFINITE_COST

    def __len__(self) -> int:
        return len(self.entries)

    def register(self, graph: DiGraph, nodes: tuple[int, ...], library: RuleLibrary) -> int:
        """Score a node set, intern its minimum-cost rules, index it.

        The fragment adjacency is built once per set, and each minimum-cost
        mask pair is looked up by its raw ``(k, adj, i_mask, o_mask)``
        fields; ``rules.canonical_form`` caches under that key and validates
        a fragment only on its first miss.  The only memo tables consulted
        here are the ``lru_cache``s of ``rules.canonical_form`` and
        ``mdl._side_minima``, so clearing both (as the benchmark does before
        each round) starts registration cold.  Idempotent per set
        (re-registration replaces the old entry).
        """
        if nodes in self.entries:
            self.remove_set(nodes)
        analysis = analyze_set(graph, nodes)
        k = len(nodes)
        adj = fragment_adj(graph, nodes)
        seen: dict[bytes, tuple[int, int]] = {}
        for i_mask, o_mask in analysis.mask_pairs():
            code = canonical_code(k, adj, i_mask, o_mask)
            if code not in seen:
                seen[code] = (i_mask, o_mask)
                library.intern_code(code)
        entry = SetEntry(nodes, analysis.cost, list(seen.values()), list(seen))
        self.entries[nodes] = entry
        self._cost_counts[entry.cost] = self._cost_counts.get(entry.cost, 0) + 1
        for code in entry.codes:
            self.tables.setdefault(code, {}).setdefault(entry.cost, set()).add(nodes)
        self.dirty.update(entry.codes)
        return entry.cost

    def remove_set(self, nodes: tuple[int, ...]) -> None:
        entry = self.entries.pop(nodes, None)
        if entry is None:
            return
        count = self._cost_counts[entry.cost] - 1
        if count:
            self._cost_counts[entry.cost] = count
        else:
            del self._cost_counts[entry.cost]
        for code in entry.codes:
            levels = self.tables[code]
            levels[entry.cost].discard(nodes)
            if not levels[entry.cost]:
                del levels[entry.cost]
            if not levels:
                del self.tables[code]
        self.dirty.update(entry.codes)

    def remove_touching(self, nodes: set[int]) -> None:
        doomed = [t for t in self.entries if nodes.intersection(t)]
        for t in doomed:
            self.remove_set(t)


def affected_nodes(graph_after: DiGraph, record) -> set[int]:
    """Nodes whose occurrence registrations an extraction may invalidate:
    the survivor, edit endpoints, and externals that held multiple boundary
    edges to the collapsed set."""
    out = {record.survivor}
    for _, external, _ in record.edits:
        out.add(external)
    out |= set(record.multi_boundary)
    return out & graph_after.active


def update_after_extraction(
    state: EnumState,
    graph: DiGraph,
    affected: set[int],
    config: ExtractConfig,
    library: RuleLibrary,
) -> EnumState:
    """Drop every occurrence touching an affected node and re-enumerate
    restricted to sets containing a live affected node.  ``affected`` must
    include any ids retired by the extraction."""
    state.remove_touching(set(affected))
    live = set(affected) & graph.active
    if live:
        probe = lambda nodes: state.register(graph, nodes, library)
        for _ in enumerate_connected_sets(
            graph, config, cost_probe=probe, roots=live, c_best=state.c_best()
        ):
            pass
    return state
