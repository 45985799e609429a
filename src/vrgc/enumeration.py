"""Connected node-set enumeration and the incremental occurrence index.

Sets are enumerated uniquely by a branch-and-exclude search: every weakly
connected set is generated exactly once, from its smallest member (or its
smallest member among the requested roots when the search is restricted).
One ``excluded`` set serves the whole search.  It holds the nodes the
current branch may not add: the earlier roots, the branch's members, and
at each level the siblings already tried; each level of the recursion
removes what it added before it returns.  The search fills an
``EnumState``: it registers each set it emits, and prunes the supersets
of a set that scores too far above the index's cheapest occurrence via
the shortcut inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import DiGraph
from .mdl import analyze_set
from .rules import K_HARD_MAX, RuleLibrary, canonical_code

INFINITE_COST = math.inf


class ConfigInvalid(Exception):
    pass


@dataclass(frozen=True)
class ExtractConfig:
    k_min: int = 2
    k_max: int = 3
    shortcut_s: Optional[int] = 1  # None disables the heuristic
    mdl_stop: bool = False

    def __post_init__(self):
        if type(self.k_min) is not int or type(self.k_max) is not int:
            raise ConfigInvalid("k_min and k_max must be integers")
        if self.shortcut_s is not None and type(self.shortcut_s) is not int:
            raise ConfigInvalid("shortcut parameter must be an integer or None")
        if type(self.mdl_stop) is not bool:
            raise ConfigInvalid("mdl_stop must be a boolean")
        if self.k_min < 2:
            raise ConfigInvalid("k_min must be at least 2")
        if self.k_max > K_HARD_MAX:
            raise ConfigInvalid(f"k_max must be at most {K_HARD_MAX}")
        if self.k_min > self.k_max:
            raise ConfigInvalid("k_min must not exceed k_max")
        if self.shortcut_s is not None and self.shortcut_s < 0:
            raise ConfigInvalid("shortcut parameter must be non-negative")


def extension_slack(config: ExtractConfig) -> list[float]:
    """The shortcut's slack for a set of each size ``k < k_max``.

    The supersets of a set of ``k`` nodes and cost ``c`` are enumerated
    while ``c <= c_best + slack[k]``, with ``slack[k] = min(1 + k_max - k,
    s + ceil(ln(k_max - k)))``; the slack is infinite with the heuristic
    disabled, and ``c_best`` is infinite while the index is empty.
    """
    k_max, s = config.k_max, config.shortcut_s
    if s is None:
        return [INFINITE_COST] * k_max
    return [min(1 + k_max - k, s + math.ceil(math.log(k_max - k))) for k in range(k_max)]


def enumerate_connected_sets(
    state: EnumState, roots: Optional[set[int]] = None
) -> Iterator[tuple[int, ...]]:
    """Stream the weakly connected node sets of ``state.graph`` with
    ``k_min <= |S| <= k_max``, registering each into ``state``.

    With ``roots`` given, only sets containing at least one root are
    produced (each exactly once).  Every emitted set goes through
    ``state.register``; its cost, ``state.c_best()`` and
    ``extension_slack`` decide whether its supersets are enumerated.
    """
    graph, config = state.graph, state.config
    root_list = sorted(graph.active if roots is None else graph.active & roots)
    k_min, k_max = config.k_min, config.k_max
    slack = extension_slack(config)
    excluded: set[int] = set()

    def grow(members: tuple[int, ...], frontier: set[int]) -> Iterator[tuple[int, ...]]:
        # ``frontier`` is every neighbour of ``members`` outside
        # ``excluded``; each child adds ``w``'s neighbours to it.  The loop
        # adds the whole frontier to ``excluded`` and removes it on return.
        for w in sorted(frontier):
            excluded.add(w)
            grown = tuple(sorted((*members, w)))
            k = len(grown)
            extend = k < k_max
            if k >= k_min:
                yield grown
                c = state.register(grown)
                extend = extend and c <= state.c_best() + slack[k]
            if extend:
                yield from grow(grown, (frontier | graph.neighbors(w)) - excluded)
        excluded.difference_update(frontier)

    for r in root_list:
        excluded.add(r)
        yield from grow((r,), graph.neighbors(r) - excluded)


# -- occurrence index ------------------------------------------------------


@dataclass
class SetEntry:
    """An indexed set's minimum edit cost and minimum-cost rule codes, first seen first."""

    cost: int
    codes: tuple[bytes, ...]


class EnumState:
    """The occurrence index of one extraction: registered occurrences plus
    per-rule cost aggregation, over one graph and config, interning into
    its own ``library``.

    ``tables[code][cost]`` holds the node sets matching that rule at that
    cost; the cheapest registered cost is tracked for the shortcut bound.
    ``dirty`` collects the codes whose tables changed since rule selection
    last read them; ``keys`` and ``heap`` hold the selection's scores and
    belong to ``engine.select_best``.  ``register`` and ``remove_set`` are
    the only writers of ``entries``, ``tables`` and the cost counts.
    """

    def __init__(self, graph: DiGraph, config: ExtractConfig):
        self.graph = graph
        self.config = config
        self.library = RuleLibrary()
        self.entries: dict[tuple[int, ...], SetEntry] = {}
        self.tables: dict[bytes, dict[int, set[tuple[int, ...]]]] = {}
        self._cost_counts: dict[int, int] = {}
        self.dirty: set[bytes] = set()
        self.keys: dict = {}
        self.heap: list = []

    def c_best(self) -> float:
        return min(self._cost_counts) if self._cost_counts else INFINITE_COST

    def register(self, nodes: tuple[int, ...]) -> int:
        """Score a node set not yet in the index, intern its minimum-cost
        rules and index it; ``enumerate_connected_sets`` calls it on every
        set it emits and reads the returned cost.

        ``analyze_set`` reads the set out of the graph once, and each
        minimum-cost mask pair is looked up by its raw ``(k, adj, i_mask,
        o_mask)`` fields, the key ``rules.canonical_form`` caches under;
        it validates nothing (see the ``rules`` module docstring).  The
        only memo tables consulted here are the ``lru_cache``s of
        ``rules.canonical_form`` and ``mdl._side_minima``, so clearing both
        (as the benchmark does before each round) starts registration cold.
        """
        analysis = analyze_set(self.graph, nodes)
        k, cost, adj = len(nodes), analysis.cost, analysis.adj
        codes = tuple(dict.fromkeys(canonical_code(k, adj, i, o) for i, o in analysis.pairs))
        self.entries[nodes] = SetEntry(cost, codes)
        self._cost_counts[cost] = self._cost_counts.get(cost, 0) + 1
        for code in codes:
            self.library.intern_code(code)
            self.tables.setdefault(code, {}).setdefault(cost, set()).add(nodes)
        self.dirty.update(codes)
        return cost

    def remove_set(self, nodes: tuple[int, ...]) -> None:
        entry = self.entries.pop(nodes)
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
        doomed = [t for t in self.entries if not nodes.isdisjoint(t)]
        for t in doomed:
            self.remove_set(t)


def update_after_extraction(state: EnumState, affected: set[int]) -> None:
    """Refresh the index once an extraction has been applied to
    ``state.graph``: drop every occurrence touching an ``affected`` node
    and re-enumerate the sets that contain a live one.  ``affected`` is
    what ``engine.extract_one`` returns: the extracted set and every node
    adjacent to it before the edits, the only nodes whose adjacency the
    extraction changed."""
    state.remove_touching(affected)
    for _ in enumerate_connected_sets(state, affected):
        pass
