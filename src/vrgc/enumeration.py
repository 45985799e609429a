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

After each extraction the index revisits only what changed.  A set's
analysis and its weak connectivity are functions of its members'
adjacency alone, so the update drops every entry holding a node whose
adjacency the extraction changed (a ``node -> sets`` index finds them)
and re-enumerates the sets that hold such a node; every other entry
stays as it is.  A set's codes are a function of its reading, the
fragment's adjacency rows and each side's minimizing masks, so each index
keeps a ``reading -> codes`` table and canonicalises each reading once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import DiGraph
from .mdl import analyze_set
from .rules import K_HARD_MAX, RuleLibrary, canonical_code, canonical_form, relabel_mask

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

    try:
        for r in root_list:
            excluded.add(r)
            yield from grow((r,), graph.neighbors(r) - excluded)
    finally:
        # ``grow`` refers to itself through its closure; deleting it breaks
        # that cycle, so ``state`` does not outlive the search.
        del grow


# -- occurrence index ------------------------------------------------------


@dataclass(slots=True)
class SetEntry:
    """An indexed set's minimum edit cost and minimum-cost rule codes,
    first seen first."""

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
    belong to ``engine.select_best``.  ``by_node[v]`` lists the sets in
    ``entries`` that hold ``v``, each once.  ``codes_of`` maps each reading
    ``(adj, i_masks, o_masks)`` that registration has canonicalised to its
    codes.
    """

    def __init__(self, graph: DiGraph, config: ExtractConfig):
        self.graph = graph
        self.config = config
        self.library = RuleLibrary()
        self.entries: dict[tuple[int, ...], SetEntry] = {}
        self.codes_of: dict[tuple, tuple[bytes, ...]] = {}
        self.by_node: list[list[tuple[int, ...]]] = [[] for _ in range(graph.n0)]
        self.tables: dict[bytes, dict[int, set[tuple[int, ...]]]] = {}
        self._cost_counts: dict[int, int] = {}
        self.dirty: set[bytes] = set()
        self.keys: dict = {}
        self.heap: list = []

    def c_best(self) -> float:
        return min(self._cost_counts) if self._cost_counts else INFINITE_COST

    def register(self, nodes: tuple[int, ...]) -> int:
        """Score a node set not in ``entries``, index it and return its
        cost; ``enumerate_connected_sets`` calls it on every set it emits.

        The set is read out of the graph once by ``analyze_set`` and
        indexed with the codes ``codes_of`` holds for its reading.  On a
        miss the bare fragment ``(k, adj, 0, 0)`` is canonicalised once,
        and each minimum-cost mask pair, moved onto the canonical
        positions, is looked up with ``rules.canonical_code`` on the
        canonical rows; the codes are interned.  The up to ``k!`` position
        orders of one shape so share the pair lookups, and the codes are
        those of the raw fields, in the same order, since a canonical code
        is the same for every relabelling of a rule, masks included.
        Nothing is validated (see the ``rules`` module docstring).
        ``codes_of`` lives as long as the index, so clearing the
        ``lru_cache``s of ``rules.canonical_form`` and
        ``mdl._side_minima`` (as the benchmark does before each round)
        starts each extraction's registration cold.
        """
        for v in nodes:
            self.by_node[v].append(nodes)
        analysis = analyze_set(self.graph, nodes)
        cost, adj = analysis.cost, analysis.adj
        reading = (adj, analysis.i_masks, analysis.o_masks)
        codes = self.codes_of.get(reading)
        if codes is None:
            k = len(nodes)
            shape, perm = canonical_form(k, adj, 0, 0)
            rows = tuple(shape[3:])
            ins = [relabel_mask(i, perm) for i in analysis.i_masks]
            outs = [relabel_mask(o, perm) for o in analysis.o_masks]
            codes = tuple(dict.fromkeys(canonical_code(k, rows, i, o) for i in ins for o in outs))
            self.codes_of[reading] = codes
            for code in codes:
                self.library.intern_code(code)
        for code in codes:
            self.tables.setdefault(code, {}).setdefault(cost, set()).add(nodes)
        self.dirty.update(codes)
        self.entries[nodes] = SetEntry(cost, codes)
        self._cost_counts[cost] = self._cost_counts.get(cost, 0) + 1
        return cost

    def remove_touching(self, changed: set[int]) -> None:
        """Take every entry that holds a node of ``changed`` out of
        ``entries``, the cost counts, ``tables`` (its codes marked dirty)
        and ``by_node``."""
        entries, counts, tables, by_node = self.entries, self._cost_counts, self.tables, self.by_node
        members = set()
        for v in changed:
            for t in by_node[v]:
                entry = entries.pop(t, None)
                if entry is None:
                    continue
                members.update(t)
                count = counts[entry.cost] - 1
                if count:
                    counts[entry.cost] = count
                else:
                    del counts[entry.cost]
                for code in entry.codes:
                    levels = tables[code]
                    levels[entry.cost].discard(t)
                    if not levels[entry.cost]:
                        del levels[entry.cost]
                    if not levels:
                        del tables[code]
                self.dirty.update(entry.codes)
        for v in members:
            by_node[v] = [t for t in by_node[v] if t in entries]


def update_after_extraction(state: EnumState, changed: set[int]) -> None:
    """Refresh the index once an extraction has been applied to
    ``state.graph``: drop every entry that holds a node of ``changed``
    and register afresh every set the search from those nodes reaches.
    ``changed`` is what ``engine.extract_one`` returns, every node whose
    adjacency the extraction changed.  A set holding none of them has the
    same members' adjacency, so the same analysis and connectivity, and
    keeps its entry; with the shortcut off the index therefore ends as a
    full rebuild on the mutated graph would leave it."""
    state.remove_touching(changed)
    for _ in enumerate_connected_sets(state, changed):
        pass
