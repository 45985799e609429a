"""Connected node-set enumeration and the incremental occurrence index.

Sets are enumerated uniquely by a branch-and-exclude search (Wernicke's
ESU): every weakly connected set is found exactly once, from its smallest
member (or its smallest member among the requested roots when the search
is restricted).  The search is one plain recursion, ``_grow``, that fills
an ``EnumState``: it registers each set it finds, and prunes the
supersets of a set that scores too far above the index's cheapest
occurrence via the shortcut inequality.  One ``excluded`` set serves the
whole search.  It holds the nodes the current branch may not add: the
earlier roots, the branch's members, and at each level the siblings
already tried; each level removes what it added before it returns.

After each extraction the index revisits only what changed.  A set's
analysis and its weak connectivity depend on its rows and its
externals' patterns, not on the externals' ids.  So the update drops
every entry holding a node of ``changed`` (a ``node -> sets`` index
finds them), the nodes whose sets the extraction can make read
differently as ``engine.extract_one`` defines them, and re-enumerates
the sets that hold such a node; every other entry stays as it is, also
when the collapse renamed one of its externals.  A set's codes are a
function of its reading, the fragment's adjacency rows and each side's
minimizing masks, so each index keeps a ``reading -> codes`` table.  A
reading it has not seen is canonicalised, and a second table keyed by the
canonical reading, the bare fragment's canonical code with each mask
moved onto its positions, answers the other position orders of the same
shape, so each shape's mask pairs are looked up once per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import DiGraph
from .mdl import analyze_set
from .rules import K_HARD_MAX, RuleLibrary, canonical_code, canonical_form, relabel, relabel_table

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
    """Register into ``state`` the weakly connected node sets of
    ``state.graph`` with ``k_min <= |S| <= k_max``, only those holding a
    root if ``roots`` is given, then yield each once in registration
    order.  A set's cost, ``state.c_best()`` and ``extension_slack``
    decide whether its supersets are enumerated."""
    graph = state.graph
    slack = extension_slack(state.config)
    excluded: set[int] = set()
    found: list[tuple[int, ...]] = []
    for r in sorted(graph.active if roots is None else graph.active & roots):
        excluded.add(r)
        _grow(state, slack, excluded, found, (r,), graph.neighbors(r) - excluded)
    yield from found


def _grow(
    state: EnumState, slack: list[float], excluded: set[int],
    found: list[tuple[int, ...]], members: tuple[int, ...], frontier: set[int],
) -> None:
    """Register each set that adds a frontier node to ``members``, append
    it to ``found`` and recurse while the shortcut allows.  ``frontier`` is
    every neighbour of ``members`` outside ``excluded``; each child adds
    ``w``'s neighbours to it.  The loop adds the whole frontier to
    ``excluded`` and removes it on return."""
    graph, k_min, k_max = state.graph, state.config.k_min, state.config.k_max
    for w in sorted(frontier):
        excluded.add(w)
        grown = tuple(sorted((*members, w)))
        k = len(grown)
        extend = k < k_max
        if k >= k_min:
            found.append(grown)
            c = state.register(grown)
            extend = extend and c <= state.c_best() + slack[k]
        if extend:
            _grow(state, slack, excluded, found, grown, (frontier | graph.neighbors(w)) - excluded)
    excluded.difference_update(frontier)


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
    ``entries`` that hold ``v``, each once.  ``codes_of`` maps each raw
    reading ``(adj, i_masks, o_masks)``, in sorted-node-id positions, that
    registration has seen to its codes; it answers a set whose rows and
    masks repeat in the same position order.  ``codes_of_shape`` maps each
    canonical reading ``(shape, ins, outs)`` to the same codes: ``shape``
    is the bare fragment's canonical code and ``ins`` and ``outs`` are the
    masks moved onto its positions, in the raw order.  It answers the other
    position orders of a shape, which miss ``codes_of``.
    """

    def __init__(self, graph: DiGraph, config: ExtractConfig):
        self.graph = graph
        self.config = config
        self.library = RuleLibrary()
        self.entries: dict[tuple[int, ...], SetEntry] = {}
        self.codes_of: dict[tuple, tuple[bytes, ...]] = {}
        self.codes_of_shape: dict[tuple, tuple[bytes, ...]] = {}
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
        cost; the search calls it on every set it finds.

        The set is read out of the graph once by ``analyze_set``, whose
        ``_side_minima`` scores every mask of a side with one packed sum
        of per-pattern cost vectors, and indexed with the codes
        ``codes_of`` holds for its reading.  On a miss the bare fragment
        ``(k, adj, 0, 0)`` is canonicalised, each mask is moved onto the
        canonical positions, and ``codes_of_shape`` is asked for the
        canonical reading.  Only when that misses too is each mask pair
        looked up with ``rules.canonical_code`` on the canonical rows and
        the codes interned.  So the up to ``k!`` position orders of one
        shape that carry the same masks share one pair loop, and the codes
        are those of the raw fields, in the same order, since a canonical
        code is the same for every relabelling of a rule, masks included,
        and the masks keep their raw order in the key.  Nothing is
        validated (see the ``rules`` module docstring).  Both tables live
        as long as the index, so clearing the ``lru_cache``s of
        ``rules.canonical_form`` and ``mdl._side_minima`` (as the
        benchmark does before each round) starts each extraction's
        registration cold; only ``mdl._mask_costs``, at most one cost
        vector per pattern and size, and ``mdl.default_params`` stay warm.
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
            bit = relabel_table(perm)
            ins = tuple([relabel(m, bit) for m in analysis.i_masks])
            outs = tuple([relabel(m, bit) for m in analysis.o_masks])
            canonical = (shape, ins, outs)
            codes = self.codes_of_shape.get(canonical)
            if codes is None:
                rows = tuple(shape[3:])
                codes = tuple(dict.fromkeys(canonical_code(k, rows, i, o) for i in ins for o in outs))
                self.codes_of_shape[canonical] = codes
                for code in codes:
                    self.library.intern_code(code)
            self.codes_of[reading] = codes
        tables = self.tables
        for code in codes:
            levels = tables.get(code)
            if levels is None:
                tables[code] = {cost: {nodes}}
            elif cost in levels:
                levels[cost].add(nodes)
            else:
                levels[cost] = {nodes}
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
    ``changed`` is what ``engine.extract_one`` returns: the extracted set,
    every edit's external and every external tied to two or more members.
    A set holding none of them reads the same, at most with one external
    renamed to the survivor, so it has the same analysis and connectivity
    and keeps its entry; with the shortcut off the index therefore ends
    as a full rebuild on the mutated graph would leave it."""
    state.remove_touching(changed)
    for _ in enumerate_connected_sets(state, changed):
        pass
