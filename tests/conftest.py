import random
from itertools import combinations

import pytest

from vrgc.enumeration import EnumState, ExtractConfig, enumerate_connected_sets
from vrgc.graphs import DiGraph
from vrgc.mdl import BitParams

# Six-node worked example used throughout: a=0, b=1, c=2, d=3, e=4, f=5.
DEMO6_EDGES = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 5), (4, 3)]


@pytest.fixture
def demo6() -> DiGraph:
    return DiGraph.from_edges(6, DEMO6_EDGES)


def random_digraph(rng: random.Random, n: int, m: int) -> DiGraph:
    """Uniform simple digraph with at most m edges (duplicates dropped)."""
    g = DiGraph(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.out_adj[u].add(v)
            g.in_adj[v].add(u)
    return g


def filled_index(graph: DiGraph, config: ExtractConfig) -> EnumState:
    """An occurrence index filled by one full enumeration of ``graph``."""
    state = EnumState(graph, config)
    for _ in enumerate_connected_sets(state):
        pass
    return state


def is_weakly_connected(g: DiGraph, nodes: set[int]) -> bool:
    if not nodes:
        return False
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend((g.neighbors(v) & nodes) - seen)
    return seen == nodes


def brute_connected_sets(g: DiGraph, k_min: int, k_max: int) -> set:
    """All-subsets filtering oracle for connected-set enumeration."""
    found = set()
    nodes = sorted(g.active)
    for k in range(k_min, k_max + 1):
        for combo in combinations(nodes, k):
            if is_weakly_connected(g, set(combo)):
                found.add(combo)
    return found


def naive_set_read(g: DiGraph, nodes: tuple) -> tuple:
    """Set-based oracle for the graph reading of ``mdl.analyze_set``: the
    induced adjacency rows and the sorted ``(external, mask)`` in- and
    out-patterns, over the positions of ``nodes`` in the given order."""
    members = set(nodes)
    adj = tuple(
        sum(1 << q for q, w in enumerate(nodes) if w in g.out_adj[v]) for v in nodes
    )

    def patterns(side: dict) -> list:
        externals = set().union(*(side[v] for v in nodes)) - members
        return sorted(
            (x, sum(1 << p for p, v in enumerate(nodes) if x in side[v])) for x in externals
        )

    return adj, patterns(g.in_adj), patterns(g.out_adj)


# -- extraction-count oracle ------------------------------------------------
# ``mdl.pcr`` scores only whole-level prefixes of a rule's ``{cost:
# occurrences}`` table; ``cost_of_n`` gives the predicted bits for every
# extraction count n, and n extractions of a k-node rule remove n * k nodes,
# which the tests maximise exhaustively to check it.


class NOutOfRange(Exception):
    pass


def _level_of_n(levels: dict[int, set], n: int) -> tuple[int, int]:
    """Cost reached extracting cheapest-first, and the count taken there."""
    total = sum(len(sets) for sets in levels.values())
    if not 1 <= n <= total:
        raise NOutOfRange(f"n={n} outside 1..{total}")
    consumed = 0
    for c in sorted(levels):
        x = len(levels[c])
        if n <= consumed + x:
            return c, n - consumed
        consumed += x
    raise AssertionError("unreachable")


def cost_of_n(levels: dict[int, set], params: BitParams, n: int) -> int:
    """Predicted bits to perform ``n`` extractions of a rule, cheapest first."""
    c, taken = _level_of_n(levels, n)
    bits = params.C_R + params.C_ID + n * params.C_node
    bits += taken * c * params.C_edit
    bits += sum(len(sets) * d * params.C_edit for d, sets in levels.items() if d < c)
    return bits


def random_levels(rng: random.Random, k: int) -> dict[int, set]:
    """A ``{cost: occurrences}`` table of a k-node rule: 1 to 6 levels at
    costs 0, 1, ..., each of 1 to 10 k-node sets, no set in two levels."""
    levels, start = {}, 0
    for c in range(rng.randrange(1, 7)):
        x = rng.randrange(1, 11)
        levels[c] = {tuple(range(start + i * k, start + (i + 1) * k)) for i in range(x)}
        start += x * k
    return levels
