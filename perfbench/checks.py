"""Output checks computed apart from the program.

Each check reads the artifact JSON as plain data and recomputes what it
needs from the paper's definitions; nothing here imports ``vrgc``.  A check
returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations


def clog2(x: int) -> int:
    """ceil(log2 x) for x >= 1."""
    return (x - 1).bit_length()


# -- the paper's bit formulas ----------------------------------------------


def b_rule(k: int, n0: int) -> int:
    """Bits to define one k-node rule in an id space of n0 nodes."""
    return clog2(n0) + k * (clog2(k) + 2) + k * (k - 1) + 1


def b_application(k: int, edits: int, n0: int, same_rule: bool) -> int:
    """Bits to record one application of a k-node rule with ``edits`` edge
    edits; the rule id is written only when it differs from the previous
    record's."""
    bits = 2 + clog2(n0) + edits * (clog2(k) + clog2(n0) + 1)
    return bits if same_rule else bits + clog2(n0)


def b_graph(n: int, m: int) -> int:
    """Bits for the adjacency-list encoding of a graph with n nodes and m
    edges."""
    if n == 0:
        return 0
    width = clog2(n)
    return max(0, 2 * width - 1) + n + m * (width + 1)


# -- reading the artifact ----------------------------------------------------


def rule_of_code(code_hex: str) -> tuple[int, int, int, tuple[int, ...]]:
    """``(k, i_mask, o_mask, adjacency rows)`` from a serialised rule code:
    bytes k, i_mask, o_mask, then one big-endian row bitmask per node."""
    raw = bytes.fromhex(code_hex)
    k, i_mask, o_mask = raw[0], raw[1], raw[2]
    width = (k + 7) // 8
    rows = tuple(
        int.from_bytes(raw[3 + p * width : 3 + (p + 1) * width], "big") for p in range(k)
    )
    return k, i_mask, o_mask, rows


def used_rule_ids(art: dict) -> list[int]:
    return sorted({r["rule_id"] for r in art["records"]})


def used_codes(art: dict) -> dict[int, str]:
    """The code of each rule that the records use, by rule id."""
    return {rid: art["grammar"]["codes"][rid] for rid in used_rule_ids(art)}


def _k(art: dict, rid: int) -> int:
    return bytes.fromhex(art["grammar"]["codes"][rid])[0]


# -- checks -----------------------------------------------------------------


def check_decoded(
    decoded_edges: set[tuple[int, int]],
    decoded_nodes: set[int],
    source_edges: set[tuple[int, int]],
) -> list[str]:
    """The decoded graph is exactly the graph in the benchmark's edge file."""
    failures = []
    if decoded_edges != source_edges:
        missing = len(source_edges - decoded_edges)
        extra = len(decoded_edges - source_edges)
        failures.append(f"decoded edges differ: {missing} missing, {extra} extra")
    n0 = 1 + max(max(e) for e in source_edges)
    if decoded_nodes != set(range(n0)):
        failures.append(f"decoded node set is not 0..{n0 - 1}")
    return failures


def check_bits(art: dict, n0: int) -> list[str]:
    """``compressed_bits`` equals b_rule + b_application + b_graph summed
    over the artifact's used rules, records and residual."""
    records = art["records"]
    rule_bits = sum(b_rule(_k(art, rid), n0) for rid in used_rule_ids(art))
    application_bits = 0
    previous = None
    for r in records:
        k = _k(art, r["rule_id"])
        application_bits += b_application(k, len(r["edits"]), n0, r["rule_id"] == previous)
        previous = r["rule_id"]
    residual = art["residual"]
    residual_bits = b_graph(len(residual["active"]), len(residual["edges"]))
    account = art["account"]
    expected = {
        "rule_bits": rule_bits,
        "application_bits": application_bits,
        "residual_bits": residual_bits,
        "compressed_bits": rule_bits + application_bits + residual_bits,
    }
    return [
        f"{key} is {account.get(key)}, the formulas give {value}"
        for key, value in expected.items()
        if account.get(key) != value
    ]


def check_residual_size(art: dict, n0: int) -> list[str]:
    """Each record collapses k nodes into one, so the residual keeps
    n0 - sum(k - 1) nodes."""
    expected = n0 - sum(_k(art, r["rule_id"]) - 1 for r in art["records"])
    actual = len(art["residual"]["active"])
    if art["residual"]["n0"] != n0:
        return [f"residual n0 is {art['residual']['n0']}, the input has {n0}"]
    if actual != expected:
        return [f"residual has {actual} nodes, n0 - sum(k - 1) is {expected}"]
    return []


def check_rules_distinct(codes: dict[int, str]) -> list[str]:
    """No two used rules (``used_codes``) are isomorphic, fragment and masks
    together."""
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    graphs = {}
    for rid, code in codes.items():
        k, i_mask, o_mask, rows = rule_of_code(code)
        g = nx.DiGraph()
        for p in range(k):
            g.add_node(p, i=i_mask >> p & 1, o=o_mask >> p & 1)
        g.add_edges_from((p, q) for p in range(k) for q in range(k) if rows[p] >> q & 1)
        graphs[rid] = g

    def same_masks(a: dict, b: dict) -> bool:
        return a["i"] == b["i"] and a["o"] == b["o"]

    failures = []
    for a, b in combinations(sorted(graphs), 2):
        ga, gb = graphs[a], graphs[b]
        if len(ga) != len(gb) or ga.number_of_edges() != gb.number_of_edges():
            continue
        if DiGraphMatcher(ga, gb, node_match=same_masks).is_isomorphic():
            failures.append(f"used rules {a} and {b} are isomorphic")
    return failures


def check_artifact(art: dict, n0: int) -> list[str]:
    return check_bits(art, n0) + check_residual_size(art, n0)


def grammar_hash(art: dict) -> str:
    """SHA-256 of what decoding needs, with each record's rule id replaced by
    the rule's code, so the hash does not depend on interning order."""
    codes = art["grammar"]["codes"]
    content = {
        "n0": art["residual"]["n0"],
        "records": [
            [codes[r["rule_id"]], r["node_ids"], r["edits"]] for r in art["records"]
        ],
        "residual": sorted(map(tuple, art["residual"]["edges"])),
        "active": sorted(art["residual"]["active"]),
    }
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
