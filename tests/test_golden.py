"""Golden output: the extraction's decodable result is pinned by hash.

Each case hashes the grammar codes (only the rules the records use), the
records (rule id, node ids and edits), the residual (id space, active
nodes, edges) and the bit account.  ``runtime_seconds`` is left out, and
so is the rule order of ``grammar.json`` and ``report.json``, which the
decoder never reads.  A speed-up must leave every hash as it is; a change
that alters the output on purpose updates the table and says why.

Each case also pins what a reader sees: ``grammar.json``'s rule list and
order and the DOT rendering of every rule, hashed together.
"""

import hashlib
import json

import pytest

from vrgc.engine import decode, extract
from vrgc.enumeration import ExtractConfig
from vrgc.rules import rule_to_dot
from vrgc.synth import (
    gen_binary_tree,
    gen_chung_lu_directed,
    gen_er,
    gen_ring_lattice,
    gen_tree_of_rings,
)


def output_digest(result) -> str:
    obj = {
        "codes": [c.hex() for c in result.grammar.codes],
        "records": [[r.rule_id, list(r.node_ids), [list(e) for e in r.edits]] for r in result.records],
        "residual": {
            "n0": result.residual.n0,
            "active": sorted(result.residual.active),
            "edges": [list(e) for e in result.residual.edges()],
        },
        "account": result.account.to_json_obj(),
    }
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def display_digest(result) -> str:
    """SHA-256 of the grammar's JSON object followed by every rule's DOT
    text, in id order."""
    grammar = result.grammar
    text = json.dumps(grammar.to_json_obj(), sort_keys=True)
    text += "".join(
        rule_to_dot(code, name=f"rule_{rid}") for rid, code in enumerate(grammar.codes)
    )
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    "ring_lattice_40_k6_exhaustive": (
        lambda: gen_ring_lattice(40, 4),
        ExtractConfig(k_min=2, k_max=6, shortcut_s=None),
        "6c07efc874c290fb6c373cf5582cc0a555d08a7e749dddd837868bc66cf6233a",
        "1533a6ec5e57e9c0292769b4b1e723207b6997b63832188151d0c5f986538292",
    ),
    "binary_tree_127_k5": (
        lambda: gen_binary_tree(127),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=1),
        "676399a23e9fbb3e708ed5857c233e9c2e55d1b014a0bf792f78207542fc107a",
        "f7e7d9fdede310c5578b0204d4e84e8af3ae421e1b117ce92c8e78ae15f828e0",
    ),
    "er_60_180_k3": (
        lambda: gen_er(60, 180, 1),
        ExtractConfig(k_min=2, k_max=3, shortcut_s=1),
        "47910991057d9cc7cd95199288f119ade32ff65d03d77afc670927f12d403cf0",
        "f16301907febb8510d1169299e5e7bcc95d62e342d9efcfee66ad7170554e102",
    ),
    "er_60_180_k3_mdl_stop": (
        lambda: gen_er(60, 180, 1),
        ExtractConfig(k_min=2, k_max=3, shortcut_s=1, mdl_stop=True),
        "dad08ea1efd0b54b90dd941e622b80b58bafeba0a94315a2c0697ba7c247245a",
        "4077d788782b47b9c84adb07c4f270690ec0eece72fa5c8fbcc7c47fdf03f603",
    ),
    "binary_tree_127_k5_mdl_stop": (
        lambda: gen_binary_tree(127),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=1, mdl_stop=True),
        "04a37dbaad629ffd78c7f922d318a96c4143d4a2d894c2dcf2347812b195e300",
        "1c8652c2bda09d61859bb48e942d6bdecc0b474679a9dd76d718566c06052bb2",
    ),
    "tree_of_rings_200_k4_s0": (
        lambda: gen_tree_of_rings(3, 15, 200),
        ExtractConfig(k_min=2, k_max=4, shortcut_s=0),
        "4ca611defe6c974f5164a8810cbe63da879cba8fcfbc0de9a24095d977873589",
        "cf63088f46c057032400f7a841081f99739f009d317d55a8d4d8d16897daf006",
    ),
    "chung_lu_60_k3": (
        lambda: gen_chung_lu_directed([2] * 60, [2] * 60, 1),
        ExtractConfig(k_min=2, k_max=3, shortcut_s=1),
        "13bb82d9ad413568c49fc8a46b578fc9a918cf789a4e4a904dfb2d53dd2bf1ee",
        "8df729875e6e3c8e4a01531c4bbed2b57938fb1de000c782bc53177c414db663",
    ),
    "ring_lattice_20_k8": (
        lambda: gen_ring_lattice(20, 4),
        ExtractConfig(k_min=2, k_max=8, shortcut_s=1),
        "a975634fb46e776e86781efaea312323ca7ee135922c57e17752ee6aa49a88be",
        "dbff75cb83547536305d4b5ba413e046bd3b976fb8e061c53e4289e2b83d7d62",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    make, config, expected, expected_display = CASES[name]
    graph = make()
    result = extract(graph, config)
    assert output_digest(result) == expected
    assert display_digest(result) == expected_display
    assert decode(result) == graph
