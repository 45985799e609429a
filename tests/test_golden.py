"""Golden output: the extraction's decodable result is pinned by hash.

Each case hashes the grammar codes, the records (rule id, node ids and
edits), the residual (id space, active nodes, edges) and the bit account.
``runtime_seconds`` is left out, and so are the records' bookkeeping
fields (``boundary``, ``multi_boundary``) and the discovery counts, which
the decoder never reads.  A speed-up must leave every hash as it is; a
change that alters the output on purpose updates the table and says why.
"""

import hashlib
import json

import pytest

from vrgc.engine import extract
from vrgc.enumeration import ExtractConfig
from vrgc.synth import gen_binary_tree, gen_er, gen_ring_lattice


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


CASES = {
    "ring_lattice_40_k6_exhaustive": (
        lambda: gen_ring_lattice(40, 4),
        ExtractConfig(k_min=2, k_max=6, shortcut_s=None),
        "8819976a4ab646a500097690f6678fdb1d3ce8091da6154ca36268c10d84d521",
    ),
    "binary_tree_127_k5": (
        lambda: gen_binary_tree(127),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=1),
        "c5e7178a16b48d09967846081379048c574a8320585c009450110c69a24436b1",
    ),
    "er_60_180_k3": (
        lambda: gen_er(60, 180, 1),
        ExtractConfig(k_min=2, k_max=3, shortcut_s=1),
        "4cbbbcfb074c0071a93cafc8433108e72d326c86b94ce72f5756c534fa381ff1",
    ),
    "er_60_180_k3_mdl_stop": (
        lambda: gen_er(60, 180, 1),
        ExtractConfig(k_min=2, k_max=3, shortcut_s=1, mdl_stop=True),
        "f2442cd185540db2413e949a97a618887e0860a85b973f486a3e04d4e06795e4",
    ),
    "binary_tree_127_k5_mdl_stop": (
        lambda: gen_binary_tree(127),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=1, mdl_stop=True),
        "07bec713fd0eca8afaae2788eadcd1cb590a4e66d4b0669ff42d63c8c4445adc",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    make, config, expected = CASES[name]
    assert output_digest(extract(make(), config)) == expected
