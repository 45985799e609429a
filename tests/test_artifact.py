import json
import time
from dataclasses import replace

import pytest

from vrgc.artifact import (
    ArtifactInvalid,
    load_artifact,
    result_to_obj,
    save_artifact,
)
from vrgc.engine import CorruptRecord, decode, extract
from vrgc.enumeration import ExtractConfig
from vrgc.mdl import b_graph
from vrgc.synth import gen_binary_tree, gen_er


def test_save_load_roundtrip(tmp_path, demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
    path = tmp_path / "artifact.json"
    save_artifact(res, path, manifest={"note": "demo"})
    loaded, manifest = load_artifact(path)
    assert manifest == {"note": "demo"}
    assert decode(loaded) == demo6
    assert loaded.account.compressed_bits == res.account.compressed_bits
    assert loaded.config == res.config
    assert [r.node_ids for r in loaded.records] == [r.node_ids for r in res.records]


def test_artifact_bytes_stable(tmp_path):
    g = gen_binary_tree(31)
    cfg = ExtractConfig(k_min=2, k_max=3)
    save_artifact(extract(g, cfg), tmp_path / "a.json")
    save_artifact(extract(g, cfg), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_artifact_is_compact_and_indented_copies_still_load(tmp_path):
    """``save_artifact`` writes the one canonical form: compact separators,
    sorted keys, one line and a final newline.  The same object indented,
    as artifacts used to be written, loads to the same result and decodes
    to the source graph, so no schema bump is needed."""
    graph = gen_er(60, 180, 1)
    res = extract(graph, ExtractConfig(k_min=2, k_max=3))
    assert any(r.edits for r in res.records)
    obj = result_to_obj(res, {"note": "demo"})
    path = tmp_path / "artifact.json"
    save_artifact(res, path, manifest={"note": "demo"})
    assert path.read_text() == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    for stored in (path, indented):
        loaded, manifest = load_artifact(stored)
        assert result_to_obj(loaded, manifest) == obj
        assert decode(loaded) == graph


def test_decode_rejects_wrong_original_bits(tmp_path):
    """The loader keeps ``original_bits`` from the file; decoding checks it
    against the decoded graph.  The figure for 500 edges, stored with the
    account it gives, loads but does not decode."""
    res = extract(gen_binary_tree(127), ExtractConfig(k_min=2, k_max=5))
    obj = result_to_obj(res)
    obj["account"] = replace(res.account, original_bits=b_graph(127, 500)).to_json_obj()
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(obj))
    loaded, _ = load_artifact(path)
    with pytest.raises(CorruptRecord, match="bits"):
        decode(loaded)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ArtifactInvalid):
        load_artifact(path)


def test_load_rejects_wrong_schema(tmp_path, demo6):
    res = extract(demo6, ExtractConfig())
    path = tmp_path / "artifact.json"
    save_artifact(res, path)
    obj = json.loads(path.read_text())
    for version in (1, 99):
        obj["schema_version"] = version
        path.write_text(json.dumps(obj))
        with pytest.raises(ArtifactInvalid):
            load_artifact(path)


def test_load_rejects_missing_fields(tmp_path, demo6):
    res = extract(demo6, ExtractConfig())
    path = tmp_path / "artifact.json"
    save_artifact(res, path)
    obj = json.loads(path.read_text())
    del obj["records"]
    path.write_text(json.dumps(obj))
    with pytest.raises(ArtifactInvalid):
        load_artifact(path)


def shift_last_record(obj, by):
    """Move the non-survivor ids of the artifact's last record by ``by``."""
    record = obj["records"][-1]
    survivor = min(record["node_ids"])
    record["node_ids"] = [v if v == survivor else v + by for v in record["node_ids"]]


ACCOUNT_FIGURES = ["rule_bits", "application_bits", "residual_bits", "compressed_bits", "compression_rate"]

# Each fault with the message of the check that must catch it, so that a
# case fails when its own check is broken even if a later one (such as the
# bit account) would reject the artifact too.
FAULTS = {
    "duplicate": "appears twice",
    "rule_id_negative": "unknown rule id",
    "rule_id_past_end": "unknown rule id",
    "empty_code": "index out of range",
    "disconnected": "weakly connected",
    "code_truncated": "row count",
    "code_extra_byte": "row count",
    "one_node_rule": "fragment size 1",
    "code_relabelled": "not canonical",
    "node_ids_shifted": "distinct ids below",
    "node_ids_repeated": "distinct ids below",
    "node_ids_too_few": "distinct ids below",
    "node_ids_too_many": "distinct ids below",
    "edit_position_negative": "bad edit",
    "edit_position_past_k": "bad edit",
    "edit_direction": "bad edit",
    "edit_external_member": "bad edit",
    "record_repeated": "reuse a freed id",
    "freed_id_reused": "reuse a freed id",
    "residual_extra_active": "residual active ids",
    "residual_freed_active": "residual active ids",
    "residual_edge_to_freed": "is not active",
    "residual_self_loop": "self-loop",
    "residual_active_float": "ids and original_bits must be integers",
    "residual_edge_float": "ids and original_bits must be integers",
    "original_bits_float": "ids and original_bits must be integers",
    "residual_active_repeated": "residual active ids are not strictly ascending",
    "residual_active_reversed": "residual active ids are not strictly ascending",
    "residual_edge_repeated": "residual edges are not strictly ascending",
    "residual_edges_reversed": "residual edges are not strictly ascending",
    "code_unused": "no record uses",
    "config_k_max": "k_max must be at most",
    "config_k_min": "k_min must be at least",
    "config_k_max_below_rules": "3-node rule lies outside k 2..2",
    "config_k_min_above_rules": "2-node rule lies outside k 3..3",
    "config_k_max_float": "must be integers",
    "config_shortcut_bool": "shortcut parameter must be an integer or None",
    "config_mdl_stop_string": "mdl_stop must be a boolean",
    "config_mdl_stop_null": "mdl_stop must be a boolean",
    "config_shortcut_fraction": "shortcut parameter must be an integer or None",
    "missing_config_key": "malformed artifact: 'mdl_stop'",
    **{f"account_{figure}": "bit account" for figure in ACCOUNT_FIGURES},
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_load_rejects_bad_grammar(tmp_path, demo6, fault):
    """A repeated code would shift every later rule id; a rule id outside
    the stored codes names no rule (a negative one would index from the
    end); a code that is not ``k + 3`` bytes, has fewer than 2 nodes or is
    disconnected is no rule, and a relabelled code would store its rule
    under a second id.  A record must name
    exactly ``k`` distinct node ids below ``n0`` (ids past it decode into
    another graph), and its edits fragment positions ``0..k-1`` (a negative
    one would index from the end) in the direction ``in`` or ``out``, each
    to an external id below ``n0`` (one of the record's own ids would
    toggle an edge inside the fragment).  No record may name an id that an
    earlier one freed, to free it again or to keep it as survivor.  The
    residual's active ids must be exactly the ids no record frees: an extra
    active id or a freed id marked active decodes into another graph.  An
    edge to a freed id or a self-loop is no residual edge.  A residual id
    or an ``original_bits`` stored as a float equals the integer, and so
    does a residual with its active ids or edges repeated or out of the
    writer's ascending order: each would decode to the source graph and
    re-save as other bytes.  Every
    figure of the bit account but ``original_bits`` follows from the
    codes, the records and the residual, so one set to 0 is rejected.  A stored code
    that no record uses would not come back on the next save.  A ``config``
    that lacks a field of ``ExtractConfig`` or lies outside the ranges or
    types it takes (``True`` is no integer), or one whose k range excludes a stored rule, cannot have
    produced the run: it is a fault of the artifact, not a configuration
    error of the run that loads it."""
    obj = result_to_obj(extract(demo6, ExtractConfig(k_min=2, k_max=3)))
    gram = obj["grammar"]
    record = obj["records"][0]
    # an external id, so an edit fault breaks only the rule it is named for
    outside = next(v for v in range(obj["residual"]["n0"]) if v not in record["node_ids"])
    if fault.startswith("account_"):
        figure = fault.removeprefix("account_")
        assert obj["account"][figure] != 0
        obj["account"][figure] = 0
    elif fault == "duplicate":
        gram["codes"].insert(0, gram["codes"][-1])
    elif fault == "rule_id_negative":
        record["rule_id"] = -1
    elif fault == "rule_id_past_end":
        record["rule_id"] = len(gram["codes"])
    elif fault == "empty_code":
        gram["codes"][0] = ""
    elif fault == "disconnected":
        gram["codes"][0] = "0200000000"
    elif fault == "code_truncated":
        gram["codes"][0] = "02000000"
    elif fault == "code_extra_byte":
        gram["codes"][0] += "00"
    elif fault == "one_node_rule":
        gram["codes"][0] = "01010100"
    elif fault == "code_unused":
        # a valid canonical rule (one edge, no boundary) that no record names
        assert "0200000001" not in gram["codes"]
        gram["codes"].append("0200000001")
    elif fault == "missing_config_key":
        del obj["config"]["mdl_stop"]
    elif fault.startswith("config_"):
        key, value = {
            "config_k_max": ("k_max", 9),
            "config_k_min": ("k_min", 1),
            "config_k_max_below_rules": ("k_max", 2),
            "config_k_min_above_rules": ("k_min", 3),
            "config_k_max_float": ("k_max", 3.0),
            "config_shortcut_bool": ("shortcut_s", True),
            "config_mdl_stop_string": ("mdl_stop", "x"),
            "config_mdl_stop_null": ("mdl_stop", None),
            "config_shortcut_fraction": ("shortcut_s", 0.5),
        }[fault]
        obj["config"][key] = value
    elif fault == "residual_active_float":
        obj["residual"]["active"] = [float(v) for v in obj["residual"]["active"]]
    elif fault in (
        "residual_edge_float",
        "residual_edge_repeated",
        "residual_edges_reversed",
        "residual_active_repeated",
        "residual_active_reversed",
    ):
        # demo6's residual keeps one active id and no edge; this one keeps
        # all 30 ids and all 80 edges
        obj = result_to_obj(extract(gen_er(30, 80, 1), ExtractConfig(k_max=3, mdl_stop=True)))
        active, edges = obj["residual"]["active"], obj["residual"]["edges"]
        if fault == "residual_edge_float":
            edges[0] = [float(v) for v in edges[0]]
        elif fault == "residual_edge_repeated":
            edges.append(edges[0])
        elif fault == "residual_edges_reversed":
            edges.reverse()
        elif fault == "residual_active_repeated":
            active.append(active[0])
        else:
            active.reverse()
    elif fault == "original_bits_float":
        obj["account"]["original_bits"] = float(obj["account"]["original_bits"])
    elif fault == "code_relabelled":
        # 0 -> 1 with the out-boundary at 1, relabelled as 1 -> 0 with it at 0
        assert gram["codes"][0] == "0200020200"
        gram["codes"][0] = "0200010001"
    elif fault == "node_ids_shifted":
        shift_last_record(obj, 1000)
    elif fault == "node_ids_repeated":
        record["node_ids"][1] = record["node_ids"][0]
    elif fault == "node_ids_too_few":
        record["node_ids"].pop()
    elif fault == "node_ids_too_many":
        record["node_ids"].append(record["node_ids"][0])
    elif fault == "edit_position_negative":
        record["edits"].append([-1, outside, "in"])
    elif fault == "edit_position_past_k":
        record["edits"].append([len(record["node_ids"]), outside, "in"])
    elif fault == "edit_direction":
        record["edits"].append([0, outside, "both"])
    elif fault == "edit_external_member":
        record["edits"].append([0, record["node_ids"][1], "out"])
    else:
        residual = obj["residual"]
        freed = max(record["node_ids"])
        if fault == "record_repeated":
            obj["records"].append(record)
        elif fault == "freed_id_reused":
            later = obj["records"][1]["node_ids"]
            later[later.index(min(later))] = freed
            assert min(later) == freed  # the survivor, so no id is freed twice
        elif fault == "residual_extra_active":
            residual["active"].append(residual["n0"] + 5)
        elif fault == "residual_freed_active":
            residual["active"].append(freed)
        elif fault == "residual_edge_to_freed":
            residual["edges"].append([residual["active"][0], freed])
        else:
            residual["edges"].append([residual["active"][0]] * 2)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ArtifactInvalid, match=FAULTS[fault]):
        load_artifact(path)


def test_load_rejects_huge_n0_before_allocating(tmp_path, demo6):
    """A residual ``n0`` far past the stored ids fails the count of active
    and freed ids, before any set of ``n0`` ids is built."""
    obj = result_to_obj(extract(demo6, ExtractConfig(k_min=2, k_max=3)))
    obj["residual"]["n0"] = 10**12
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(obj))
    started = time.perf_counter()
    with pytest.raises(ArtifactInvalid, match="residual active ids"):
        load_artifact(path)
    assert time.perf_counter() - started < 1.0


SCHEMA_2_CASES = {
    "binary_tree_127_k5": (lambda: gen_binary_tree(127), ExtractConfig(k_min=2, k_max=5)),
    "binary_tree_127_k5_mdl_stop_truncated": (
        lambda: gen_binary_tree(127),
        ExtractConfig(k_min=2, k_max=5, mdl_stop=True),
    ),
    "er_60_180_k3": (lambda: gen_er(60, 180, 1), ExtractConfig(k_min=2, k_max=3)),
    "er_60_180_k3_mdl_stop_no_records": (
        lambda: gen_er(60, 180, 1),
        ExtractConfig(k_min=2, k_max=3, mdl_stop=True),
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_2_CASES))
def test_schema_2_stores_used_rules_only(tmp_path, name):
    """An extraction's grammar holds only the rules its records use, each
    used at least once, so the artifact stores it as it is: loading a saved
    result gives back its codes, frequencies, records, residual, account
    and config, and the loaded result decodes.  The ``mdl_stop`` cases keep
    a truncated prefix of the records, and no record at all."""
    make, config = SCHEMA_2_CASES[name]
    graph = make()
    res = extract(graph, config)
    assert sorted({r.rule_id for r in res.records}) == list(range(len(res.grammar)))
    path = tmp_path / "artifact.json"
    save_artifact(res, path)
    obj = json.loads(path.read_text())
    assert obj["grammar"] == {"codes": [code.hex() for code in res.grammar.codes]}
    for stored in obj["records"]:
        assert set(stored) == {"rule_id", "node_ids", "edits"}

    loaded, _ = load_artifact(path)
    assert loaded.grammar.codes == res.grammar.codes
    assert loaded.grammar.frequency == res.grammar.frequency
    assert loaded.records == res.records
    assert loaded.residual.n0 == res.residual.n0
    assert loaded.residual == res.residual
    assert loaded.account == res.account
    assert loaded.config == res.config
    assert decode(loaded) == graph
