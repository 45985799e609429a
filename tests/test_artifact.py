import json

import pytest

from vrgc.artifact import (
    ArtifactInvalid,
    load_artifact,
    result_to_obj,
    save_artifact,
)
from vrgc.engine import decode, extract
from vrgc.enumeration import ExtractConfig
from vrgc.synth import gen_binary_tree


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
    a = result_to_obj(extract(g, cfg))
    b = result_to_obj(extract(g, cfg))
    a["runtime_seconds"] = b["runtime_seconds"] = 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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
    obj["schema_version"] = 99
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


@pytest.mark.parametrize("fault", ["duplicate", "count_mismatch", "empty_code", "disconnected"])
def test_load_rejects_bad_grammar(tmp_path, demo6, fault):
    """A repeated code would shift every later rule id; counts that do not
    line up with the codes would attach to the wrong rules; a truncated or
    disconnected code is no rule."""
    obj = result_to_obj(extract(demo6, ExtractConfig(k_min=2, k_max=3)))
    gram = obj["grammar"]
    if fault == "duplicate":
        gram["codes"].insert(0, gram["codes"][-1])
        gram["frequency"].insert(0, 0)
        gram["discovery"].insert(0, 1)
    elif fault == "count_mismatch":
        gram["frequency"].append(0)
    elif fault == "empty_code":
        gram["codes"][0] = ""
    else:
        gram["codes"][0] = "02000000"
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ArtifactInvalid):
        load_artifact(path)
