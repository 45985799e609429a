"""Run artifact serialization.

The artifact JSON holds what decoding needs: the codes of the rules the
records use, the application records (rule id, node ids, edits) and the
residual graph, together with the bit account and the manifest that
produced the run.  An extraction result's grammar holds only the rules its
records use, so it is stored as it is, and ``load_artifact(save_artifact(r))``
gives back ``r``.  The rules' frequencies follow from the records and are
rebuilt on load by ``engine.used_grammar``, as in extraction.  So does the bit
account: the loader keeps only ``original_bits`` from the file, and rejects
a stored account that differs from the one the codes, records and residual
give; decoding checks that figure against the decoded graph.  No timing is
stored and keys are sorted on write, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import ApplicationRecord, ExtractionResult, bit_account, used_grammar
from .enumeration import ConfigInvalid, ExtractConfig
from .graphs import DiGraph, GraphError
from .rules import RuleError, check_codes

SCHEMA_VERSION = 2


class ArtifactInvalid(Exception):
    pass


def result_to_obj(result: ExtractionResult, manifest: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest or {},
        "config": {
            "k_min": result.config.k_min,
            "k_max": result.config.k_max,
            "shortcut_s": result.config.shortcut_s,
            "mdl_stop": result.config.mdl_stop,
        },
        "grammar": {"codes": [code.hex() for code in result.grammar.codes]},
        "records": [
            {
                "rule_id": r.rule_id,
                "node_ids": list(r.node_ids),
                "edits": [[p, e, d] for p, e, d in r.edits],
            }
            for r in result.records
        ],
        "residual": {
            "n0": result.residual.n0,
            "active": sorted(result.residual.active),
            "edges": [list(e) for e in result.residual.edges()],
        },
        "account": result.account.to_json_obj(),
    }


def save_artifact(result: ExtractionResult, path: str | Path, manifest: dict | None = None) -> None:
    obj = result_to_obj(result, manifest)
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def result_from_obj(obj: dict) -> tuple[ExtractionResult, dict]:
    try:
        if obj["schema_version"] != SCHEMA_VERSION:
            raise ArtifactInvalid(f"unsupported schema version {obj['schema_version']}")
        cfg = obj["config"]
        config = ExtractConfig(
            k_min=cfg["k_min"],
            k_max=cfg["k_max"],
            shortcut_s=cfg["shortcut_s"],
            mdl_stop=cfg["mdl_stop"],
        )
        codes = [bytes.fromhex(c) for c in obj["grammar"]["codes"]]
        check_codes(codes)
        for code in codes:
            if not config.k_min <= code[0] <= config.k_max:
                raise ArtifactInvalid(
                    f"a {code[0]}-node rule lies outside k {config.k_min}..{config.k_max}"
                )
        res = obj["residual"]
        records = [_record_from_obj(r, codes, res["n0"]) for r in obj["records"]]
        freed: set[int] = set()
        for record in records:
            ids = record.node_ids
            if not freed.isdisjoint(ids):
                raise ArtifactInvalid(f"record node ids {list(ids)} reuse a freed id")
            freed.update(record.freed_ids)
        active = set(res["active"])
        # a necessary condition of the check below, which builds O(n0) sets
        if len(active) + len(freed) != res["n0"] or active != set(range(res["n0"])) - freed:
            raise ArtifactInvalid("residual active ids are not the ids that no record frees")
        grammar, records = used_grammar(codes, records)
        if grammar.codes != codes:
            raise ArtifactInvalid("the artifact stores a rule that no record uses")
        residual = DiGraph(res["n0"])
        residual.active = active
        for u, v in res["edges"]:
            residual.add_edge(u, v)
        account = bit_account(records, codes, residual, obj["account"]["original_bits"])
        if account.to_json_obj() != obj["account"]:
            raise ArtifactInvalid("stored bit account differs from the one the artifact gives")
        result = ExtractionResult(
            grammar=grammar, records=records, residual=residual, account=account, config=config
        )
        return result, obj.get("manifest", {})
    except ArtifactInvalid:
        raise
    except (ConfigInvalid, GraphError, IndexError, KeyError, RuleError, TypeError, ValueError) as exc:
        raise ArtifactInvalid(f"malformed artifact: {exc}") from exc


def _record_from_obj(r: dict, codes: list[bytes], n0: int) -> ApplicationRecord:
    """One stored record, checked against what replay trusts: a stored
    rule id, exactly ``k`` distinct node ids below ``n0``, and edits at
    fragment positions ``0..k-1`` in a known direction, each to an id
    below ``n0`` outside the fragment."""
    rid = r["rule_id"]
    if type(rid) is not int or not 0 <= rid < len(codes):
        raise ArtifactInvalid(f"record names unknown rule id {rid!r}")
    k = codes[rid][0]
    node_ids = tuple(r["node_ids"])
    if len(node_ids) != k or len(set(node_ids)) != k or not all(
        type(v) is int and 0 <= v < n0 for v in node_ids
    ):
        raise ArtifactInvalid(f"record node ids {list(node_ids)} are not {k} distinct ids below {n0}")
    edits = tuple((p, e, d) for p, e, d in r["edits"])
    for p, e, d in edits:
        if (
            type(p) is not int or not 0 <= p < k or d not in ("in", "out")
            or type(e) is not int or not 0 <= e < n0 or e in node_ids
        ):
            raise ArtifactInvalid(f"bad edit {[p, e, d]} in a record of a {k}-node rule")
    return ApplicationRecord(rule_id=rid, node_ids=node_ids, edits=edits)


def load_artifact(path: str | Path) -> tuple[ExtractionResult, dict]:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactInvalid(f"unreadable artifact: {exc}") from exc
    return result_from_obj(obj)
