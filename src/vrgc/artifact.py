"""Run artifact serialization.

The artifact JSON is self-contained for decoding: grammar codes, the
application records, and the residual graph travel together with the bit
account, per-rule stats, and the manifest that produced the run.  Keys are
sorted on write so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import ApplicationRecord, ExtractionResult
from .enumeration import ExtractConfig
from .graphs import DiGraph
from .mdl import BitAccount
from .rules import RuleError, RuleLibrary

SCHEMA_VERSION = 1


class ArtifactInvalid(Exception):
    pass


def result_to_obj(result: ExtractionResult, manifest: dict | None = None) -> dict:
    grammar = result.grammar
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest or {},
        "config": {
            "k_min": result.config.k_min,
            "k_max": result.config.k_max,
            "shortcut_s": result.config.shortcut_s,
            "seed": result.config.seed,
            "mdl_stop": result.config.mdl_stop,
        },
        "grammar": {
            "codes": [c.hex() for c in grammar.codes],
            "frequency": list(grammar.frequency),
            "discovery": list(grammar.discovery),
        },
        "records": [
            {
                "rule_id": r.rule_id,
                "node_ids": list(r.node_ids),
                "edits": [[p, e, d] for p, e, d in r.edits],
                "boundary": sorted(r.boundary),
                "multi_boundary": sorted(r.multi_boundary),
            }
            for r in result.records
        ],
        "residual": {
            "n0": result.residual.n0,
            "active": sorted(result.residual.active),
            "edges": [list(e) for e in result.residual.edges()],
        },
        "account": result.account.to_json_obj(),
        "rule_stats": {
            str(rid): {
                "frequency": st["frequency"],
                "cost_histogram": {str(c): n for c, n in sorted(st["cost_histogram"].items())},
                "edges_edited": st["edges_edited"],
            }
            for rid, st in sorted(result.rule_stats.items())
        },
        "iterations": result.iterations,
        "runtime_seconds": result.runtime_seconds,
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
            seed=cfg["seed"],
            mdl_stop=cfg["mdl_stop"],
        )
        gram = obj["grammar"]
        library = RuleLibrary.from_codes(
            [bytes.fromhex(c) for c in gram["codes"]],
            gram["frequency"],
            gram["discovery"],
        )
        records = [
            ApplicationRecord(
                rule_id=r["rule_id"],
                node_ids=tuple(r["node_ids"]),
                edits=tuple((p, e, d) for p, e, d in r["edits"]),
                boundary=frozenset(r["boundary"]),
                multi_boundary=frozenset(r["multi_boundary"]),
            )
            for r in obj["records"]
        ]
        res = obj["residual"]
        residual = DiGraph(res["n0"])
        residual.active = set(res["active"])
        for u, v in res["edges"]:
            residual.add_edge(u, v)
        acct = obj["account"]
        account = BitAccount(
            original_bits=acct["original_bits"],
            rule_bits=acct["rule_bits"],
            application_bits=acct["application_bits"],
            residual_bits=acct["residual_bits"],
        )
        rule_stats = {
            int(rid): {
                "frequency": st["frequency"],
                "cost_histogram": {int(c): n for c, n in st["cost_histogram"].items()},
                "edges_edited": st["edges_edited"],
            }
            for rid, st in obj["rule_stats"].items()
        }
        result = ExtractionResult(
            grammar=library,
            records=records,
            residual=residual,
            account=account,
            rule_stats=rule_stats,
            config=config,
            iterations=obj["iterations"],
            runtime_seconds=obj["runtime_seconds"],
        )
        return result, obj.get("manifest", {})
    except ArtifactInvalid:
        raise
    except (IndexError, KeyError, RuleError, TypeError, ValueError) as exc:
        raise ArtifactInvalid(f"malformed artifact: {exc}") from exc


def load_artifact(path: str | Path) -> tuple[ExtractionResult, dict]:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactInvalid(f"not valid JSON: {exc}") from exc
    return result_from_obj(obj)
