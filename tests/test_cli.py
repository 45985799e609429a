import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vrgc
from vrgc.artifact import load_artifact
from vrgc.cli import main
from vrgc.engine import bit_account
from vrgc.rules import code_edges, rule_to_dot
from conftest import DEMO6_EDGES


def write_demo(tmp_path):
    path = tmp_path / "demo.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in DEMO6_EDGES))
    return path


def test_extract_from_file(tmp_path, capsys):
    edges = write_demo(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--input", str(edges),
            "--kmin", "2", "--kmax", "2",
            "--out", str(out),
            "--emit", "json,dot",
        ]
    )
    assert code == 0
    assert (out / "artifact.json").is_file()
    assert (out / "grammar.json").is_file()
    report = json.loads((out / "report.json").read_text())
    assert "account" in report and "manifest" in report
    assert any(out.glob("rule_*.dot"))
    grammar = json.loads((out / "grammar.json").read_text())
    used = [r for r in grammar["rules"] if r["frequency"] > 0]
    assert len(used) >= 1


def test_extract_generator(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--generator", "bintree",
            "--nodes", "63",
            "--kmax", "3",
            "--out", str(out),
        ]
    )
    assert code == 0


def test_missing_input_exits_1(tmp_path, capsys):
    assert main(["extract", "--input", str(tmp_path / "nope.edges")]) == 1
    assert "error" in capsys.readouterr().err


def test_unreadable_input_exits_1(tmp_path, capsys, monkeypatch):
    """An input file that exists but cannot be read ends in ``error:`` and
    exit 1, not a traceback.  Root can read a ``chmod 000`` file, so the
    read raises by hand."""
    edges = write_demo(tmp_path)

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    assert main(["extract", "--input", str(edges), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Permission denied" in err


def test_bad_config_exits_2(tmp_path):
    edges = write_demo(tmp_path)
    assert main(["extract", "--input", str(edges), "--kmax", "9", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--generator", "chunglu", "--nodes", "0"],
        ["--generator", "er", "--nodes", "10", "--edges", "-1"],
        ["--generator", "treerings", "--nodes", "7"],
    ],
    ids=["chunglu_no_nodes", "er_negative_edges", "treerings_less_than_one_ring"],
)
def test_bad_generator_input_exits_2(tmp_path, capsys, argv):
    assert main(["extract", *argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--emit", "jsn"],
        ["extract", "--emit", "json,svg"],
        ["compare", "--emit", "dot,jsn"],
        ["compare", "--top", "-2", "--emit", "dot"],
        ["extract", "--emit", ","],
        ["extract", "--emit", ""],
        ["compare", "--emit", ","],
        ["compare", "--emit", ""],
    ],
    ids=[
        "extract_emit_typo",
        "extract_emit_unknown",
        "compare_emit_typo",
        "compare_negative_top",
        "extract_emit_comma",
        "extract_emit_empty",
        "compare_emit_comma",
        "compare_emit_empty",
    ],
)
def test_bad_output_option_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """An unknown ``--emit`` token, an ``--emit`` with no token or a
    negative ``--top`` stops the command before it extracts anything or
    creates ``--out``."""

    def no_extraction(*args):
        raise AssertionError("extraction ran")

    monkeypatch.setattr("vrgc.cli.extract", no_extraction)
    out = tmp_path / "out"
    assert main([*argv, "--generator", "bintree", "--nodes", "31", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_roundtrip_ok(tmp_path, capsys):
    edges = write_demo(tmp_path)
    assert main(["roundtrip", "--input", str(edges)]) == 0
    assert "round-trip ok" in capsys.readouterr().out


def test_roundtrip_corrupted_artifact_exits_3(tmp_path, capsys):
    edges = write_demo(tmp_path)
    out = tmp_path / "out"
    assert main(["extract", "--input", str(edges), "--out", str(out)]) == 0
    art = out / "artifact.json"
    obj = json.loads(art.read_text())
    loaded, _ = load_artifact(art)
    # drop the earliest record so the decoded graph stays partially collapsed
    dropped = obj["records"].pop(0)
    art.write_text(json.dumps(obj))
    argv = ["roundtrip", "--input", str(edges), "--artifact", str(art)]
    # the ids it freed are then neither freed nor active, which the loader sees
    assert main(argv) == 1
    assert "residual active ids" in capsys.readouterr().err
    # marked active, in the writer's ascending order, they no longer match
    # the stored bit account
    survivor = min(dropped["node_ids"])
    active = obj["residual"]["active"] + [v for v in dropped["node_ids"] if v != survivor]
    obj["residual"]["active"] = sorted(active)
    art.write_text(json.dumps(obj))
    assert main(argv) == 1
    assert "bit account" in capsys.readouterr().err
    # with the account that the edited records and residual give, they
    # load, and decode into another graph
    loaded.residual.active.update(v for v in dropped["node_ids"] if v != survivor)
    obj["account"] = bit_account(
        loaded.records[1:], loaded.grammar.codes, loaded.residual, loaded.account.original_bits
    ).to_json_obj()
    art.write_text(json.dumps(obj))
    code = main(argv)
    assert code == 3
    err = capsys.readouterr().err
    assert "decoded graph takes" in err


def test_roundtrip_out_of_range_node_ids_exits_1(tmp_path, capsys):
    """Record node ids moved past the id space are rejected on load, not
    decoded into another graph."""
    edges = write_demo(tmp_path)
    out = tmp_path / "out"
    assert main(["extract", "--input", str(edges), "--out", str(out)]) == 0
    art = out / "artifact.json"
    obj = json.loads(art.read_text())
    record = obj["records"][-1]
    survivor = min(record["node_ids"])
    record["node_ids"] = [v if v == survivor else v + 1000 for v in record["node_ids"]]
    art.write_text(json.dumps(obj))
    assert main(["roundtrip", "--input", str(edges), "--artifact", str(art)]) == 1
    assert "node ids" in capsys.readouterr().err


def test_roundtrip_residual_edge_to_freed_id_exits_1(tmp_path):
    """A residual edge to an id that a record frees is rejected on load:
    the command, run in a process of its own, prints an error line and no
    traceback."""
    edges = write_demo(tmp_path)
    out = tmp_path / "out"
    assert main(["extract", "--input", str(edges), "--out", str(out)]) == 0
    art = out / "artifact.json"
    obj = json.loads(art.read_text())
    freed = max(obj["records"][0]["node_ids"])
    obj["residual"]["edges"].append([obj["residual"]["active"][0], freed])
    art.write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=str(Path(vrgc.__file__).resolve().parents[1]))
    argv = ["roundtrip", "--input", str(edges), "--artifact", str(art)]
    proc = subprocess.run(
        [sys.executable, "-m", "vrgc.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


ROUNDTRIP_SOURCES = {
    "bintree": ["--generator", "bintree"],
    "treerings": ["--generator", "treerings", "--branching", "2", "--ring-size", "5"],
    "ringlat": ["--generator", "ringlat"],
    "er": ["--generator", "er", "--edges", "60"],
    "chunglu": ["--generator", "chunglu"],
    "bintree_rewired_exhaustive": ["--generator", "bintree", "--rewire", "0.1", "-s", "off"],
}


@pytest.mark.parametrize("name", list(ROUNDTRIP_SOURCES))
def test_roundtrip_every_generator(tmp_path, capsys, name):
    """Every ``--generator`` choice extracts to an artifact that decodes
    back into the generated graph; one case rewires the tree first and
    turns the shortcut off."""
    source = ROUNDTRIP_SOURCES[name] + ["--nodes", "30", "--kmax", "3", "--seed", "2"]
    out = tmp_path / "out"
    assert main(["extract", *source, "--out", str(out)]) == 0
    assert main(["roundtrip", *source, "--artifact", str(out / "artifact.json")]) == 0
    assert "round-trip ok: 30 nodes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edges, difference",
    [
        (DEMO6_EDGES + [(5, 0)], "edge 5->0 missing from decoded graph"),
        ([e for e in DEMO6_EDGES if e != (1, 2)], "unexpected edge 1->2 in decoded graph"),
        (DEMO6_EDGES + [(5, 6)], "node 6 missing from decoded graph"),
        ([e for e in DEMO6_EDGES if e != (3, 5)], "unexpected node 5 in decoded graph"),
    ],
    ids=["edge_missing", "edge_unexpected", "node_missing", "node_unexpected"],
)
def test_roundtrip_against_another_graph_exits_3(tmp_path, capsys, edges, difference):
    """An intact artifact checked against a graph it was not extracted
    from decodes, differs, and the message names the first difference."""
    out = tmp_path / "out"
    assert main(["extract", "--input", str(write_demo(tmp_path)), "--out", str(out)]) == 0
    other = tmp_path / "other.edges"
    other.write_text("".join(f"{u} {v}\n" for u, v in edges))
    argv = ["roundtrip", "--input", str(other), "--artifact", str(out / "artifact.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"round-trip mismatch: {difference}\n"


def test_outputs_share_rule_ids(tmp_path):
    """``artifact.json``, ``grammar.json``, ``report.json`` and the
    ``rule_<id>.dot`` files number the rules alike, and list only the rules
    the records use: three on a 3000-node binary tree at ``kmax`` 7.  Each
    JSON file is its object's compact canonical dump."""
    out = tmp_path / "out"
    argv = ["extract", "--generator", "bintree", "--nodes", "3000", "--kmax", "7"]
    assert main(argv + ["--out", str(out), "--emit", "json,dot"]) == 0
    texts = [(out / name).read_text() for name in ("artifact.json", "grammar.json", "report.json")]
    art, grammar, report = map(json.loads, texts)
    for text, obj in zip(texts, (art, grammar, report)):
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    codes = [bytes.fromhex(c) for c in art["grammar"]["codes"]]
    assert len(codes) == len(grammar["rules"]) == 3
    counts = Counter(r["rule_id"] for r in art["records"])
    assert sorted(counts) == list(range(len(codes)))
    for rid, rule in enumerate(grammar["rules"]):
        assert rule["id"] == rid
        assert rule["frequency"] == counts[rid]
        assert [tuple(e) for e in rule["edges"]] == code_edges(codes[rid])
    assert sorted(grammar["order"]) == list(range(len(codes)))
    assert [(r["id"], r["frequency"]) for r in report["rules"]] == [
        (rid, counts[rid]) for rid in grammar["order"]
    ]
    assert sorted(path.name for path in out.glob("rule_*.dot")) == [
        f"rule_{rid}.dot" for rid in range(len(codes))
    ]
    for rid, code in enumerate(codes):
        dot = rule_to_dot(code, name=f"rule_{rid}")
        assert (out / f"rule_{rid}.dot").read_text() == dot


@pytest.mark.parametrize("kind", ["missing", "directory", "non_utf8", "truncated_json"])
def test_roundtrip_unreadable_artifact_exits_1(tmp_path, capsys, kind):
    """An artifact that cannot be read as JSON is a parse error: exit 1
    with ``error:``, not a traceback."""
    edges = write_demo(tmp_path)
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    elif kind == "non_utf8":
        bad.write_bytes(b'{"schema_version": "\xff"}')
    elif kind == "truncated_json":
        bad.write_text("{")
    assert main(["roundtrip", "--input", str(edges), "--artifact", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: unreadable artifact: ")


@pytest.mark.parametrize(
    "axis, value", [("kmax", "3"), ("nodes", "40"), ("rewire", "0.1")], ids=["kmax", "nodes", "rewire"]
)
def test_sweep_single_point(tmp_path, axis, value):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--generator", "bintree",
            "--nodes", "63",
            "--axis", axis,
            "--values", value,
            "--out", str(out),
        ]
    )
    assert code == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["param"] == axis
    assert float(rows[0]["value"]) == float(value)
    assert list(rows[0]) == [
        "param", "value", "compression_rate", "runtime_seconds", "rules", "extractions",
    ]


def test_sweep_bad_values_exits_2(tmp_path):
    assert (
        main(
            [
                "sweep",
                "--generator", "bintree",
                "--axis", "nodes",
                "--values", "abc",
                "--out", str(tmp_path),
            ]
        )
        == 2
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--generator", "bintree", "--nodes", "300", "--axis", "kmax", "--values", "3,9"],
        ["--generator", "bintree", "--axis", "nodes", "--values", "300,0"],
        ["--generator", "bintree", "--nodes", "31", "--axis", "rewire", "--values", "0.1,1.5"],
        ["--input", "DEMO", "--axis", "nodes", "--values", "100,3000"],
    ],
    ids=["kmax_too_large", "nodes_zero", "rewire_above_one", "nodes_with_input"],
)
def test_sweep_bad_point_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """A sweep builds every point's graph and config before it extracts
    anything or creates ``--out``, so one bad point stops the whole sweep;
    ``--axis nodes`` needs ``--generator``, since a file has fixed size."""

    def no_extraction(*args):
        raise AssertionError("extraction ran")

    monkeypatch.setattr("vrgc.cli.extract", no_extraction)
    argv = [str(write_demo(tmp_path)) if a == "DEMO" else a for a in argv]
    out = tmp_path / "out"
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_compare_runs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--generator", "bintree",
            "--nodes", "63",
            "--kmax", "3",
            "--seed", "4",
            "--out", str(out),
            "--emit", "json,dot",
        ]
    )
    assert code == 0
    report = json.loads((out / "compare.json").read_text())
    assert set(report["kl"]) == {"er", "chunglu"}
    assert "kl[er]" in capsys.readouterr().out


def test_compare_with_nothing_extracted(tmp_path, capsys):
    """With ``--mdl-stop`` no extraction on this ER graph pays for itself,
    so the grammar is empty; the comparison still runs."""
    out = tmp_path / "cmp"
    argv = ["compare", "--generator", "er", "--nodes", "60", "--edges", "300", "--mdl-stop"]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["rules"] == []
    assert set(report["kl"]) == {"er", "chunglu"}
    assert "kl[er]" in capsys.readouterr().out


def test_compare_on_a_graph_with_no_edges(tmp_path):
    """The Chung-Lu null of an edgeless graph has an all-zero degree
    sequence, a valid model whose graph has no edges."""
    out = tmp_path / "cmp"
    argv = ["compare", "--generator", "er", "--nodes", "5", "--edges", "0", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["rules"] == []
