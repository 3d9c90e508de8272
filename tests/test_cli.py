import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import opminer
from opminer import miner
from opminer.cli import BUDGET_EXCEEDED, OK, main, patterns_to_doc
from opminer.evalharness import bundle_to_db
from opminer.graphcore import dumps_transactions, loads_transactions
from opminer.miner import _link as link
from opminer.modeldiff import save_model
from opminer.ranker import prune
from opminer.simgen import SimConfig, default_catalogs, simulate
from fixtures import FIXTURE_METAMODEL, SMALL_COUNTS, fig_pair
from oracles import random_connected_graph


@pytest.fixture()
def fig_files(tmp_path):
    old, new = fig_pair()
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    save_model(old, old_path)
    save_model(new, new_path)
    mm_path = tmp_path / "mm.json"
    mm_path.write_text(json.dumps(FIXTURE_METAMODEL.to_json()), encoding="utf-8")
    return old_path, new_path, mm_path


class TestDiff:
    def test_identical_files(self, tmp_path, fig_files, capsys):
        old_path, _, _ = fig_files
        out = tmp_path / "scg.txt"
        code = main(["diff", str(old_path), str(old_path), "--out", str(out)])
        assert code == 0
        assert "components: 0" in capsys.readouterr().out
        assert out.read_text() == ""

    def test_fig_pair(self, tmp_path, fig_files, capsys):
        old_path, new_path, mm_path = fig_files
        out = tmp_path / "scg.txt"
        code = main(
            ["diff", str(old_path), str(new_path), "--out", str(out),
             "--metamodel", str(mm_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "components: 1" in printed
        assert "created: 11" in printed
        assert "boundary: 2" in printed
        graphs = loads_transactions(out.read_text())
        assert len(graphs) == 1
        assert graphs[0].size == 13

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "scg.txt"
        code = main(["diff", str(bad), str(bad), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def scg_file(tmp_path, fig_files):
    old_path, new_path, _ = fig_files
    out = tmp_path / "scg.txt"
    assert main(["diff", str(old_path), str(new_path), "--out", str(out)]) == 0
    # duplicate the single component into a 3-transaction db
    text = out.read_text()
    big = tmp_path / "db.txt"
    big.write_text(text + text + text, encoding="utf-8")
    return big


class TestMine:
    def test_fixed_threshold_finds_pattern(self, tmp_path, scg_file, capsys):
        ranked_path = tmp_path / "ranked.json"
        patterns_path = tmp_path / "patterns.json"
        code = main(
            ["mine", str(scg_file), "--out", str(ranked_path),
             "--patterns-out", str(patterns_path), "--threshold", "3"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "threshold: 3 (fixed)" in printed
        doc = json.loads(ranked_path.read_text())
        assert doc["items"][0]["nodes"] == 6 and doc["items"][0]["edges"] == 7
        assert doc["items"][0]["support"] == 3
        pdoc = json.loads(patterns_path.read_text())
        assert pdoc["threshold"] == 3
        assert all("code" in p and "parents" in p for p in pdoc["patterns"])

    def test_pattern_document_of_a_subset_links_within_it(self):
        rng = random.Random(7)
        db = miner.TransactionDB.of([random_connected_graph(rng, 5, 2) for _ in range(3)])
        mined = miner.mine(db, 2)
        kept = prune(mined)
        codes = {p.code for p in kept}
        assert any(set(p.children) - codes for p in kept)
        doc = patterns_to_doc(kept, 2, False)
        for p, entry in zip(kept, doc["patterns"]):
            assert {kept[i].code for i in entry["parents"]} == set(p.parents) & codes
            assert {kept[i].code for i in entry["children"]} == set(p.children) & codes

    def test_relative_threshold_echoed(self, tmp_path, scg_file, capsys):
        out = tmp_path / "ranked.json"
        code = main(
            ["mine", str(scg_file), "--out", str(out), "--threshold", "0.4",
             "--relative"]
        )
        assert code == 0
        assert "threshold: 2 (relative 0.4 of 3)" in capsys.readouterr().out

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out, patterns = tmp_path / "ranked.json", tmp_path / "patterns.json"
        assert main(["mine", str(empty), "--out", str(out), "--patterns-out", str(patterns)]) == 0
        doc = json.loads(out.read_text())
        assert doc["items"] == []
        assert json.loads(patterns.read_text()) == {"threshold": 0, "partial": False, "patterns": []}
        reranked = tmp_path / "reranked.json"
        assert main(["rank", "--in", str(patterns), "--out", str(reranked)]) == 0
        assert json.loads(reranked.read_text()) == doc

    def test_budget_exceeded_exit_code(self, tmp_path, scg_file, monkeypatch):
        monkeypatch.setenv("OPMINER_TIME_BUDGET_S", "0.0")
        out = tmp_path / "ranked.json"
        code = main(["mine", str(scg_file), "--out", str(out), "--threshold", "3"])
        assert code == 3
        assert json.loads(out.read_text())["partial"] is True

    def test_lattice_built_only_for_patterns_out(self, tmp_path, scg_file, monkeypatch):
        # the ranking needs no lattice links; the pattern document does
        def no_lattice(patterns):
            raise AssertionError("lattice links built")

        monkeypatch.setattr(miner, "_link", no_lattice)
        out = tmp_path / "ranked.json"
        assert main(["mine", str(scg_file), "--out", str(out), "--threshold", "3"]) == 0
        assert json.loads(out.read_text())["items"]
        built = []
        monkeypatch.setattr(miner, "_link", lambda patterns: built.append(1) or link(patterns))
        patterns_out = tmp_path / "patterns.json"
        assert main(["mine", str(scg_file), "--out", str(out), "--threshold", "3",
                     "--patterns-out", str(patterns_out)]) == 0
        assert built == [1]

    def test_idempotent_outputs(self, tmp_path, scg_file):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["mine", str(scg_file), "--out", str(out1), "--threshold", "3"])
        main(["mine", str(scg_file), "--out", str(out2), "--threshold", "3"])
        assert out1.read_bytes() == out2.read_bytes()


SRC_DIR = Path(opminer.__file__).resolve().parents[1]


def test_import_loads_no_process_pool():
    # only a grid run with jobs > 1 needs a process pool; no other opminer
    # process should load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, opminer.cli; print('concurrent.futures.process' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr

# two dense 12-node, 89-edge transactions: far more connected subgraphs than
# a second of growth reaches at threshold 1
_rng = random.Random(1)
DENSE = dumps_transactions(
    [random_connected_graph(_rng, 12, 2, extra_edge_prob=0.3) for _ in range(2)]
)

# (case, input file text or "scg" for the fig-pair database or None for a
# missing file, environment, extra arguments, documented exit code); in the
# extra arguments "{absent}" names an absent directory and "{tmp}" the test's
# directory, and a second --out replaces the default one
MINE_EXIT_CODES = [
    ("ok", "scg", {}, ["--threshold", "3"], 0),
    ("missing input", None, {}, [], 2),
    ("malformed transaction", "t # 0\nv 0\n", {}, [], 2),
    ("disconnected transaction", "t # 0\nv 0 a\nv 1 b\n", {}, [], 2),
    ("non-numeric budget", "scg", {"OPMINER_TIME_BUDGET_S": "abc"}, [], 2),
    ("two threshold modes", "scg", {}, ["--calibrate", "--threshold", "3"], 2),
    ("threshold not a number", "scg", {}, ["--threshold", "nan"], 2),
    ("infinite threshold", "scg", {}, ["--threshold", "inf"], 2),
    ("threshold beyond float range", "scg", {}, ["--threshold", "1e400"], 2),
    ("relative threshold not a number", "scg", {}, ["--relative", "--threshold", "nan"], 2),
    ("budget out while mining", "scg", {"OPMINER_TIME_BUDGET_S": "0"},
     ["--threshold", "3"], 3),
    ("budget out while calibrating", "scg", {"OPMINER_TIME_BUDGET_S": "0"}, [], 3),
    ("budget out while mining a dense graph", DENSE, {"OPMINER_TIME_BUDGET_S": "1"},
     ["--threshold", "1"], 3),
    ("budget out while mining a dense graph, with a pattern document", DENSE,
     {"OPMINER_TIME_BUDGET_S": "1"}, ["--threshold", "1", "--patterns-out", "{tmp}/p.json"], 3),
    ("output directory missing", "scg", {}, ["--threshold", "3", "--out", "{absent}/r.json"], 2),
    ("patterns output directory missing", "scg", {},
     ["--threshold", "3", "--patterns-out", "{absent}/p.json"], 2),
    ("output directory missing, budget out while calibrating", "scg",
     {"OPMINER_TIME_BUDGET_S": "0"}, ["--out", "{absent}/r.json"], 2),
]


@pytest.mark.parametrize(
    "text, env, extra, expected", [row[1:] for row in MINE_EXIT_CODES],
    ids=[row[0] for row in MINE_EXIT_CODES],
)
def test_mine_exit_codes(tmp_path, scg_file, text, env, extra, expected):
    source = tmp_path / "input.txt"
    if text == "scg":
        source = scg_file
    elif text is not None:
        source.write_text(text, encoding="utf-8")
    out = tmp_path / "ranked.json"
    run_env = {k: v for k, v in os.environ.items() if k != "OPMINER_TIME_BUDGET_S"}
    run_env.update(env, PYTHONPATH=str(SRC_DIR))
    extra = [arg.format(absent=tmp_path / "absent", tmp=tmp_path) for arg in extra]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "opminer.cli", "mine", str(source), "--out", str(out), *extra],
        env=run_env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 3:  # an overrun ends at the budget, plus start-up and writing
        assert elapsed < float(env["OPMINER_TIME_BUDGET_S"]) + 5, elapsed
    if expected in (0, 3):
        assert json.loads(out.read_text())["partial"] is (expected == 3)
        if "--patterns-out" in extra:  # a partial document carries no links
            patterns = json.loads((tmp_path / "p.json").read_text())["patterns"]
            assert patterns and all(("parents" in p) is (expected == 0) for p in patterns)
    else:
        assert proc.stderr.startswith("error: ")


def metamodel_text(**containment) -> str:
    """The fixture meta-model document, with the ``containment`` value of each
    edge type named in ``containment`` replaced."""
    doc = FIXTURE_METAMODEL.to_json()
    for edge in doc["edgeTypes"]:
        edge["containment"] = containment.get(edge["name"], edge["containment"])
    return json.dumps(doc)


# (case, --counts file text or None for a missing file, --metamodel file text
# or None for none, --out under tmp_path, where "file" is an existing file,
# documented exit code)
SIMULATE_EXIT_CODES = [
    ("ok", json.dumps(SMALL_COUNTS), None, "bundle", 0),
    ("missing counts file", None, None, "bundle", 2),
    ("malformed counts json", "{", None, "bundle", 2),
    ("counts not an object", "[1, 2]", None, "bundle", 2),
    ("string count", '{"Package": "abc"}', None, "bundle", 2),
    ("fractional count", '{"Package": 2.5}', None, "bundle", 2),
    ("boolean count", '{"Package": true}', None, "bundle", 2),
    ("negative count", '{"Package": -1}', None, "bundle", 2),
    ("unknown type", '{"Widget": 1}', None, "bundle", 2),
    ("output is a file", json.dumps(SMALL_COUNTS), None, "file", 2),
    ("ok with a meta-model", json.dumps(SMALL_COUNTS), metamodel_text(), "bundle", 0),
    ("containment a string", json.dumps(SMALL_COUNTS), metamodel_text(port="true"), "bundle", 2),
    ("containment an integer", json.dumps(SMALL_COUNTS), metamodel_text(port=1), "bundle", 2),
]


@pytest.mark.parametrize(
    "text, mm, out, expected", [row[1:] for row in SIMULATE_EXIT_CODES],
    ids=[row[0] for row in SIMULATE_EXIT_CODES],
)
def test_simulate_exit_codes(tmp_path, text, mm, out, expected):
    counts = tmp_path / "counts.json"
    if text is not None:
        counts.write_text(text, encoding="utf-8")
    metamodel = []
    if mm is not None:
        (tmp_path / "mm.json").write_text(mm, encoding="utf-8")
        metamodel = ["--metamodel", str(tmp_path / "mm.json")]
    (tmp_path / "file").write_text("", encoding="utf-8")
    run_env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-m", "opminer.cli", "simulate", "--d", "1", "--e", "1",
         "--p", "0", "--seed", "1", "--counts", str(counts), "--out", str(tmp_path / out),
         *metamodel],
        env=run_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / out / "m1.json").exists() is (expected == 0)
    if expected == 2:
        assert proc.stderr.startswith("error: ")


def run_cli(args, tmp_path, doc):
    """Run ``opminer`` in a subprocess on ``doc`` (a JSON value, raw text, or
    None for a missing file) passed as ``--in``."""
    source = tmp_path / "doc.json"
    if doc is not None:
        source.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "opminer.cli", *args, "--in", str(source)],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, timeout=120,
    )


PORT = "t # 0\nv 0 create_Port\n"
PORT_IN_COMPONENT = "t # 0\nv 0 preserved_Component\nv 1 create_Port\ne 0 1 create_port\n"


def pattern_doc(**changes):
    """A two-pattern document (a Port under a Component and the Port alone,
    both closed), with the fields of the larger pattern overridden by
    ``changes``."""
    big = {"support": 2, "closed": True, "graph": PORT_IN_COMPONENT, "children": [1], **changes}
    return {"threshold": 2,
            "patterns": [big, {"support": 3, "closed": True, "graph": PORT, "parents": [0]}]}


# (case, --in document, --out under tmp_path, documented exit code)
RANK_EXIT_CODES = [
    ("ok", pattern_doc(), "ranked.json", 0),
    ("missing input", None, "ranked.json", 2),
    ("malformed json", "{", "ranked.json", 2),
    ("top-level array", [pattern_doc()], "ranked.json", 2),
    ("no patterns", {"threshold": 2}, "ranked.json", 2),
    ("patterns not a list", {"patterns": {"0": pattern_doc()["patterns"][0]}}, "ranked.json", 2),
    ("pattern not an object", {"patterns": ["t # 0"]}, "ranked.json", 2),
    ("graph not text", pattern_doc(graph=7), "ranked.json", 2),
    ("two transactions in a graph", pattern_doc(graph=PORT + PORT.replace("0", "1", 1)),
     "ranked.json", 2),
    ("disconnected graph", pattern_doc(graph="t # 0\nv 0 a\nv 1 b\n"), "ranked.json", 2),
    ("string support", pattern_doc(support="2"), "ranked.json", 2),
    ("zero support", pattern_doc(support=0), "ranked.json", 2),
    ("closed missing", {"patterns": [{"support": 2, "graph": PORT}]}, "ranked.json", 2),
    ("closed an integer", pattern_doc(closed=1), "ranked.json", 2),
    ("closed a string", pattern_doc(closed="true"), "ranked.json", 2),
    ("closed null", pattern_doc(closed=None), "ranked.json", 2),
    ("threshold a string", {**pattern_doc(), "threshold": "two"}, "ranked.json", 2),
    ("threshold negative", {**pattern_doc(), "threshold": -1}, "ranked.json", 2),
    ("threshold a boolean", {**pattern_doc(), "threshold": True}, "ranked.json", 2),
    ("partial a string", {**pattern_doc(), "partial": "yes"}, "ranked.json", 2),
    ("partial an integer", {**pattern_doc(), "partial": 1}, "ranked.json", 2),
    ("output directory missing", pattern_doc(), "absent/ranked.json", 2),
]


@pytest.mark.parametrize(
    "doc, out, expected", [row[1:] for row in RANK_EXIT_CODES],
    ids=[row[0] for row in RANK_EXIT_CODES],
)
def test_rank_exit_codes(tmp_path, doc, out, expected):
    out = tmp_path / out
    proc = run_cli(["rank", "--out", str(out)], tmp_path, doc)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        assert [item["support"] for item in json.loads(out.read_text())["items"]] == [2, 3]
    else:
        assert proc.stderr.startswith("error: ") and not out.exists()


GOOD_ITEM = {"rank": 2, "graph": PORT}

# (case, --in document, --out under tmp_path, where "file" is an existing
# file and "blocked" a directory holding a directory named rule_0002.json,
# documented exit code); exit 1 skips the bad entry and still writes the
# rule of GOOD_ITEM
RULES_EXIT_CODES = [
    ("ok", {"items": [GOOD_ITEM]}, "rules", 0),
    ("pattern document", pattern_doc(), "rules", 0),
    ("missing input", None, "rules", 2),
    ("malformed json", "{", "rules", 2),
    ("top-level array", [GOOD_ITEM], "rules", 2),
    ("neither items nor patterns", {"threshold": 2}, "rules", 2),
    ("items not a list", {"items": GOOD_ITEM}, "rules", 2),
    ("patterns not a list", {"patterns": "t # 0"}, "rules", 2),
    ("entry not an object", {"items": ["t # 0", GOOD_ITEM]}, "rules", 1),
    ("entry without a graph", {"items": [{"rank": 1}, GOOD_ITEM]}, "rules", 1),
    ("two transactions in a graph", {"items": [{"rank": 1, "graph": PORT + PORT}, GOOD_ITEM]},
     "rules", 1),
    ("non-integer rank", {"items": [{"rank": "first", "graph": PORT}, GOOD_ITEM]},
     "rules", 1),
    ("unprefixed label", {"items": [{"rank": 1, "graph": "t # 0\nv 0 Port\n"}, GOOD_ITEM]},
     "rules", 1),
    ("output is a file", {"items": [GOOD_ITEM]}, "file", 2),
    ("rule file is a directory", {"items": [GOOD_ITEM]}, "blocked", 2),
]


@pytest.mark.parametrize(
    "doc, out, expected", [row[1:] for row in RULES_EXIT_CODES],
    ids=[row[0] for row in RULES_EXIT_CODES],
)
def test_rules_exit_codes(tmp_path, doc, out, expected):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "blocked" / "rule_0002.json").mkdir(parents=True)
    out_dir = tmp_path / out
    proc = run_cli(["rules", "--out", str(out_dir)], tmp_path, doc)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 2:
        assert proc.stderr.startswith("error: ")
    else:
        assert (out_dir / "rule_0002.json").exists()
        assert ("warning: pattern at rank" in proc.stderr) is (expected == 1)


def run_opminer(*args):
    return subprocess.run(
        [sys.executable, "-m", "opminer.cli", *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, timeout=120,
    )


# (case, old, new, --out, --metamodel or None, documented exit code); "old",
# "new" and "mm" name the fig_files, "bad" a malformed JSON file, "missing" an
# absent file, "nodir" a path in an absent directory, "dir" a directory,
# "int-type" a model with an integer element type, "int-uids" a model whose
# uids are integers, "ab" a model of one A-to-B reference and "*-mm" meta-models
# with a field of the wrong JSON type
DIFF_EXIT_CODES = [
    ("ok", "old", "new", "scg.txt", "mm", 0),
    ("missing old model", "missing", "new", "scg.txt", None, 2),
    ("malformed new model", "old", "bad", "scg.txt", None, 2),
    ("malformed meta-model", "old", "new", "scg.txt", "bad", 2),
    ("model does not conform", "old", "new", "scg.txt", "empty-mm", 2),
    ("output directory missing", "old", "new", "nodir", None, 2),
    ("output is a directory", "old", "new", "dir", None, 2),
    ("element type not a string", "old", "int-type", "scg.txt", None, 2),
    ("integer uids", "int-uids", "int-uids", "scg.txt", None, 2),
    ("containment a string", "old", "new", "scg.txt", "string-containment-mm", 2),
    ("containment an integer", "old", "new", "scg.txt", "int-containment-mm", 2),
    ("node types a string", "ab", "ab", "scg.txt", "string-types-mm", 2),
    ("edge type name not a string", "old", "new", "scg.txt", "int-name-mm", 2),
]


@pytest.mark.parametrize(
    "old, new, out, mm, expected", [row[1:] for row in DIFF_EXIT_CODES],
    ids=[row[0] for row in DIFF_EXIT_CODES],
)
def test_diff_exit_codes(tmp_path, fig_files, old, new, out, mm, expected):
    old_path, new_path, mm_path = fig_files
    (tmp_path / "bad").write_text("{", encoding="utf-8")
    (tmp_path / "empty-mm").write_text(
        json.dumps({"nodeTypes": [], "edgeTypes": []}), encoding="utf-8"
    )
    (tmp_path / "dir").mkdir()
    (tmp_path / "int-type").write_text(
        json.dumps({"elements": [{"uid": "a", "type": 5}], "references": []}), encoding="utf-8"
    )
    (tmp_path / "string-containment-mm").write_text(metamodel_text(port="true"), encoding="utf-8")
    (tmp_path / "int-containment-mm").write_text(metamodel_text(port=1), encoding="utf-8")
    (tmp_path / "ab").write_text(json.dumps({
        "elements": [{"uid": "a", "type": "A"}, {"uid": "b", "type": "B"}],
        "references": [{"src": "a", "tgt": "b", "type": "r"}],
    }), encoding="utf-8")
    (tmp_path / "string-types-mm").write_text(json.dumps({
        "nodeTypes": "AB", "edgeTypes": [{"name": "r", "src": "A", "tgt": "B"}],
    }), encoding="utf-8")
    int_name = json.loads(metamodel_text())
    int_name["edgeTypes"].append({"name": 5, "src": "Package", "tgt": "Port"})
    (tmp_path / "int-name-mm").write_text(json.dumps(int_name), encoding="utf-8")
    (tmp_path / "int-uids").write_text(json.dumps({
        "elements": [{"uid": 1, "type": "A"}, {"uid": 2, "type": "A"}],
        "references": [{"src": 1, "tgt": 2, "type": "r"}],
    }), encoding="utf-8")
    paths = {
        "old": old_path, "new": new_path, "mm": mm_path,
        "nodir": tmp_path / "absent" / "scg.txt",
    }
    resolve = lambda name: paths.get(name, tmp_path / name)
    metamodel = ["--metamodel", resolve(mm)] if mm else []
    proc = run_opminer("diff", resolve(old), resolve(new), "--out", resolve(out), *metamodel)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        assert "components: 1" in proc.stdout
        assert len(loads_transactions(resolve(out).read_text())) == 1
    else:
        assert proc.stderr.startswith("error: ")


def grid(**changes):
    """A one-cell grid on small counts at a fixed threshold, with ``changes``;
    a change to ``None`` drops the key."""
    doc = {
        "d": [1], "e": [1], "p": [0.0], "seeds": [1],
        "threshold": {"mode": "fixed", "value": 1}, "k": [1],
        "initialCounts": SMALL_COUNTS, **changes,
    }
    return {k: v for k, v in doc.items() if v is not None}


# (case, --grid document as for run_cli, documented exit code)
EVAL_EXIT_CODES = [
    ("ok", grid(), 0),
    ("seed count", grid(seeds=1), 0),
    ("missing grid", None, 2),
    ("malformed json", "{", 2),
    ("top-level array", [grid()], 2),
    ("no d", grid(d=None), 2),
    ("d not a list", grid(d="x"), 2),
    ("zero e", grid(e=[0]), 2),
    ("boolean d", grid(d=[True]), 2),
    ("p above one", grid(p=[1.5]), 2),
    ("string seed", grid(seeds=["1"]), 2),
    ("unknown rules", grid(rules="experimentX"), 2),
    ("threshold not an object", grid(threshold=2), 2),
    ("unknown threshold mode", grid(threshold={"mode": "median"}), 2),
    ("fixed threshold without value", grid(threshold={"mode": "fixed"}), 2),
    ("fixed threshold not a number",
     grid(threshold={"mode": "fixed", "value": float("nan")}), 2),
    ("infinite fixed threshold", grid(threshold={"mode": "fixed", "value": float("inf")}), 2),
    ("relative threshold above one", grid(threshold={"mode": "relative", "value": 2}), 2),
    ("zero k", grid(k=[0]), 2),
    ("zero jobs", grid(jobs=0), 2),
    ("string budget", grid(timeBudgetS="abc"), 2),
    ("counts not an object", grid(initialCounts=[1]), 2),
    ("unknown type in counts", grid(initialCounts={"Widget": 1}), 2),
    ("negative count", grid(initialCounts={**SMALL_COUNTS, "Port": -1}), 2),
]


@pytest.mark.parametrize(
    "doc, expected", [row[1:] for row in EVAL_EXIT_CODES], ids=[row[0] for row in EVAL_EXIT_CODES]
)
def test_eval_exit_codes(tmp_path, doc, expected):
    source = tmp_path / "grid.json"
    if doc is not None:
        source.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    out = tmp_path / "evalout"
    proc = run_opminer("eval", "--grid", source, "--out", out)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        assert "MAP@1" in proc.stdout and (out / "summary.json").exists()
    else:
        assert proc.stderr.startswith("error: ") and not out.exists()


@pytest.mark.parametrize("blocked", ["summary.json", "report.csv"])
def test_eval_write_failure_exit_code(tmp_path, blocked):
    source = tmp_path / "grid.json"
    source.write_text(json.dumps(grid()), encoding="utf-8")
    out = tmp_path / "evalout"
    (out / blocked).mkdir(parents=True)
    proc = run_opminer("eval", "--grid", source, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


REPORT_HEADER = (
    "d,e,p,seed,threshold,mining_ms,avg_nodes_per_component,size_at_threshold,"
    "rank_truth_1,rank_truth_2,ap@1,ap@inf,mode\n"
)
REPORT_ROW = "1,1,0.0,1,1,2.5,3.0,3,1,,1.0,1.0,compression\n"

# (case, --in report text as for run_cli, documented exit code)
REPORT_EXIT_CODES = [
    ("ok", REPORT_HEADER + REPORT_ROW, 0),
    ("header only", REPORT_HEADER, 0),
    ("missing report", None, 2),
    ("empty file", "", 2),
    ("no mode column", REPORT_HEADER.replace(",mode", "") + REPORT_ROW.replace(",compression", ""), 2),
    ("no seed column", REPORT_HEADER.replace(",seed", "") + REPORT_ROW.replace(",1,1,2.5", ",1,2.5"), 2),
    ("non-numeric ap", REPORT_HEADER + REPORT_ROW.replace("1.0,1.0", "high,1.0"), 2),
    ("empty ap", REPORT_HEADER + REPORT_ROW.replace("1.0,1.0", ",1.0"), 2),
    ("non-numeric d", REPORT_HEADER + "x" + REPORT_ROW[1:], 2),
    ("more cells than columns", REPORT_HEADER + REPORT_ROW.replace("\n", ",extra\n"), 2),
]


@pytest.mark.parametrize(
    "text, expected", [row[1:] for row in REPORT_EXIT_CODES],
    ids=[row[0] for row in REPORT_EXIT_CODES],
)
def test_report_exit_codes(tmp_path, text, expected):
    proc = run_cli(["report"], tmp_path, text)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        assert ("MAP@1" in proc.stdout) is (text != REPORT_HEADER)
    else:
        assert proc.stderr.startswith("error: ")


class TestRankAndRules:
    def test_rank_modes(self, tmp_path, scg_file):
        patterns_path = tmp_path / "patterns.json"
        main(
            ["mine", str(scg_file), "--out", str(tmp_path / "r.json"),
             "--patterns-out", str(patterns_path), "--threshold", "3"]
        )
        out = tmp_path / "freq.json"
        code = main(["rank", "--in", str(patterns_path), "--by", "frequency",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        supports = [i["support"] for i in doc["items"]]
        assert supports == sorted(supports, reverse=True)

    def test_rules_from_ranked(self, tmp_path, scg_file):
        ranked_path = tmp_path / "ranked.json"
        main(["mine", str(scg_file), "--out", str(ranked_path), "--threshold", "3"])
        rules_dir = tmp_path / "rules"
        code = main(["rules", "--in", str(ranked_path), "--out", str(rules_dir), "--dot"])
        assert code == 0
        top = json.loads((rules_dir / "rule_0001.json").read_text())
        assert len(top["contextNodes"]) == 2
        assert len(top["createdNodes"]) == 4
        assert len(top["createdEdges"]) == 7
        assert (rules_dir / "rule_0001.dot").exists()

    def test_rules_empty_input(self, tmp_path):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps({"items": []}), encoding="utf-8")
        out_dir = tmp_path / "rules"
        assert main(["rules", "--in", str(doc), "--out", str(out_dir)]) == 0
        assert list(out_dir.iterdir()) == []

    def test_rules_bad_pattern_skipped(self, tmp_path, capsys):
        doc = {
            "items": [
                {"rank": 1, "graph": "t # 0\nv 0 unprefixed_label\n"},
                {"rank": 2, "graph": "t # 0\nv 0 create_Port\n"},
            ]
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out_dir = tmp_path / "rules"
        code = main(["rules", "--in", str(path), "--out", str(out_dir)])
        assert code == 1
        assert (out_dir / "rule_0002.json").exists()
        assert not (out_dir / "rule_0001.json").exists()


def round_trip_source(kind: str, seed: int) -> str:
    """Transactions of a seeded random database (four random 6-node graphs)
    or of a small simulated history."""
    if kind == "random":
        rng = random.Random(seed)
        return dumps_transactions([random_connected_graph(rng, 6, 2) for _ in range(4)])
    core, pert = default_catalogs()
    bundle = simulate(SimConfig(d=2, e=2, p=0.5, seed=seed, core_rules=core,
                                perturbations=pert, initial_counts=SMALL_COUNTS))
    return dumps_transactions(bundle_to_db(bundle).transactions)


@pytest.mark.parametrize("ticks", [None, 5, 20, 60])
@pytest.mark.parametrize("by", ["compression", "frequency"])
@pytest.mark.parametrize("kind, seed", [("random", s) for s in range(4)]
                         + [("simulated", s) for s in range(1, 3)])
def test_rank_of_pattern_document_equals_mine(tmp_path, monkeypatch, kind, seed, by, ticks):
    """``rank --in`` a ``--patterns-out`` document ranks as ``mine --out``
    does, on full runs and on partial ones. A clock that advances one second
    per reading makes a budget of ``ticks`` seconds stop growth
    deterministically; ``None`` runs to the end."""
    source, ranked, patterns, reranked = (
        tmp_path / name for name in ("db.txt", "ranked.json", "patterns.json", "reranked.json")
    )
    source.write_text(round_trip_source(kind, seed), encoding="utf-8")
    monkeypatch.delenv("OPMINER_TIME_BUDGET_S", raising=False)
    budget = []
    if ticks is not None:
        clock = itertools.count()
        fake_time = types.SimpleNamespace(monotonic=lambda: float(next(clock)))
        monkeypatch.setattr(miner, "time", fake_time)
        budget = ["--time-budget", str(ticks)]
    code = main(["mine", str(source), "--threshold", "2", "--by", by, *budget,
                 "--out", str(ranked), "--patterns-out", str(patterns)])
    assert code == (OK if ticks is None else BUDGET_EXCEEDED)
    assert main(["rank", "--in", str(patterns), "--by", by, "--out", str(reranked)]) == OK
    mined, doc = json.loads(ranked.read_text()), json.loads(reranked.read_text())
    assert doc["items"] == mined["items"]
    assert doc["partial"] is mined["partial"] is (code == BUDGET_EXCEEDED)


class TestSimulateEvalReport:
    def test_simulate_writes_bundle(self, tmp_path, capsys):
        counts = {
            "Package": 5, "Component": 6, "SwImplementation": 3,
            "Port": 8, "Connector": 4, "Requirement": 5,
        }
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(counts), encoding="utf-8")
        out = tmp_path / "bundle"
        code = main(
            ["simulate", "--d", "2", "--e", "1", "--p", "0.0", "--seed", "3",
             "--out", str(out), "--counts", str(counts_path)]
        )
        assert code == 0
        assert (out / "m0.json").exists() and (out / "m2.json").exists()
        assert (out / "truth" / "add_component_interface.txt").exists()

    def test_simulate_deterministic(self, tmp_path):
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(
            json.dumps({"Package": 4, "Component": 5, "SwImplementation": 2,
                        "Port": 6, "Connector": 3, "Requirement": 4}),
            encoding="utf-8",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--d", "1", "--e", "1", "--p", "0.5", "--seed", "7",
                  "--out", str(out), "--counts", str(counts_path)])
        for name in ("m0.json", "m1.json", "log.json", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_eval_and_report(self, tmp_path, capsys):
        grid = {
            "d": [2], "e": [1], "p": [0.0], "seeds": [1],
            "threshold": {"mode": "fixed", "value": 2},
            "k": [1, 5],
            "initialCounts": {
                "Package": 5, "Component": 6, "SwImplementation": 3,
                "Port": 8, "Connector": 4, "Requirement": 5,
            },
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        out = tmp_path / "evalout"
        code = main(["eval", "--grid", str(grid_path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "MAP@1" in printed and "[compression]" in printed
        assert (out / "report.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["map"]["compression"]["MAP@1"] == 1.0

        code = main(["report", "--in", str(out)])
        assert code == 0
        assert "MAP@1" in capsys.readouterr().out



@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One small pass through every command that writes JSON."""
    work = tmp_path_factory.mktemp("written")
    counts = work / "counts.json"
    counts.write_text(json.dumps(SMALL_COUNTS), encoding="utf-8")
    bundle = work / "bundle"
    assert main(["simulate", "--d", "2", "--e", "2", "--p", "0.5", "--seed", "4",
                 "--counts", str(counts), "--out", str(bundle)]) == 0
    scgs = []
    for i in range(2):
        scgs.append(str(work / f"scg{i}.txt"))
        assert main(["diff", str(bundle / f"m{i}.json"), str(bundle / f"m{i + 1}.json"),
                     "--out", scgs[-1]]) == 0
    assert main(["mine", *scgs, "--threshold", "2", "--out", str(work / "ranked.json"),
                 "--patterns-out", str(work / "patterns.json")]) == 0
    assert main(["rules", "--in", str(work / "ranked.json"), "--out", str(work / "rules"),
                 "--dot"]) == 0
    grid_path = work / "grid.json"
    grid_path.write_text(json.dumps(grid()), encoding="utf-8")
    assert main(["eval", "--grid", str(grid_path), "--out", str(work / "eval")]) == 0
    return work


# (writer, the file it wrote under the ``written`` directory)
JSON_WRITERS = [
    ("model", "bundle/m1.json"),
    ("rule", "rules/rule_0001.json"),
    ("ranked list", "ranked.json"),
    ("pattern document", "patterns.json"),
    ("bundle log", "bundle/log.json"),
    ("bundle config", "bundle/config.json"),
    ("eval summary", "eval/summary.json"),
]


@pytest.mark.parametrize("name", [row[1] for row in JSON_WRITERS],
                         ids=[row[0] for row in JSON_WRITERS])
def test_json_files_are_stdlib_encoded(written, name):
    """Every JSON file is the stdlib's indent-2, sorted-key encoding of the
    document it holds, and a newline."""
    data = (written / name).read_bytes()
    doc = json.loads(data)
    assert doc
    assert data == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")

class TestStageHandoffMatchesRunGrid:
    def test_chained_stages_reproduce_grid_cell(self, tmp_path):
        from opminer.evalharness import GridSpec, ThresholdSpec, run_grid

        counts = {
            "Package": 5, "Component": 6, "SwImplementation": 3,
            "Port": 8, "Connector": 4, "Requirement": 5,
        }
        spec = GridSpec(
            d_values=(2,), e_values=(2,), p_values=(0.0,), seeds=(9,),
            threshold=ThresholdSpec("fixed", 2), ks=(1, 5),
            initial_counts=counts,
        )
        grid_rows = run_grid(spec).rows
        by_mode = {r["mode"]: r for r in grid_rows}

        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(counts), encoding="utf-8")
        bundle_dir = tmp_path / "bundle"
        assert main(["simulate", "--d", "2", "--e", "2", "--p", "0.0",
                     "--seed", "9", "--out", str(bundle_dir),
                     "--counts", str(counts_path)]) == 0
        scg_files = []
        for i in range(2):
            scg = tmp_path / f"scg_{i}.txt"
            assert main(["diff", str(bundle_dir / f"m{i}.json"),
                         str(bundle_dir / f"m{i+1}.json"), "--out", str(scg)]) == 0
            scg_files.append(str(scg))
        ranked_path = tmp_path / "ranked.json"
        assert main(["mine", *scg_files, "--out", str(ranked_path),
                     "--threshold", "2"]) == 0
        doc = json.loads(ranked_path.read_text())

        from opminer.graphcore import canonical_code, loads_transactions
        from opminer.simgen import load_bundle

        truth = load_bundle(bundle_dir).truth["add_component_interface"]
        truth_code = canonical_code(truth).text
        rank_of_truth = None
        for item in doc["items"]:
            (g,) = loads_transactions(item["graph"])
            if canonical_code(g).text == truth_code:
                rank_of_truth = item["rank"]
                break
        assert rank_of_truth == by_mode["compression"]["rank_truth_1"]
