"""Tests of the benchmark itself: its traced run measures the program's own
code path, its two runners agree, and every output check rejects a doctored
result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import checks
from opminer import evalharness, miner
from tracing import Tracer

SMALL = bench.Workload("small", "experiment2", d=3, e=10, p=0.2, datasets=1, via_cli=False)
SEED = 3


def _in_process(tracer: Tracer) -> bench.InProcess:
    runner = bench.InProcess(SMALL, SEED)
    runner.setup(tracer)
    runner.run(0, tracer)
    return runner


@pytest.fixture(scope="module")
def outcome() -> checks.Outcome:
    capture = Tracer(timed=False, keep=bench.InProcess.KEEP)
    result = _in_process(capture).outcome(0, capture)
    checks.check_outcome(result, SMALL.k)
    return result


def test_traced_run_returns_the_rows_of_evaluate_dataset(outcome):
    tracer = Tracer(timed=True, keep=frozenset({"evalharness.evaluate_dataset"}))
    _in_process(tracer)
    (rows,) = tracer.take("evalharness.evaluate_dataset")
    for row in rows:
        untraced = outcome.rows[row["mode"]]
        assert {k: v for k, v in row.items() if k != "mining_ms"} == {
            k: v for k, v in untraced.items() if k != "mining_ms"
        }
    names = {s.name for s in tracer.spans}
    assert set(bench.EVALHARNESS_SPANS.values()) | set(bench.DB_SPANS.values()) <= names
    # every stage span sits inside the dataset's two root spans
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["simgen.simulate", "evalharness.evaluate_dataset"]
    assert sum(tracer.self_times()) == pytest.approx(sum(s.end - s.start for s in roots))
    # the wrappers are gone again
    assert evalharness.mine is miner.mine
    assert isinstance(vars(miner.TransactionDB)["of"], classmethod)


def test_cli_and_in_process_give_the_same_ranking(outcome, tmp_path):
    w = dataclasses.replace(SMALL, via_cli=True)
    runner = bench.ThroughCli(w, SEED, tmp_path / "work")
    capture = Tracer(timed=False)
    runner.setup(capture)
    runner.run(0, capture)
    via_cli = runner.outcome(0, capture)
    checks.check_outcome(via_cli, w.k)
    assert via_cli.threshold == outcome.threshold
    assert [i.code for i in via_cli.rankings["compression"]] == [
        i.code for i in outcome.rankings["compression"]
    ]
    assert [p.expected for p in via_cli.pairs] == [p.expected for p in outcome.pairs]


def _doctor_support(o: checks.Outcome) -> None:
    first = o.rankings["frequency"][0]
    o.rankings["frequency"][0] = dataclasses.replace(first, support=first.support + 1)


def _swap_ranks(o: checks.Outcome) -> None:
    items = o.rankings["compression"]
    a, b = items[0], items[1]
    items[0], items[1] = dataclasses.replace(b, rank=1), dataclasses.replace(a, rank=2)


def _drop_created_node(o: checks.Outcome) -> None:
    for pair in o.pairs:
        for t, (nodes, edges) in enumerate(pair.transactions):
            for nid, label in nodes:
                if label.startswith("create_"):
                    pair.transactions[t] = (
                        tuple(n for n in nodes if n[0] != nid),
                        tuple(e for e in edges if nid not in e[:2]),
                    )
                    return


def _wrong_ap(o: checks.Outcome) -> None:
    row = o.rows["compression"]
    row[f"ap@{SMALL.k}"] += 0.25


def _keep_dominated_subpattern(o: checks.Outcome) -> None:
    top = o.rankings["compression"][0]
    nodes, edges = top.graph
    dropped = edges[-1]
    keep = {n for e in edges[:-1] for n in e[:2]}
    sub = (tuple(n for n in nodes if n[0] in keep), edges[:-1])
    o.rankings["compression"].append(dataclasses.replace(top, rank=len(o.rankings["compression"]) + 1,
                                                         graph=sub, code=f"{top.code}-{dropped}"))


@pytest.mark.parametrize(
    "doctor, check",
    [
        (_doctor_support, checks.check_supports),
        (_swap_ranks, checks.check_order),
        (_drop_created_node, checks.check_pairs),
        (_wrong_ap, checks.check_truths),
        (_keep_dominated_subpattern, checks.check_closed),
    ],
)
def test_each_check_rejects_a_doctored_result(outcome, doctor, check):
    doctored = _copy(outcome)
    doctor(doctored)
    hosts = [checks.Host(t) for p in doctored.pairs for t in p.transactions]
    args = {
        checks.check_supports: (doctored, hosts),
        checks.check_truths: (doctored, SMALL.k),
    }.get(check, (doctored,))
    with pytest.raises(checks.CheckError):
        check(*args)


def test_rule_check_rejects_a_missing_rule_file(outcome, tmp_path):
    w = dataclasses.replace(SMALL, via_cli=True)
    runner = bench.ThroughCli(w, SEED, tmp_path / "work")
    capture = Tracer(timed=False)
    runner.setup(capture)
    runner.run(0, capture)
    via_cli = runner.outcome(0, capture)
    checks.check_rules(via_cli)
    (via_cli.rule_dir / "rule_0001.json").unlink()
    with pytest.raises(checks.CheckError):
        checks.check_rules(via_cli)


def _copy(o: checks.Outcome) -> checks.Outcome:
    return dataclasses.replace(
        o,
        pairs=[checks.Pair(dict(p.expected), list(p.transactions)) for p in o.pairs],
        rankings={m: list(items) for m, items in o.rankings.items()},
        rows={m: dict(r) for m, r in o.rows.items()},
    )


def test_run_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "exp1-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
