import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

TEN = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # IQR 0.45

# (case, parent runs, change runs, better, bound, verdict); change[i] and
# parent[i] ran as one pair
VERDICTS = [
    ("equal runs", TEN, TEN, "lower", 0.25, "within bound"),
    ("every pair won by more than the IQR", TEN, [v - 1 for v in TEN], "lower", 0.25, "gain"),
    ("higher is better", TEN, [v + 1 for v in TEN], "higher", 0.25, "gain"),
    ("lower is better, change higher", TEN, [v + 1 for v in TEN], "lower", 0.25, "within bound"),
    ("9 of 10 pairs won", TEN, [v - 1 for v in TEN[:9]] + [TEN[9] + 1], "lower", 0.25, "gain"),
    ("8 of 10 pairs won", TEN, [v - 1 for v in TEN[:8]] + [v + 1 for v in TEN[8:]],
     "lower", 0.25, "within bound"),
    ("9 of 10 pairs won, one tie", TEN, [v - 1 for v in TEN[:9]] + TEN[9:], "lower", 0.25, "gain"),
    ("8 of 10 pairs won, two ties", TEN, [v - 1 for v in TEN[:8]] + TEN[8:], "lower", 0.25,
     "within bound"),
    ("every pair won, median moved less than the IQR", TEN, [v - 0.1 for v in TEN],
     "lower", 0.25, "within bound"),
    ("median worse by more than the bound", TEN, [v * 1.3 for v in TEN], "lower", 0.25, "worse"),
    ("median worse by less than the bound", TEN, [v * 1.2 for v in TEN], "lower", 0.25,
     "within bound"),
    ("higher is better, median lower by more than the bound", TEN, [v * 0.7 for v in TEN],
     "higher", 0.25, "worse"),
    ("parent IQR wider than the bound", [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0],
     [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0], "lower", 0.25, "unresolved"),
    ("parent IQR wider than the bound, every change run better",
     [2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0], [1.9] * 10, "lower", 0.25,
     "within bound"),
    ("zero parent median, change worse", [0.0] * 10, [0.1] * 10, "lower", 0.25, "worse"),
]


@pytest.mark.parametrize(
    "parent, change, better, bound, expected", [row[1:] for row in VERDICTS],
    ids=[row[0] for row in VERDICTS],
)
def test_verdict(parent, change, better, bound, expected):
    assert bench_pairs.verdict(parent, change, better, bound) == expected
