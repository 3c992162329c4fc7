"""The claim rule of ``benchmarks/perf_pairs.py`` on synthetic numbers; perfbench is not run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "benchmarks" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

PARENT = [0.033, 0.032, 0.034, 0.033, 0.035, 0.032, 0.033, 0.034, 0.033, 0.032]


def test_nine_wins_and_a_gap_above_the_iqr_hold():
    change = [0.025] * 9 + [0.040]             # one loss
    r = perf_pairs.gain_rule(PARENT, change)
    assert (r["wins"], r["wins_needed"], r["holds"]) == (9, 9, True)
    assert r["gap"] == pytest.approx(0.008) and r["parent_iqr"] == pytest.approx(0.0015)


def test_eight_wins_fail():
    change = [0.025] * 8 + [0.040, 0.040]
    assert not perf_pairs.gain_rule(PARENT, change)["holds"]


def test_all_wins_within_the_iqr_fail():
    change = [p - 0.0001 for p in PARENT]      # wins every pair by less than the spread
    r = perf_pairs.gain_rule(PARENT, change)
    assert r["wins"] == 10 and r["gap"] < r["parent_iqr"] and not r["holds"]


def test_ties_are_not_wins_and_higher_is_better_where_declared():
    assert perf_pairs.gain_rule(PARENT, PARENT)["wins"] == 0
    parent, change = [1.0] * 10, [2.0] * 10
    assert perf_pairs.gain_rule(parent, change, "higher")["holds"]
    assert perf_pairs.gain_rule(parent, change, "lower")["wins"] == 0


def test_unequal_or_empty_samples_raise():
    with pytest.raises(ValueError):
        perf_pairs.gain_rule([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        perf_pairs.gain_rule([], [])
    with pytest.raises(ValueError):
        perf_pairs.gain_rule([1.0], [1.0], "faster")


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def fake_run(checkout, workload, seconds, seed):
        calls.append(checkout)
        return {"unit_s_p50": 1.0 if checkout == "P" else 0.5, "pass_frac": 1.0}

    samples = perf_pairs.run_pairs("P", "C", "w", 4, 1.0, 3, run=fake_run, log=lambda _: None)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert samples["unit_s_p50"] == [[1.0] * 4, [0.5] * 4]
    assert samples["pass_frac"] == [[1.0] * 4, [1.0] * 4]
