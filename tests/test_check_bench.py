"""Tests for ``benchmarks/check_bench.py``, the perf-trajectory gate.

A gate that can be switched off by a typo is no gate: an unknown
``kind`` in a committed sidecar, or a ``ratio`` without its ``ceiling``,
must fail loudly rather than be skipped (or crash with a KeyError).
"""

import glob
import json
import os

import pytest

from benchmarks import bench_e2_expression_eval as bench_e2
from benchmarks.check_bench import check, committed_names, main
from repro.core.compile import compile_expression

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(directory, name, measurements):
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"measurements": measurements}, handle)


def run_check(tmp_path, committed, fresh, **kwargs):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    write(base, "x", committed)
    write(new, "x", fresh)
    return check(str(base), str(new), ["x"], **kwargs)


def speedup(value, floor=None):
    entry = {"kind": "speedup", "value": value}
    if floor is not None:
        entry["floor"] = floor
    return entry


class TestSpeedup:
    def test_within_tolerance_passes(self, tmp_path):
        passed = run_check(tmp_path, {"s": speedup(5.0)}, {"s": speedup(4.1)})
        assert passed == []

    def test_regression_fails(self, tmp_path):
        failures = run_check(
            tmp_path, {"s": speedup(5.0)}, {"s": speedup(3.9)}
        )
        assert len(failures) == 1 and "regressed" in failures[0]

    def test_floor_fails(self, tmp_path):
        failures = run_check(
            tmp_path,
            {"s": speedup(5.0, floor=5.0)},
            {"s": speedup(4.9)},
        )
        assert any("floor" in f for f in failures)

    def test_missing_from_fresh_fails(self, tmp_path):
        failures = run_check(tmp_path, {"s": speedup(5.0)}, {})
        assert failures == ["x.s: measurement missing from fresh run"]


class TestRatio:
    def ratio(self, value, ceiling=1.0):
        return {"kind": "ratio", "value": value, "ceiling": ceiling}

    def test_under_ceiling_passes(self, tmp_path):
        assert run_check(
            tmp_path, {"r": self.ratio(1.0)}, {"r": self.ratio(1.0)}
        ) == []

    def test_over_ceiling_fails(self, tmp_path):
        failures = run_check(
            tmp_path, {"r": self.ratio(1.0)}, {"r": self.ratio(1.01)}
        )
        assert len(failures) == 1 and "ceiling" in failures[0]

    def test_ratio_without_ceiling_fails_loudly(self, tmp_path):
        committed = {"r": {"kind": "ratio", "value": 1.0}}
        failures = run_check(tmp_path, committed, committed)
        assert failures == ["x.r: committed ratio has no ceiling"]


class TestKinds:
    @pytest.mark.parametrize("kind", ["count", "latency_ms"])
    def test_recorded_kinds_are_not_compared(self, tmp_path, kind):
        committed = {"c": {"kind": kind, "value": 0}}
        assert run_check(tmp_path, committed, {}) == []

    @pytest.mark.parametrize("kind", ["speedpu", "Ratio", None])
    def test_unknown_kind_fails_loudly(self, tmp_path, kind):
        entry = {"value": 9.0}
        if kind is not None:
            entry["kind"] = kind
        failures = run_check(tmp_path, {"m": entry}, {"m": entry})
        assert len(failures) == 1
        assert f"unknown kind {kind!r}" in failures[0]


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir()
        new.mkdir()
        write(base, "x", {"s": speedup(2.0)})
        write(new, "x", {"s": speedup(2.0)})
        assert main([str(base), str(new), "x"]) == 0
        write(new, "x", {"s": speedup(1.0)})
        assert main([str(base), str(new), "x"]) == 1
        assert "BENCH REGRESSION" in capsys.readouterr().out
        assert main([str(base)]) == 2
        assert main([str(base), str(new), "--tolerance"]) == 2

    def test_no_names_checks_every_committed_sidecar(self, tmp_path, capsys):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir()
        new.mkdir()
        for name in ("a", "e12", "zz"):
            write(base, name, {"s": speedup(2.0)})
            write(new, name, {"s": speedup(2.0)})
        write(new, "stray", {"s": speedup(0.1)})  # not committed: ignored
        assert committed_names(str(base)) == ["a", "e12", "zz"]
        assert main([str(base), str(new)]) == 0
        assert "all 3 bench sidecars" in capsys.readouterr().out
        write(new, "zz", {"s": speedup(1.0)})
        assert main([str(base), str(new)]) == 1
        assert "zz.s" in capsys.readouterr().out


def test_every_committed_sidecar_is_checkable():
    """Each committed ``BENCH_*.json`` passes against itself: no unknown
    kind and no ratio without a ceiling has been committed."""
    names = committed_names(REPO)
    assert len(names) == len(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    assert "e12" in names
    assert check(REPO, REPO, names) == []


class TestE2StepCount:
    """e2's speedup is a clock and is bimodal on a noisy host; the step
    count beside it is not.  With subtree sharing off, the count fails
    the committed ceiling whatever the clock says."""

    class UnsharedPlan:
        """The mutation: a plan with one step per tree node, which is
        what ``compile_expression`` yields with subtree sharing off."""

        def __init__(self, expression):
            self.expression = expression
            self.node_count = compile_expression(expression).node_count
            self.step_count = self.node_count

        def __call__(self, database):
            return self.expression.evaluate(database)

    def failures(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir(exist_ok=True)
        with open(fresh / "BENCH_e2.json", "w", encoding="utf-8") as handle:
            json.dump(bench_e2.bench_payload(), handle)
        return check(REPO, str(fresh), ["e2"])

    def test_unshared_plan_is_caught(self, tmp_path, monkeypatch):
        # take the clock out: both sides time alike
        monkeypatch.setattr(bench_e2, "_timed", lambda fn, db, repeats: 1.0)
        row = "e2.compiled_steps_per_tree_node"
        assert not any(row in f for f in self.failures(tmp_path))
        monkeypatch.setattr(bench_e2, "compile_expression", self.UnsharedPlan)
        assert f"{row}: 1.00 is above the 0.02 ceiling" in (
            self.failures(tmp_path)
        )
