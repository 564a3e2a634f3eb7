"""The tier-bench guard rule (``benchmarks/_harness.py``), driven by a fake bench.

The fake bench's cases return fixed numbers, so each test states exactly what
the quick run measured against what the baseline recorded.  The baseline path
is the only thing substituted; no real bench runs here.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import _harness


class FakeBench:
    """A tier bench with one guarded and one recorded-only case."""

    FULL = {"big": {"n_rows": 100}}
    QUICK = {"small": {"n_rows": 10}}
    GUARDED = ("fast",)
    EXACT_FIELDS = ("rates",)

    def __init__(self) -> None:
        self.speedups = {"fast": 10.0, "loose": 4.0}
        self.diverged: set[str] = set()
        self.rates = [0.5, 0.75]
        self.error: Exception | None = None

    def cases(self, n_rows: int) -> dict:
        if self.error is not None:
            raise self.error
        return {
            name: _harness.case(1.0, speedup, name not in self.diverged, rates=list(self.rates))
            for name, speedup in self.speedups.items()
        }


@pytest.fixture
def bench():
    return FakeBench()


@pytest.fixture
def baseline(tmp_path, bench):
    path = tmp_path / "BENCH_perf_fake.json"
    _harness.record(bench, path)
    return path


def test_record_writes_what_the_guard_reads(bench, tmp_path):
    path = tmp_path / "BENCH_perf_fake.json"
    results = _harness.record(bench, path)
    assert json.loads(path.read_text()) == results
    assert set(results) == {"sizes", "quick"}
    assert results["quick"]["size"] == "small"
    assert results["sizes"]["big"]["fast"] == {
        "fast_s": 1.0, "ref_s": 10.0, "speedup": 10.0, "identical": True, "rates": [0.5, 0.75],
    }
    assert _harness.guard(bench, path) == 0


def test_passes_within_the_floor(bench, baseline):
    bench.speedups = {"fast": 5.0, "loose": 0.1}  # exactly half; the loose case is not guarded
    bench.rates = [0.5 + 1e-12, 0.75]
    assert _harness.guard(bench, baseline) == 0


@pytest.mark.parametrize("name", ["fast", "loose"])
def test_fails_on_a_diverged_case(bench, baseline, name, capsys):
    bench.diverged = {name}
    assert _harness.guard(bench, baseline) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_fails_below_half_the_recorded_speedup(bench, baseline, capsys):
    bench.speedups["fast"] = 4.99
    assert _harness.guard(bench, baseline) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_fails_on_a_missing_baseline(bench, tmp_path):
    assert _harness.guard(bench, tmp_path / "absent.json") == 1


def test_fails_on_a_baseline_from_another_quick_size(bench, baseline):
    recorded = json.loads(baseline.read_text())
    recorded["quick"]["size"] = "tiny"
    baseline.write_text(json.dumps(recorded))
    assert _harness.guard(bench, baseline) == 1


def test_fails_on_a_baseline_missing_a_guarded_case(bench, baseline):
    recorded = json.loads(baseline.read_text())
    del recorded["quick"]["fast"]
    baseline.write_text(json.dumps(recorded))
    assert _harness.guard(bench, baseline) == 1


def test_fails_when_the_quick_run_raises(bench, baseline, capsys):
    bench.error = RuntimeError("round trip broke")
    assert _harness.guard(bench, baseline) == 1
    assert "round trip broke" in capsys.readouterr().out


def test_fails_when_a_recorded_value_drifts(bench, baseline, capsys):
    bench.rates = [0.5 + 1e-6, 0.75]
    assert _harness.guard(bench, baseline) == 1
    assert "DRIFTED" in capsys.readouterr().out
