"""Tests for the benchmark harness itself (not for the program it measures)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.stats import highest_supported_percentile, summarize
from perfbench.tracing import (Span, Tracer, covered_length, layer_summary,
                               resolve, self_times, write_chrome_trace)
from perfbench.workloads import WORKLOADS, Workload, WarmReplay1Q

ROOT = Path(__file__).resolve().parents[1]


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, None, 1, "steady")


# -- self-time arithmetic ----------------------------------------------------

def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12), (-3, -1)], 0, 10) == 0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(1, "parent", 0.0, 10.0),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "child", 2.0, 5.0, parent=1),   # overlaps span 2
        _span(4, "child", 8.0, 12.0, parent=1),  # outlives its parent
        _span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (4 + 2))
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    summary = layer_summary(spans)
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == pytest.approx(1 + 3 + 4)
    assert summary["child"]["incl_s"] == pytest.approx(2 + 3 + 4)
    assert summary["parent"]["self_s"] == pytest.approx(4.0)


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_summarize_reports_tail_only_when_supported():
    assert summarize(range(10))["tail"] is None
    row = summarize(range(100))
    assert row["n"] == 100 and row["tail_p"] == 90.0
    assert row["tail"] == pytest.approx(89.1)
    assert row["p50"] == pytest.approx(49.5)


# -- wrapping and restoring --------------------------------------------------

def test_close_restores_every_wrapped_attribute():
    targets = [t for t, _ in layers.SPANS] + [t for t, _ in layers.COUNTS] \
        + list(layers.SYNTHESIZE_TARGETS) \
        + ["repro.service.fleet.client:send_frame",
           "repro.service.scheduler:ExperimentService.submit"]

    def current(target):
        owner, attr = resolve(target)
        return (owner.__dict__.get(attr, "<inherited>")
                if isinstance(owner, type) else getattr(owner, attr))

    before = {target: current(target) for target in targets}
    with Tracer() as tracer:
        layers.install(tracer)
        assert all(current(t) is not before[t] for t in targets)
    assert all(current(t) is before[t] for t in targets)


def test_spans_nest_per_thread_and_export_as_chrome_trace(tmp_path):
    from repro.obs.export import validate_chrome_trace

    tracer = Tracer()
    tracer.phase = "steady"
    tracer.timed("outer", lambda: tracer.timed("inner", lambda: None),
                 job="7:job")
    tracer.phase = None
    tracer.timed("ignored", lambda: None)
    spans = tracer.recorded()
    assert [s.name for s in spans] == ["inner", "outer"]
    inner, outer = spans
    assert inner.parent == outer.sid and inner.job == outer.job == "7:job"
    path = tmp_path / "trace.json"
    assert write_chrome_trace(str(path), spans) == validate_chrome_trace(
        str(path))


# -- every wrapper fires where its layer does the work -----------------------

#: Spans and counters that must be non-zero in the steady phase of a
#: workload (the workload each layer dominates), and ones that must stay
#: zero there (the workload that bypasses the layer).  Simulator layers of
#: the multi-process workloads run in workers the client cannot see.
FIRES = {
    "fullsim_register": ["scheduler.submit", "cache.resolve",
                         "pool.acquire", "quma.run", "state.apply_kraus",
                         "state.apply_unitary", "state.project",
                         "readout.transmitted_trace",
                         "experiments.build_specs", "experiments.analyze",
                         "kernel.events"],
    "warm_replay_1q": ["replay", "readout.synthesize_batch",
                       "readout.adc_quantize", "readout.integrate_batch",
                       "readout.synthesize_batch.samples"],
    "seed_scan_process": ["mitigation.expand", "mitigation.confusion_matrix",
                          "mitigation.correct", "readout.calibrate"],
    "warm_fanout_fleet": ["fleet.send_frame", "fleet.recv_frame",
                          "fleet.recv_wait", "experiments.update",
                          "fleet.bytes_sent"],
}
SETUP_FIRES = {
    "warm_replay_1q": ["quma.build", "readout.calibrate",
                       "state.apply_superop"],
}
SILENT = {
    "fullsim_register": ["replay", "readout.synthesize_batch",
                         "fleet.send_frame", "mitigation.expand"],
    "warm_replay_1q": ["quma.run", "kernel.events", "state.apply_kraus",
                       "state.apply_unitary", "readout.transmitted_trace"],
    "seed_scan_process": ["quma.run", "replay", "fleet.send_frame"],
    "warm_fanout_fleet": ["quma.run", "replay", "mitigation.expand"],
}


class _SmallWarmReplay(WarmReplay1Q):
    n_rounds = 64


def _activity(tracer, phase):
    summary = layer_summary(tracer.recorded(phase))
    active = {name for name, row in summary.items() if row["calls"]}
    active |= {key.split(":", 1)[1] for key, value in tracer.counters.items()
               if key.startswith(f"{phase}:") and value}
    return active


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_on_the_workload_they_dominate(name):
    cls = _SmallWarmReplay if name == "warm_replay_1q" else WORKLOADS[name]
    with Tracer() as tracer:
        layers.install(tracer)
        result = harness.measure(cls, seed=5, seconds=0, setups=1,
                                 tracer=tracer)
    assert not result.errors and result.failed == 0
    steady, setup = _activity(tracer, "steady"), _activity(tracer, "setup")
    assert set(FIRES[name]) <= steady, set(FIRES[name]) - steady
    assert set(SETUP_FIRES.get(name, ())) <= setup
    assert not set(SILENT[name]) & steady
    values = layers.layer_metrics(tracer, result)
    assert set(values) == {metric for metric, _, _ in layers.PER_LAYER}


# -- the benchmark's contract ------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        cls.why for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(issubclass(cls, Workload) for cls in WORKLOADS.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fullsim_register",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
