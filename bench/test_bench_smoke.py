"""The benchmark's own tests: smoke mode end to end, the missing-package exit,
spans, and the calibrated step."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from calib import PERIOD_S, Calibrator
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SEED = 5


def test_smoke_runs_every_workload_and_reports_declared_metrics(tmp_path):
    # a traced run also runs the untraced pass, so one run covers both forms
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0", "--trace", "1",
         "--seed", str(SEED), "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in spec["workloads"]:
        record = json.loads(
            (tmp_path / f"smoke-{workload['name']}-seed{SEED}-trace1.json").read_text()
        )
        result = record["result"]
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
        assert set(record["end_to_end"]) == set(end_to_end)
        assert all(v > 0 for v in record["end_to_end"].values())
        assert record["stamp"]["seed"] == SEED
        spans = record["passes"][0]["traced"]["spans"]
        assert spans and len({sp["trace_id"] for sp in spans}) == 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    tr = Tracer("t")
    with tr.span("solve", "cli") as outer:
        with tr.span("value_iterate", "solver") as inner:
            pass
    self_s = tr.self_times()
    assert inner.parent == outer.span_id
    assert abs(self_s["cli"] - (outer.duration - inner.duration)) < 1e-12
    assert self_s["solver"] == inner.duration


def test_calibrated_step_samples_during_the_body_and_restores_the_alarm():
    cal = Calibrator()
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with cal.step() as step:
        end = time.perf_counter() + 2.5 * PERIOD_S
        while time.perf_counter() < end:
            pass
    outside = time.perf_counter() - t0
    # one sample before, two during, one after; those during are not timed
    assert len(step.slowdowns) >= 4 and all(f > 0 for f in step.slowdowns)
    assert 0 < step.seconds < 2.5 * PERIOD_S < outside
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
