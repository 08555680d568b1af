"""Tests of the benchmark itself: seeds, exact counts, the tracer, and the
output contract.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import tracer
import workloads
from checkout import BENCHMARK_JSON, ROOT
from setloc import geom2d

SHORT_STEPS = 3
RUN_PY = ROOT / "perfbench" / "run.py"


def short(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], steps=SHORT_STEPS)


def run_once(wl: workloads.Workload, seed: int) -> workloads.Episode:
    return workloads.run_one(wl, workloads.episode_config(wl, seed, 0))


def traced_counts(wl: workloads.Workload, seed: int):
    geom2d.reset_degenerate_intersection_count()
    with tracer.Tracer() as tr:
        episode = run_once(wl, seed)
    metrics = tracer.layer_metrics(tr, geom2d.degenerate_intersection_count(),
                                   0.0, 0.0)
    return {k: v for k, v in metrics.items() if not tracer.is_timing(k)}, episode


def test_seed_changes_inputs():
    wl = short("parking-set")
    a, b, again = run_once(wl, 1), run_once(wl, 2), run_once(wl, 1)
    assert a.digest != b.digest
    assert a.digest == again.digest
    seeds = {workloads.episode_config(wl, s, i).seed
             for s in (1, 2) for i in range(3)}
    assert len(seeds) == 6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_tracing_keeps_outputs(name):
    wl = short(name)
    first, traced = traced_counts(wl, 4)
    second, _ = traced_counts(wl, 4)
    assert first == second
    assert traced.digest == run_once(wl, 4).digest
    assert not traced.problems
    calls = first["estimator.update.calls"]
    if wl.estimators == "fastslam":
        assert calls == 0 and first["fastslam.weight_update.calls"] == SHORT_STEPS
    else:
        assert calls == SHORT_STEPS * max(1, len(wl.sweep_values))


def test_tracer_restores_every_binding_even_on_error():
    before = [vars(owner)[attr] for owner, attr, _ in tracer.BINDINGS]
    p = geom2d.ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as tr:
            assert not tracer.is_unpatched()
            geom2d.minkowski_sum(p, p)
            1 / 0
    assert tracer.is_unpatched()
    assert all(vars(owner)[attr] is raw
               for (owner, attr, _), raw in zip(tracer.BINDINGS, before))
    names = [tracer.SPAN_NAMES[i] for i in tr.spans()[:, 2]]
    assert names == ["geom2d.ConvexPolygon.from_points", "geom2d.minkowski_sum"]
    stats = tr.summary()["geom2d.minkowski_sum"]
    assert stats.calls == 1 and 0.0 <= stats.self_s <= stats.total_s
    assert tr.counters.hull_points == 16


def test_benchmark_json_follows_the_contract():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def final_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "omni", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170, cwd=ROOT)
    out = final_json(done.stdout)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_setloc_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "omni", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
