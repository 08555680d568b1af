"""setloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload parking-set --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: set-up time, step
throughput and latency, set tightness (m1, m2) and peak memory.  ``--trace 1``
runs the workload's first episode untraced and then traced, and reports the
per-layer metrics.  Both check the outputs, print a digest of them and a
human-readable report, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from BENCHMARK.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from checkout import BENCHMARK_JSON, ROOT
from setloc import geom2d, scenario
from workloads import WORKLOADS, Workload

SETUP_PROBES = 7
WARMUP_STEPS = 5
PROBE_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".perfbench_out"


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def setup_seconds(wl: Workload, seed: int) -> list[tuple[float, float]]:
    """Set-up time of the workload, once per fresh interpreter, each with
    the reference kernel's time measured right after it."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), wl.name, str(seed)],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        setup, kernel = done.stdout.split()[-2:]
        out.append((float(setup), float(kernel)))
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the pool workers
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def scaled_run(run, kernel_before: float):
    """Call ``run()`` and time the reference kernel after it.

    Returns the episode, the factor that scales its times to the reference
    machine speed (the reference kernel time over the mean of the kernel
    times around the episode), and the kernel time after it.
    """
    episode = run()
    after = workloads.kernel_seconds()
    return (episode, 2.0 * workloads.REFERENCE_KERNEL_S / (kernel_before + after),
            after)


def run_untraced(wl: Workload, seed: int, seconds: float):
    """Episodes until ``seconds`` have passed, and the fixed ones at least.

    Every time is scaled to the reference machine speed by the reference
    kernel measured around it: before and after each episode, and right
    after each set-up probe in the probe's own interpreter.
    """
    ref = workloads.REFERENCE_KERNEL_S
    setups = setup_seconds(wl, seed)
    jobs = workloads.sweep_jobs()
    episodes: list[workloads.Episode] = []
    scales: list[float] = []
    kernel = workloads.kernel_seconds()
    t_start = time.perf_counter()
    while True:
        cfg = workloads.episode_config(wl, seed, len(episodes))
        episode, scale, kernel = scaled_run(
            lambda: workloads.run_one(wl, cfg, jobs), kernel)
        episodes.append(episode)
        scales.append(scale)
        n = len(episodes)
        elapsed = time.perf_counter() - t_start
        # stop where the next episode would end more than half past the limit
        if n >= wl.fixed_episodes and elapsed + 0.5 * elapsed / n >= seconds:
            break
    fixed = episodes[:wl.fixed_episodes]
    if wl.is_sweep:
        fixed[0] = episodes[0] = workloads.audit_sweep(
            wl, workloads.episode_config(wl, seed, 0), fixed[0])

    m1 = [v for e in fixed for v in e.m1]
    m2 = [v for e in fixed for v in e.m2]
    metrics = {
        "setup_s": statistics.median(t * ref / k for t, k in setups),
        # medians over episodes, so one disturbed episode moves them little
        "steps_per_s": statistics.median(
            e.steps / (e.wall_s * s) for e, s in zip(episodes, scales)),
        "step_ms_p50": workloads.step_ms(wl, episodes, scales, 50),
        "step_ms_p90": workloads.step_ms(wl, episodes, scales, 90),
        "mean_m1": statistics.fmean(m1),
        "mean_m2": statistics.fmean(m2),
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled = [1.0] * len(episodes)
    report = [
        f"episodes {len(episodes)} (fixed {wl.fixed_episodes}), steps "
        f"{sum(e.steps for e in episodes)}, setloc wall "
        f"{sum(e.wall_s for e in episodes):.3f} s",
        f"time scale to reference speed: episodes {min(scales):.3f}.."
        f"{max(scales):.3f}, set-up probes "
        f"{min(ref / k for _, k in setups):.3f}..{max(ref / k for _, k in setups):.3f}",
        f"unscaled: setup_s {statistics.median(t for t, _ in setups):.6g}, "
        f"steps_per_s {statistics.median(e.steps / e.wall_s for e in episodes):.6g}, "
        f"step_ms_p50 {workloads.step_ms(wl, episodes, unscaled, 50):.6g}, "
        f"step_ms_p90 {workloads.step_ms(wl, episodes, unscaled, 90):.6g}",
        f"step latency samples {sum(len(e.step_ms) for e in episodes)}"
        + (" (one per sweep call: jobs x wall / steps)" if wl.is_sweep
           else f" (percentiles per episode, median of {len(episodes)})"),
        f"output digest (metrics.csv + geometry.ndjson of the fixed episodes) "
        f"{workloads.digest_of(*(e.digest for e in fixed))}",
    ]
    return episodes, metrics, report, []


def run_traced(wl: Workload, seed: int):
    """The first episode untraced, then traced; per-layer metrics."""
    jobs = workloads.sweep_jobs()
    cfg = workloads.episode_config(wl, seed, 0)
    # first calls pay for lazy imports and allocator growth; keep that out
    # of the untraced/traced comparison
    scenario.simulate_run(cfg, steps=WARMUP_STEPS)
    # walls compared below are scaled to the reference speed, so that a
    # change in other tenants' load between the runs cancels out
    kernel = workloads.kernel_seconds()
    parallel = None
    if wl.is_sweep:
        parallel, scale, kernel = scaled_run(
            lambda: workloads.run_one(wl, cfg, jobs), kernel)
        parallel_wall = parallel.wall_s * scale
    base, scale, kernel = scaled_run(lambda: workloads.run_one(wl, cfg), kernel)
    base_wall = base.wall_s * scale
    efficiency = base_wall / (jobs * parallel_wall) if parallel else 0.0
    tr = tracer.Tracer()

    def traced_episode():
        with tr:
            return workloads.run_one(wl, cfg)

    geom2d.reset_degenerate_intersection_count()
    traced, scale, kernel = scaled_run(traced_episode, kernel)
    degenerate = geom2d.degenerate_intersection_count()
    traced_wall = traced.wall_s * scale
    if wl.is_sweep:
        traced = workloads.audit_sweep(wl, cfg, traced)

    problems = []
    if not tracer.is_unpatched():
        problems.append("tracer left setloc patched")
    digests = {e.digest for e in (parallel, base, traced) if e is not None}
    if len(digests) != 1:
        problems.append("traced and untraced outputs differ")
    overhead = traced_wall / base_wall - 1.0
    metrics = tracer.layer_metrics(tr, degenerate, overhead, efficiency)
    spans_file = TRACE_DIR / f"{wl.name}-seed{seed}.spans.npz"
    tr.save(spans_file)

    episodes = [e for e in (parallel, base, traced) if e is not None]
    report = [
        f"traced episode: untraced {base.wall_s:.3f} s, traced "
        f"{traced.wall_s:.3f} s, {len(tr.spans())} spans -> "
        f"{spans_file.relative_to(ROOT)}",
        f"output digest {traced.digest} "
        f"({'equal' if len(digests) == 1 else 'DIFFERENT'} untraced)",
        "exact counts (compare between commits as they are):",
        *(f"  {k} {v!r}" for k, v in metrics.items() if not tracer.is_timing(k)),
        "timings:",
        *(f"  {k} {v:.6g}" for k, v in metrics.items() if tracer.is_timing(k)),
    ]
    return episodes, metrics, report, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        declared = declared_metrics("per_layer")
        episodes, metrics, report, problems = run_traced(wl, args.seed)
    else:
        declared = declared_metrics("end_to_end")
        episodes, metrics, report, problems = run_untraced(wl, args.seed,
                                                           args.seconds)
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} "
                         f"disagree with BENCHMARK.json")

    attempted = sum(e.steps for e in episodes)
    failed = sum(e.failed for e in episodes)
    resets = sum(e.resets for e in episodes)
    problems += [p for e in episodes for p in e.problems]
    for line in report:
        print(line)
    print(f"steps attempted {attempted}, failed {failed} (faults, fallbacks, "
          f"broken containment, faulted cells), fastslam resets {resets}; "
          f"failed_step_rate {(failed + resets) / max(attempted, 1):.6g}")
    print("checks: " + ("ok" if not problems else "; ".join(problems)))
    if not args.trace:
        for name, unit in declared.items():
            print(f"  {name:<12} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
