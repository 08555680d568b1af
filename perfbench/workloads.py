"""The benchmark's workloads: configs built from a seed, timed episodes,
output checks and digests.

An *episode* is one call into setloc that produces a checkable output: one
``scenario.simulate_run`` for the single-run workloads, one
``scenario.sensitivity_sweep`` for the sweep.  Episode ``i`` of a run with
seed ``n`` uses world seed ``1000 * n + i``; the program receives nothing but
the config built from it.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from checkout import import_setloc

import_setloc()

from setloc import scenario  # noqa: E402
from setloc.scenario import ScenarioConfig, ScenarioFault  # noqa: E402

SWEEP_PARAMETER = "eps_wa"
TWO_PI = 2.0 * math.pi

# Least time of the reference kernel on the machine the first baseline was
# recorded on (2 vCPUs, Python 3.11); timings are reported at that speed.
REFERENCE_KERNEL_S = 0.010


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                # bundled setloc config
    estimators: str            # "set", "fastslam" or "both"
    record_geometry: bool      # build geometry.ndjson as `setloc run` does
    fixed_episodes: int        # always run; quality and digest come from these
    steps: int | None = None   # None: the config's whole trajectory
    sweep_values: tuple[float, ...] = ()   # eps_wa values (deg) of a sweep

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_values)


WORKLOADS = {w.name: w for w in (
    # the paper's main scenario, set estimator only, 150 steps; its episodes
    # are long (8-15 s), so four are run for a median over episodes
    Workload("parking-set", "parking", "set", record_geometry=True,
             fixed_episodes=4),
    # same world, particle filter only: bypasses polygon geometry and
    # correspondence.  Its quality varies widely from seed to seed (m1 and m2
    # spread by 40% over single episodes), so twelve episodes are pooled.
    Workload("parking-fastslam", "parking", "fastslam", record_geometry=False,
             fixed_episodes=12),
    # many cheap steps on small polygons, one marker, no refinement/heading
    Workload("omni", "omni", "set", record_geometry=True, fixed_episodes=1),
    # process pool, per-cell set-up, multi-hypothesis batches at wide eps_wa
    Workload("sweep-eps_wa", "parking", "both", record_geometry=False,
             fixed_episodes=1, steps=10,
             sweep_values=(0.5, 1.0, 2.0, 4.0, 8.0)),
)}


def sweep_jobs() -> int:
    """Pool size for the sweep: the usable cores, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def episode_config(wl: Workload, seed: int, i: int) -> ScenarioConfig:
    """Parse the bundled config and give it episode ``i``'s world seed."""
    cfg = scenario.load_builtin(wl.config)
    return replace(cfg, seed=1000 * seed + i, estimators=wl.estimators)


@dataclass
class Episode:
    wall_s: float              # the setloc call alone
    steps: int                 # estimator steps attempted
    failed: int                # faults, fallbacks, broken containment
    resets: int                # FastSLAM degenerate weight resets
    step_ms: list[float]       # latency samples
    m1: list[float]            # per-step (or per-cell) quality
    m2: list[float]
    digest: str                # sha256 of the episode's output files
    problems: list[str]        # failed checks, empty when correct


def digest_of(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
    return h.hexdigest()


def run_episode(wl: Workload, cfg: ScenarioConfig) -> Episode:
    """One ``simulate_run`` as ``setloc run`` makes it (a fault aborts it),
    timed, then checked and digested."""
    t0 = time.perf_counter()
    try:
        rec = scenario.simulate_run(cfg, steps=wl.steps,
                                    record_geometry=wl.record_geometry)
    except ScenarioFault as exc:
        wall = time.perf_counter() - t0
        return Episode(wall, exc.step, 1, 0, [], [], [], f"fault:{exc}",
                       [f"seed {cfg.seed}: {exc}"])
    wall = time.perf_counter() - t0

    want = len(cfg.trajectory) if wl.steps is None else wl.steps
    problems = []
    if len(rec.rows) != want:
        problems.append(f"seed {cfg.seed}: {len(rec.rows)} of {want} steps")
    failed = 0
    if cfg.wants("set"):
        rows = [r for r in rec.rows if r.set_metrics]
        broken = [r.k for r in rows if not (
            r.set_metrics.contained_body and r.set_metrics.contained_heading
            and r.set_contained_markers and r.set_contained_sensors)]
        if broken:
            problems.append(f"seed {cfg.seed}: containment broken at steps "
                            f"{broken[:5]}")
        failed = len(broken)
        step_ms = [r.set_wall_ms for r in rows]
        m1 = [r.set_metrics.m1 for r in rows]
        # compute_metrics scores a full-circle heading interval as 2*pi; the
        # omnidirectional run keeps no heading and writes 0, so score it alike
        m2 = [TWO_PI if r.set_heading_width >= TWO_PI else r.set_metrics.m2
              for r in rows]
    else:
        rows = [r for r in rec.rows if r.fs_metrics]
        step_ms = [r.fs_wall_ms for r in rows]
        m1 = [r.fs_metrics.m1 for r in rows]
        m2 = [r.fs_metrics.m2 for r in rows]
    if not all(math.isfinite(v) for v in m1 + m2):
        problems.append(f"seed {cfg.seed}: non-finite m1/m2")
    geometry = "\n".join(rec.geometry) + "\n" if rec.geometry else ""
    digest = digest_of(rec.to_csv(include_timings=False), geometry)
    return Episode(wall, len(rec.rows), failed, rec.fs_degenerate_resets,
                   step_ms, m1, m2, digest, problems)


def run_sweep(wl: Workload, cfg: ScenarioConfig, jobs: int) -> Episode:
    """One ``sensitivity_sweep`` over the workload's eps_wa values.

    Cells are not observable one by one from outside the pool, so the
    latency sample is the sweep's wall time per step per worker.
    """
    t0 = time.perf_counter()
    rows = scenario.sensitivity_sweep(cfg, SWEEP_PARAMETER, wl.sweep_values,
                                      1, steps=wl.steps, jobs=jobs)
    wall = time.perf_counter() - t0

    cells = len(wl.sweep_values)
    steps = cells * wl.steps
    problems = []
    faulted = {(r.value, r.seed) for r in rows if r.faulted}
    if faulted:
        problems.append(f"seed {cfg.seed}: faulted cells {sorted(faulted)}")
    if len(rows) != 2 * cells:
        problems.append(f"seed {cfg.seed}: {len(rows)} sweep rows, "
                        f"expected {2 * cells}")
    # equal-length cells, so the mean of cell means is the per-step mean
    set_rows = [r for r in rows if r.estimator == "set" and not r.faulted]
    return Episode(wall, steps, len(faulted) * wl.steps, 0,
                   [1e3 * jobs * wall / steps],
                   [r.mean_m1 for r in set_rows], [r.mean_m2 for r in set_rows],
                   digest_of(scenario.sweep_to_csv(rows)), problems)


def audit_sweep(wl: Workload, cfg: ScenarioConfig, swept: Episode) -> Episode:
    """Re-run a sweep's cells one by one to check what the pool hides.

    ``sensitivity_sweep`` keeps predicted sets on a fault and returns only
    per-cell means; this checks containment at every step, counts fallbacks,
    and requires each cell's mean m1 to equal the sweep's row exactly.
    """
    failed = 0
    problems = []
    for value, swept_m1 in zip(wl.sweep_values, swept.m1):
        cell = replace(scenario.apply_parameter(cfg, SWEEP_PARAMETER, value),
                       estimators="set")
        rec = scenario.simulate_run(cell, steps=wl.steps,
                                    fallback_predict=True)
        broken = sum(1 for r in rec.rows if not (
            r.set_metrics.contained_body and r.set_metrics.contained_heading
            and r.set_contained_markers and r.set_contained_sensors))
        failed += broken + rec.set_fallbacks
        if broken or rec.set_fallbacks:
            problems.append(f"eps_wa {value}: {broken} steps uncontained, "
                            f"{rec.set_fallbacks} fallbacks")
        if float(np.mean(rec.set_m1())) != swept_m1:
            problems.append(f"eps_wa {value}: sweep mean_m1 {swept_m1!r} "
                            f"differs from a single run's")
    return replace(swept, failed=swept.failed + failed,
                   problems=swept.problems + problems)


def run_one(wl: Workload, cfg: ScenarioConfig, jobs: int = 1) -> Episode:
    """One episode of the workload; a sweep runs its pool with ``jobs``."""
    if wl.is_sweep:
        return run_sweep(wl, cfg, jobs)
    return run_episode(wl, cfg)


def step_ms(wl: Workload, episodes: list[Episode], scales: list[float],
            q: float) -> float:
    """Step latency percentile ``q`` (ms) of a run, each episode's samples
    multiplied by its time scale.

    Taken within each episode (150 or 540 steps leave at least 15 samples
    beyond p90), then the median over episodes.  A sweep yields one sample
    per call, so there the percentile is taken over the calls.
    """
    if wl.is_sweep:
        return float(np.percentile(
            [ms * s for e, s in zip(episodes, scales) for ms in e.step_ms], q))
    per_episode = [np.percentile(e.step_ms, q) * s
                   for e, s in zip(episodes, scales) if e.step_ms]
    if not per_episode:
        raise SystemExit("perfbench: no episode completed a step")
    return float(np.median(per_episode))


def _kernel() -> float:
    pts = [((i * 7919) % 1000 / 1000.0, (i * 104729) % 1000 / 1000.0)
           for i in range(2000)]
    acc = 0.0
    for _ in range(6):
        hull: list[tuple[float, float]] = []
        for p in sorted(pts):
            while len(hull) >= 2 and (
                    (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                    - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])) <= 0.0:
                hull.pop()
            hull.append(p)
        acc += sum(math.hypot(x, y) for x, y in hull)
        pts = [(y, x) for x, y in pts]
    return acc


def kernel_seconds() -> float:
    """Least wall time of three runs of a fixed reference kernel.

    The kernel is pure Python shaped like setloc's hot path (tuples of
    floats, sorting, cross products, ``math.hypot``) but shares no code with
    setloc, so no change to setloc moves it.  On a shared host every process
    slows down together when other tenants load it, for seconds to minutes
    at a time; the kernel measures that slowdown in the same run.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
