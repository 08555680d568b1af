"""Acceptance suite: one test per release criterion, each printing a verdict.

The heavyweight fixtures (20 seeded parking runs, the two sensitivity sweeps)
are computed once per session and shared.
"""

import concurrent.futures
import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from setloc import geom2d, scenario
from setloc.correspondence import CandidateMatrix, enumerate_assignments
from setloc.geom2d import AngleInterval, ConvexPolygon, Interval
from setloc.kinematics import (Control, MarkerOffset, RobotModel,
                               displacement_bounds, marker_displacement)
from setloc.scenario import load_builtin, sensitivity_sweep, simulate_run
from test_scenario import pooled_stats, shrink_demo_config

N_RUNS = 20
SWEEP_STEPS = 30   # comparison window (straight leg plus the first corner)
                   # ending before the baseline's divergence dominates its
                   # own error measure


def report(criterion: str, ok: bool, detail: str) -> None:
    import conftest
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="session")
def parking_runs():
    cfg = load_builtin("parking")
    jobs = min(4, os.cpu_count() or 1)
    runs = {}
    walls = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for seed in range(N_RUNS):
            t0 = time.perf_counter()
            futures[pool.submit(simulate_run, replace(cfg, seed=seed))] = \
                (seed, t0)
        for fut in concurrent.futures.as_completed(futures):
            seed, t0 = futures[fut]
            runs[seed] = fut.result()
            walls[seed] = time.perf_counter() - t0
    # wall-clock sanity measured on one in-process run, unskewed by the pool
    t0 = time.perf_counter()
    rec = simulate_run(replace(cfg, seed=0, estimators="set"))
    single = time.perf_counter() - t0
    return runs, single


@pytest.fixture(scope="session")
def sweeps():
    cfg = load_builtin("parking")
    out = {}
    out["eps_wa"] = sensitivity_sweep(cfg, "eps_wa", [0.5, 1.0, 2.0, 4.0],
                                      n_seeds=5, steps=SWEEP_STEPS)
    out["eps_wr"] = sensitivity_sweep(cfg, "eps_wr", [0.05, 0.1, 0.2, 0.4],
                                      n_seeds=5, steps=SWEEP_STEPS)
    return out


# ---------------------------------------------------------------------------
# 1. guaranteed containment on the parking scenario
# ---------------------------------------------------------------------------

def test_c1_containment_and_runtime(parking_runs):
    runs, single_wall = parking_runs
    bad = []
    for seed, rec in runs.items():
        assert len(rec.rows) >= 150
        for r in rec.rows:
            m = r.set_metrics
            if not (m.contained_body and m.contained_heading
                    and r.set_contained_markers and r.set_contained_sensors):
                bad.append((seed, r.k))
    ok = not bad and single_wall < 60.0
    report("C1 containment",
           ok, f"{N_RUNS} runs x 150 steps, violations={len(bad)}, "
               f"single-run wall {single_wall:.1f}s (< 60s)")
    assert not bad, f"containment violated at (seed, step): {bad[:5]}"
    assert single_wall < 60.0


# ---------------------------------------------------------------------------
# 2. baseline contrast
# ---------------------------------------------------------------------------

def test_c2_baseline_contrast(parking_runs):
    runs, _ = parking_runs
    fs_violating_runs = 0
    fs_zero_runs = 0
    set_m1_all_positive = True
    for rec in runs.values():
        if any(not r.fs_metrics.contained_body for r in rec.rows):
            fs_violating_runs += 1
        if any(r.fs_metrics.m1 == 0.0 for r in rec.rows):
            fs_zero_runs += 1
        if any(r.set_metrics.m1 <= 0.0 for r in rec.rows):
            set_m1_all_positive = False
    ok = fs_violating_runs >= 1 and fs_zero_runs >= 1 and set_m1_all_positive
    report("C2 baseline contrast", ok,
           f"particle-filter body containment broken in "
           f"{fs_violating_runs}/{N_RUNS} runs, m1=0 reached in "
           f"{fs_zero_runs}/{N_RUNS} runs, guaranteed m1 always > 0: "
           f"{set_m1_all_positive}")
    assert fs_violating_runs >= 1
    assert fs_zero_runs >= 1
    assert set_m1_all_positive


# ---------------------------------------------------------------------------
# 3. sensitivity claims
# ---------------------------------------------------------------------------

def test_c3_sensitivity_claims(sweeps):
    failures = []
    for param, rows in sweeps.items():
        for value in sorted({r.value for r in rows}):
            _, set_std, set_m2 = pooled_stats(rows, value, "set")
            _, fs_std, fs_m2 = pooled_stats(rows, value, "fastslam")
            if not set_std <= fs_std:
                failures.append(f"{param}={value}: std {set_std:.4f} > {fs_std:.4f}")
            if not set_m2 >= fs_m2:
                failures.append(f"{param}={value}: m2 {set_m2:.4f} < {fs_m2:.4f}")
    report("C3 sensitivity", not failures,
           f"8 sweep values x 5 seeds: std(m1) never larger, mean(m2) never "
           f"smaller than the particle filter's" if not failures
           else "; ".join(failures))
    assert not failures, failures


# ---------------------------------------------------------------------------
# 4. geometry soundness fuzz
# ---------------------------------------------------------------------------

def test_c4_geometry_fuzz():
    rng = np.random.default_rng(20240404)
    violations = 0
    n = 10_000

    def rand_poly(k=7, scale=4.0):
        pts = scale * rng.random((int(rng.integers(3, k)), 2)) \
            + 8.0 * (rng.random(2) - 0.5)
        return ConvexPolygon.from_points(map(tuple, pts))

    # minkowski sum followed by the vertex-cap simplification
    a, b = rand_poly(9), rand_poly(9)
    out = geom2d.simplify_outer(geom2d.minkowski_sum(a, b), 8)
    for p, q in zip(geom2d.sample_uniform(a, rng, n),
                    geom2d.sample_uniform(b, rng, n)):
        if not geom2d.contains(out, (p[0] + q[0], p[1] + q[1])):
            violations += 1

    # norm-ball polygons
    ball2 = geom2d.ball_outer_polygon(1.7, 16)
    ballinf = geom2d.ConvexPolygon.box(-0.4, 0.4, -0.4, 0.4)
    ang = rng.random(n) * 2 * math.pi
    rad = 1.7 * np.sqrt(rng.random(n))
    for t, d in zip(ang, rad):
        if not geom2d.contains(ball2, (d * math.cos(t), d * math.sin(t))):
            violations += 1
    for x, y in 0.4 * (2 * rng.random((n, 2)) - 1):
        if not geom2d.contains(ballinf, (x, y)):
            violations += 1

    # annular sector polygon
    sec = geom2d.sector_outer_polygon(AngleInterval(0.7, 0.3),
                                      Interval(2.0, 6.0))
    th = rng.uniform(0.4, 1.0, n)
    rr = rng.uniform(2.0, 6.0, n)
    for t, d in zip(th, rr):
        if not geom2d.contains(sec, (d * math.cos(t), d * math.sin(t))):
            violations += 1

    # angular hull of a polygon away from the origin
    p = rand_poly(8)
    if not geom2d.contains(p, (0.0, 0.0)):
        hull = geom2d.angular_hull(p)
        for q in geom2d.sample_uniform(p, rng, n):
            if not hull.contains(math.atan2(q[1], q[0]), tol=1e-9):
                violations += 1

    # smallest enclosing arc of arc unions
    arcs = [AngleInterval(rng.uniform(-math.pi, math.pi), rng.uniform(0, 1.0))
            for _ in range(4)]
    cover = geom2d.enclose_angles(arcs)
    for _ in range(n):
        arc = arcs[int(rng.integers(0, len(arcs)))]
        sample = arc.center + rng.uniform(-1, 1) * arc.half_width
        if not cover.contains(sample, tol=1e-9):
            violations += 1

    report("C4 geometry fuzz", violations == 0,
           f"5 over-approximating operations x {n} samples, "
           f"violations={violations}")
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. kinematics oracle
# ---------------------------------------------------------------------------

def test_c5_kinematics_oracle():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(1000):
        model = RobotModel(wheelbase=rng.uniform(0.5, 4.0),
                           dt=rng.uniform(0.05, 1.0))
        u = Control(rng.uniform(-2.0, 3.0), rng.uniform(-1.3, 1.3))
        heading = rng.uniform(-math.pi, math.pi)
        off = MarkerOffset(rng.uniform(0.0, 5.0),
                           rng.uniform(-math.pi, math.pi))
        d, th = marker_displacement(u, heading, off, model)
        # rigid-body velocity composition, independent of the closed form
        wz = (u.v / model.wheelbase) * math.sin(u.delta)
        mx = off.delta_l * math.cos(heading + off.delta_theta)
        my = off.delta_l * math.sin(heading + off.delta_theta)
        vx = u.v * math.cos(u.delta) * math.cos(heading) - wz * my
        vy = u.v * math.cos(u.delta) * math.sin(heading) + wz * mx
        worst = max(worst,
                    abs(d * math.cos(th) - model.dt * vx),
                    abs(d * math.sin(th) - model.dt * vy))
    oracle_ok = worst <= 1e-9

    model = RobotModel(wheelbase=2.1, dt=0.5, eps_v=0.1,
                       eps_delta=math.radians(0.5))
    u = Control(1.0, 0.0)
    off = MarkerOffset(2.46, 0.43)
    heading = AngleInterval(0.0, math.radians(1.0))
    dx, dy = displacement_bounds(u, heading, off, model)
    n = 50
    vs = np.linspace(u.v - model.eps_v, u.v + model.eps_v, n)
    ds = np.linspace(-model.eps_delta, model.eps_delta, n)
    ths = np.linspace(heading.lo, heading.hi, n)
    v, dlt, th = np.meshgrid(vs, ds, ths, indexing="ij", sparse=True)
    g = ((off.delta_l * np.sin(dlt) / 2.1) ** 2 + np.cos(dlt) ** 2
         - (off.delta_l / 2.1) * math.sin(off.delta_theta) * np.sin(2 * dlt))
    dist = v * model.dt * np.sqrt(np.maximum(g, 0.0))
    ang = th + off.delta_theta + np.arctan2(
        off.delta_l * np.tan(dlt) - 2.1 * math.sin(off.delta_theta),
        2.1 * math.cos(off.delta_theta))
    gx = dist * np.cos(ang)
    gy = dist * np.sin(ang)
    contain_ok = (dx.lo <= gx.min() and dx.hi >= gx.max()
                  and dy.lo <= gy.min() and dy.hi >= gy.max())
    inflation_x = dx.width / (gx.max() - gx.min()) - 1.0
    inflation_y = dy.width / (gy.max() - gy.min()) - 1.0
    inflate_ok = inflation_x <= 0.20 and inflation_y <= 0.20
    report("C5 kinematics oracle", oracle_ok and contain_ok and inflate_ok,
           f"closed form vs rigid-velocity oracle worst error {worst:.2e} m "
           f"(<= 1e-9); 50^3 grid contained={contain_ok}, inflation "
           f"x {100 * inflation_x:.1f}% y {100 * inflation_y:.1f}% (<= 20%)")
    assert oracle_ok and contain_ok and inflate_ok


# ---------------------------------------------------------------------------
# 6. correspondence enumeration
# ---------------------------------------------------------------------------

def test_c6_correspondence_enumeration():
    from test_correspondence import boundaries_of, worked_example_setup
    from setloc.correspondence import (build_candidate_matrix,
                                       markers_with_certain_measurement)
    batch, markers, sxy, sth, model = worked_example_setup()
    cmat = build_candidate_matrix(boundaries_of(batch, model, sth, sxy),
                                  markers)
    example_ok = (cmat.rows == ((False, False, True, False),
                                (True, False, True, True))
                  and enumerate_assignments(cmat) == [(2, 0), (2, 3)]
                  and markers_with_certain_measurement(
                      enumerate_assignments(cmat), 4) == frozenset({2}))

    t0 = time.perf_counter()
    perms = list(itertools.permutations(range(4), 4))
    mismatch = 0
    for bits in range(1 << 16):
        rows = tuple(tuple(bool((bits >> (4 * q + j)) & 1) for j in range(4))
                     for q in range(4))
        expected = sorted(p for p in perms
                          if all(rows[q][p[q]] for q in range(4)))
        got = enumerate_assignments(CandidateMatrix(rows), cap=30)
        if got != expected:
            mismatch += 1
    elapsed = time.perf_counter() - t0
    ok = example_ok and mismatch == 0 and elapsed < 10.0
    report("C6 correspondence", ok,
           f"worked example reproduced={example_ok}; all 65536 4x4 matrices "
           f"match the exhaustive oracle (mismatches={mismatch}) in "
           f"{elapsed:.1f}s (< 10s)")
    assert ok


# ---------------------------------------------------------------------------
# 7. omnidirectional mode
# ---------------------------------------------------------------------------

def test_c7_omnidirectional():
    cfg = load_builtin("omni")
    assert len(cfg.trajectory) >= 500
    assert cfg.omni_v_max == pytest.approx(0.10)
    assert cfg.omni_radius == pytest.approx(0.12)
    assert cfg.sensors[0].model.eps_range == pytest.approx(0.073)
    assert cfg.sensors[0].model.eps_bearing == pytest.approx(math.radians(8.05))
    rec = simulate_run(cfg)
    bad = [r.k for r in rec.rows
           if not (r.set_metrics.contained_body and r.set_contained_markers)]
    report("C7 omnidirectional", not bad,
           f"{len(rec.rows)} steps, true disk inside the inflated center set "
           f"at every step (violations={len(bad)})")
    assert not bad


# ---------------------------------------------------------------------------
# 8. sensor-set shrinking
# ---------------------------------------------------------------------------

def test_c8_sensor_shrinking():
    cfg = shrink_demo_config(seed=0)
    # the run's sets at every step, replayed from its recorded measurements
    rec = simulate_run(cfg, record_measurements=True)
    states = scenario.replay_run(cfg, rec.measurements)
    batches = scenario.batches_from_lines(rec.measurements, len(cfg.trajectory),
                                          cfg.n_sensors, cfg.n_markers)
    n = cfg.n_sensors
    areas = [[geom2d.area(s.sensor_xy[i]) for s in states] for i in range(n)]
    widths = [[s.sensor_theta[i].width for s in states] for i in range(n)]
    batch_sizes = [[len(step[i]) for step in batches] for i in range(n)]
    area0 = cfg.initial_sensor_area
    width0 = cfg.initial_sensor_theta
    monotone = all(
        all(seq[k + 1] <= seq[k] + 1e-12 for k in range(len(seq) - 1))
        for series in (areas, widths) for seq in series)
    qualifying = [i for i in range(n) if min(batch_sizes[i]) >= 2]
    shrunk = [i for i in qualifying
              if areas[i][-1] <= 0.5 * area0 and widths[i][-1] <= 0.5 * width0]
    ok = monotone and qualifying and len(shrunk) == len(qualifying)
    worst_area = max(areas[i][-1] / area0 for i in qualifying) if qualifying else 1
    worst_width = max(widths[i][-1] / width0 for i in qualifying) if qualifying else 1
    report("C8 sensor shrinking", ok,
           f"{len(qualifying)} sensors saw >= 2 markers every step; all "
           f"non-increasing={monotone}; worst ratios after 15 steps: "
           f"area {worst_area:.3f}, width {worst_width:.3f} (<= 0.5)")
    assert ok


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_c9_determinism():
    cfg = replace(load_builtin("parking"), seed=7)
    a = simulate_run(cfg, steps=30, record_geometry=True)
    b = simulate_run(cfg, steps=30, record_geometry=True)
    csv_ok = a.to_csv().encode() == b.to_csv().encode()
    geo_ok = "\n".join(a.geometry) == "\n".join(b.geometry)
    report("C9 determinism", csv_ok and geo_ok,
           f"fixed seed reruns byte-identical: metrics={csv_ok}, "
           f"geometry dump={geo_ok}")
    assert csv_ok and geo_ok
