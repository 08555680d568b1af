"""Containment at tol 0 when the truth starts on the edge of its sets.

The guarantee covers any truth inside the initial sets and any noise
inside its bounds.  Here the truth sits on a corner of each initial marker
and sensor box and on one end of each initial sensor arc, with seeded
coins choosing which; each set keeps its configured size.  The parking
world runs 40 steps, with noise drawn uniformly and with every process and
measurement draw on the end of its bound, on the side the uniform draw fell.
After every step each set is checked to hold the truth with no tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from setloc import estimator as est
from setloc import geom2d, scenario
from setloc.geom2d import ConvexPolygon
from setloc.kinematics import place_marker

SEEDS = (0, 1, 2)
STEPS = 40
KINDS = ("markers", "heading", "sensor positions", "sensor arcs")


class OnBounds:
    """A generator whose uniform draws are moved to the end of their bound
    on the side each draw fell; its other draws are the generator's own."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def uniform(self, lo, hi):
        x = self.rng.uniform(lo, hi)
        out = np.where(x >= 0.5 * (np.asarray(lo) + np.asarray(hi)), hi, lo)
        return float(out) if out.ndim == 0 else out

    def permutation(self, n):
        return self.rng.permutation(n)


def corner_box(xy: tuple[float, float], area: float, coin: random.Random
               ) -> ConvexPolygon:
    """A square of the given area with xy on the corner the coins pick."""
    side = math.sqrt(area)
    (x0, x1), (y0, y1) = (
        (v, v + side) if coin.random() < 0.5 else (v - side, v) for v in xy)
    return ConvexPolygon.box(x0, x1, y0, y1)


def end_arc(theta: float, width: float, coin: random.Random):
    """An arc of the given width with theta on the end the coin picks."""
    if coin.random() < 0.5:
        return geom2d._arc(theta, theta + width)
    return geom2d._arc(theta - width, theta)


def edge_start(cfg: scenario.ScenarioConfig) -> est.EstimatorState:
    coin = random.Random(cfg.seed)
    markers = [corner_box(place_marker(cfg.start, off),
                          cfg.initial_marker_area, coin) for off in cfg.offsets]
    sensor_xy = [corner_box(s.pose.xy, cfg.initial_sensor_area, coin)
                 for s in cfg.sensors]
    sensor_theta = [end_arc(s.pose.theta, cfg.initial_sensor_theta, coin)
                    for s in cfg.sensors]
    return est.make_state(markers, sensor_xy, sensor_theta,
                          est.RigidBodySpec.from_offsets(cfg.offsets))


def misses(state: est.EstimatorState, cfg: scenario.ScenarioConfig,
           truth: scenario.Truth | None) -> dict[str, bool]:
    """Per kind of set, whether one of them misses the truth at tol 0; the
    heading only once a step has been made (truth given)."""
    return {
        "markers": any(not geom2d.contains(p, t, tol=0.0) for p, t in zip(
            state.markers, truth.markers if truth else
            [place_marker(cfg.start, off) for off in cfg.offsets])),
        "heading": truth is not None
        and not state.heading.contains(truth.heading, tol=0.0),
        "sensor positions": any(
            not geom2d.contains(p, s.pose.xy, tol=0.0)
            for p, s in zip(state.sensor_xy, cfg.sensors)),
        "sensor arcs": any(not a.contains(s.pose.theta, tol=0.0)
                           for a, s in zip(state.sensor_theta, cfg.sensors)),
    }


def missed_steps(seed: int, on_bounds: bool) -> dict[str, int]:
    """How many of the steps leave some set of each kind without the
    truth, from an edge start in the parking world of the given seed."""
    cfg = replace(scenario.load_builtin("parking"), seed=seed,
                  estimators="set")
    models, _, trajectory = scenario._start_tracker(cfg, STEPS)
    state = edge_start(cfg)
    assert not any(misses(state, cfg, None).values())
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(cfg.seed).spawn(4)]
    if on_bounds:
        rngs = [OnBounds(r) for r in rngs]
    rng_proc, rng_meas, rng_shuf, _ = rngs
    bounds = scenario._noise_bounds(cfg.sensors, cfg.n_markers)
    count = dict.fromkeys(KINDS, 0)
    for _, u, truth in scenario._bicycle_world(cfg, trajectory, rng_proc):
        batches = scenario._measurement_batches(
            truth.markers, cfg.sensors, bounds, rng_meas, rng_shuf)
        state = est.step(state, u, batches, models)
        for kind, missed in misses(state, cfg, truth).items():
            count[kind] += missed
    return count


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_starts_hold_the_truth_at_tol_0(seed):
    assert missed_steps(seed, on_bounds=False) == dict.fromkeys(KINDS, 0)


@pytest.fixture(scope="module")
def bound_noise_misses():
    return {seed: missed_steps(seed, on_bounds=True) for seed in SEEDS}


def test_edge_starts_on_bound_noise_keep_the_sensors(bound_noise_misses):
    for seed, count in bound_noise_misses.items():
        assert count["sensor positions"] == count["sensor arcs"] == 0, seed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="polygon operations round to nearest and _prune "
                          "moves inward; ROADMAP item 11 mends them")
def test_edge_starts_on_bound_noise_keep_the_markers_and_heading(
        bound_noise_misses):
    for seed, count in bound_noise_misses.items():
        assert count["markers"] == count["heading"] == 0, seed
