"""Fixed-seed outputs pinned across commits.

The reproducibility criterion only compares reruns of the same code; these
digests were recorded before the geometry kernel and the measurement update
stopped rebuilding polygons, so a change that moves any written number
fails here.  A change that means to move outputs updates the digests and
says why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from setloc import scenario

# (config, seed, steps, estimators): sha256 of metrics.csv without timings,
# sha256 of geometry.ndjson, both as `setloc run` writes them.  The metrics
# digests were taken again when the scorer began to clip the true body by
# the estimate instead of the estimate by the true body: the overlap is the
# same set, and m1 moved only in its last digits (at most 1.1e-14).  The
# full-length particle-filter run pins the baseline's hull of the particles
# and its heading enclosure over every step.
#
# The two runs with the set estimator were pinned again when
# ball_outer_polygon began to mirror its vertices from one octant, with a
# circumradius 4 ulps longer (the rigid-body disks, and omni's body disk
# and true body, moved by rounding).  Against the digests before: parking-7
# vertices moved at most 7.7e-14 m, m1 4.7e-15 and m2 1.1e-15, its particle
# filter columns not at all; omni-3 vertices at most 4.4e-16 m and m1
# 9.9e-15.  No vertex count and no containment changed.
#
# The omni-3 metrics digest was taken again when omni rows began to be
# scored by compute_metrics, as the bicycle's are: the omni estimator keeps
# a full-circle heading, which scores m2 = 2*pi, where the old omni branch
# wrote 0.0.  Only set_m2 moved; geometry.ndjson and every other column
# are unchanged.
#
# Every digest in this file was taken again when arcs began to be stored by
# their ends and to round outward: the orientation and heading intervals,
# the measurement cones and so the sectors, and the particle filter's
# heading cover moved by rounding.  Against the digests before, over all
# eight runs: vertices moved at most 3.8e-12 m (big-sensor-sets; 1.1e-12 m
# in parking-7), a step's m1 at most 1.6e-14 and its m2 at most 1.9e-14
# (segment-sectors), each run's mean m1 and m2 at most 1.3e-14, and the
# particle filter's m2 at most 8.9e-16 with its m1 unchanged.  No vertex
# count and no containment changed.
PINNED = {
    ("parking", 7, 30, "both"): (
        "d38f845c8083a1afe6423d677accba6dd94081c89260af664701575fbb0d614e",
        "3919d198189e73107cc6cb517bf33976414334c53102b0d29af263a24b6b1b6c"),
    ("omni", 3, 100, "set"): (
        "797f1f7c0920f59c6f035ca314c5d61e20d5bbcb94c622b2470c710281f73808",
        "ba3b74aa2d1935de432435e4aabcd4a7d3890e47f519ca51a515f8054ef0ef76"),
    ("parking", 11, 150, "fastslam"): (
        "265a76063a498e16e606d55265f52fc26a9ad4dbe701933f2882c38cf6687659",
        "c5da236943eb9da8a5ca76f23d977b68b2c6c3cd1cc5a5f3be1a2231f2a9194c"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: f"{k[0]}-{k[1]}")
def test_fixed_seed_outputs_are_pinned(key):
    name, seed, steps, estimators = key
    cfg = replace(scenario.load_builtin(name), seed=seed,
                  estimators=estimators)
    rec = scenario.simulate_run(cfg, steps=steps, record_geometry=True)
    metrics = rec.to_csv(include_timings=False)
    geometry = "\n".join(rec.geometry) + "\n"
    metrics_digest, geometry_digest = PINNED[key]
    assert sha256(geometry) == geometry_digest, "geometry.ndjson moved"
    assert sha256(metrics) == metrics_digest, "metrics.csv moved"


# parking variants whose sectors the bundled configs never build, 20 steps
# of the set estimator at seed 7, pinned with the digests above: with an
# angle-only sensor every sector has its apex at the sensor, and with no
# bearing noise and an exact orientation every sector is a segment.  The
# digests were taken before sectors and hulls stopped going through the
# general hull, except segment-sectors': it was pinned again when every set
# got an area, and each such sector became the box about its segment (the
# sums and clips by a segment, and their hulls, moved with it).  All three
# were pinned again with the mirrored ball polygon (see PINNED): vertices
# moved at most 7.1e-14 m (angle-only), 8.9e-15 m (segment-sectors) and
# 2.9e-12 m (big-sensor-sets, two marker sets at step 13), and m1 at most
# 1.9e-15, 4.2e-15 and 1.1e-15; no vertex count changed.
VARIANTS = {
    "angle-only": (
        (("kind = angle_range", "kind = angle_only"),),
        "1f2cd0704ecba25a0a533b8eb38e93aa9d1c963ef9828c81ebc8e3c03dce0995",
        "c0d371eedab5e6ec47b17fcff04d6b81ce9cea8fdede6df1a728e802c038834f"),
    "segment-sectors": (
        (("eps_bearing_deg = 1.0", "eps_bearing_deg = 0.0"),
         ("sensor_theta_deg = 2.0", "sensor_theta_deg = 0.0")),
        "1b80aa7177cece771cbdd245cf4aed7cd3fc47bcfde1d16d0c49de00f0dfde19",
        "9c0d3033c95a0abbc157d61960f4575c7cebd3b8b8d3736532def9697d3c587b"),
    # sensor sets of 25 m^2, where the position phase clips often (1,231 of
    # 5,711 clips by an unbuilt sum cut): the exact phases that the update's
    # inner-bound tests fall back to; taken before those tests existed
    "big-sensor-sets": (
        (("sensor_area = 0.01", "sensor_area = 25"),),
        "756d02594611f5a7c6bb42de3e2908d93e21aa9a4e6c0d21b0a8d9ab1045da07",
        "34fec233986d62eae4dc88db3f8a8ba962e5e1d63490519092f69f8df00dd809"),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_parking_variant_outputs_are_pinned(name):
    edits, metrics_digest, geometry_digest = VARIANTS[name]
    text = scenario.builtin_config_text("parking")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = replace(scenario.parse_config(text), seed=7, estimators="set")
    rec = scenario.simulate_run(cfg, steps=20, record_geometry=True)
    assert sha256("\n".join(rec.geometry) + "\n") == geometry_digest, \
        "geometry.ndjson moved"
    assert sha256(rec.to_csv(include_timings=False)) == metrics_digest, \
        "metrics.csv moved"


# parking with 8 degrees of bearing noise (the sweep's widest eps_wa), 20
# steps of the set estimator at seed 7: batches with several correspondence
# hypotheses, whose markers are clipped by the hull of their slots' sectors.
# Taken before the marker phase stopped clipping after each sensor, and
# again with the mirrored ball polygon (see PINNED): vertices moved at most
# 1.4e-13 m and m1 at most 3.9e-15, no vertex count changed.
WIDE_BEARING = (
    "cfbb3863e0504bafb4a22238cb52d20a71e31113b8317e142208b277b1cd038f",
    "c622b448d2dc9010dbc44c8f9f87af9f956340b1cd34c68bb3f9841f4daa86d7")


def test_wide_bearing_outputs_are_pinned():
    cfg = replace(scenario.apply_parameter(scenario.load_builtin("parking"),
                                           "eps_wa", 8.0),
                  seed=7, estimators="set")
    rec = scenario.simulate_run(cfg, steps=20, record_geometry=True)
    metrics_digest, geometry_digest = WIDE_BEARING
    assert sha256("\n".join(rec.geometry) + "\n") == geometry_digest, \
        "geometry.ndjson moved"
    assert sha256(rec.to_csv(include_timings=False)) == metrics_digest, \
        "metrics.csv moved"


# the particle filter alone with 1,000 particles, 40 steps at seed 11: the
# size where the heading cover and the hull of the particles' marker points
# weigh most in a step.  Taken before the cover stopped scanning every start
# and the hull stopped going through from_points.
MANY_PARTICLES = (
    "14dc6ee6ccf9bce94c9e923a4b2eebff701907979149ca3d485e4c8eb6e9c251",
    "8bdca8f33396e8f84f7cd5788007f83389c97460103cc28336c61963dc438a58")


def test_many_particles_outputs_are_pinned():
    cfg = replace(scenario.load_builtin("parking"), seed=11,
                  estimators="fastslam", fastslam_particles=1000)
    rec = scenario.simulate_run(cfg, steps=40, record_geometry=True)
    metrics_digest, geometry_digest = MANY_PARTICLES
    assert sha256("\n".join(rec.geometry) + "\n") == geometry_digest, \
        "geometry.ndjson moved"
    assert sha256(rec.to_csv(include_timings=False)) == metrics_digest, \
        "metrics.csv moved"
