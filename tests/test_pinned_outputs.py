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
PINNED = {
    ("parking", 7, 30, "both"): (
        "a0ec72b6d13eeab179da35bfc9e58a124ab0a8b04b2fa0b7b4967396399c6a11",
        "99eb6a41584eee8ede5ce586268f45db141af9361cdc26000b1955041204982a"),
    ("omni", 3, 100, "set"): (
        "9d25abacab4809be9f8f097bab6473967f2e5f5178a611e9b25ab6c6e543ee00",
        "b8027ba21a421d2fe59f32f55adbb2efa0ee79964d2150f385f75e29d99f1617"),
    ("parking", 11, 150, "fastslam"): (
        "ef6a95b1ec3e84ee4c233d7b04936a0d715bdfb6aabde3903589d9381a1a9603",
        "458d2bf57b26e83de2ac237ddc9779c1e9b125d0c0c72a00099e3c01e8e5ef23"),
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
        "a02e75919f1915bb9d2bad0cc535cb9463296faf5aa75edbadf4327c9e252f6c",
        "50e9b1c8381c2d67de026f8aa55ad4610c695d67e2c270e743a0dd617d2f99c1"),
    "segment-sectors": (
        (("eps_bearing_deg = 1.0", "eps_bearing_deg = 0.0"),
         ("sensor_theta_deg = 2.0", "sensor_theta_deg = 0.0")),
        "74b8712d00be9b97f85b3c70cdf04855d63b3066a4371ae7c4bff1e188b1a53e",
        "3badb3e4611ca143ccee7f90eb6e87703bef1a9a3009a49a197fbb68fd1f06c0"),
    # sensor sets of 25 m^2, where the position phase clips often (1,231 of
    # 5,711 clips by an unbuilt sum cut): the exact phases that the update's
    # inner-bound tests fall back to; taken before those tests existed
    "big-sensor-sets": (
        (("sensor_area = 0.01", "sensor_area = 25"),),
        "25909f685328780e846f0908ad10e3f38077a00f7ba67bda6c446d26a1d605ce",
        "32cd0dc7e713398541a8e6a39f7cc5d396f5597e073c0c9dbd00970b8d019e23"),
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
    "e0013633ba12ed961dd0655cddb06e7517b6aaa7ba2ab9a893f64aa587c7fcd5",
    "e4fff6ee9d0c04426bd36ed2bc9f82ea46a75eeb2634f15ee5e94d01e61ddf2d")


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
    "b54c26f1ffbf9d135b4931fd5a45fcbe884aff1e3a07bb41ae77c3f8c3e7c0cb",
    "af8aa675bd5aee9cb7957813ee87bd9767e2013ab944ad64620dba85b68662a9")


def test_many_particles_outputs_are_pinned():
    cfg = replace(scenario.load_builtin("parking"), seed=11,
                  estimators="fastslam", fastslam_particles=1000)
    rec = scenario.simulate_run(cfg, steps=40, record_geometry=True)
    metrics_digest, geometry_digest = MANY_PARTICLES
    assert sha256("\n".join(rec.geometry) + "\n") == geometry_digest, \
        "geometry.ndjson moved"
    assert sha256(rec.to_csv(include_timings=False)) == metrics_digest, \
        "metrics.csv moved"
