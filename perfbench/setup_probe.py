"""Time one set-up of a workload in a fresh interpreter; print it and the
reference kernel's time right after (s).

Set-up is everything before the first step: importing setloc, parsing and
validating the config, ``scenario.initial_sets``, ``estimator.make_state``
and, when the particle filter runs, ``fastslam.init_particles``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports setloc)
from setloc import estimator, fastslam, scenario  # noqa: E402


def set_up(wl: workloads.Workload, seed: int) -> None:
    cfg = workloads.episode_config(wl, seed, 0)
    problems = scenario.validate_config(cfg)
    if problems:
        raise SystemExit(f"invalid config: {problems}")
    markers, sensor_xy, sensor_theta = scenario.initial_sets(cfg)
    spec = None
    if cfg.mode == scenario.MODE_BICYCLE:
        spec = estimator.RigidBodySpec.from_offsets(cfg.offsets)
    estimator.make_state(markers, sensor_xy, sensor_theta, spec)
    if cfg.wants("fastslam"):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
        fastslam.init_particles(markers, sensor_xy, sensor_theta,
                                cfg.fastslam_particles, rng)


if __name__ == "__main__":
    set_up(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    elapsed = time.perf_counter() - t0
    print(repr(elapsed), repr(workloads.kernel_seconds()))
