"""Command-line entry point: run, sweep, validate, dump-defaults."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimator, scenario
from .scenario import ConfigError, ScenarioFault

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAULT = 2

log = logging.getLogger("setloc")


def _setup_logging() -> None:
    # a handler of its own on the current stderr, so that repeated in-process
    # calls neither duplicate output nor depend on the root logger's set-up
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.propagate = False
    # a level name maps to its number; anything else, such as another
    # attribute of logging, maps to a string and gives WARNING
    level = logging.getLevelName(os.environ.get("SETLOC_LOG", "WARNING").upper())
    log.setLevel(level if isinstance(level, int) else logging.WARNING)


def _load(args) -> scenario.ScenarioConfig:
    cfg = scenario.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "estimator", None):
        cfg = replace(cfg, estimators=args.estimator)
    return cfg


def _check(cfg: scenario.ScenarioConfig, where: str = "") -> bool:
    """Whether cfg is valid, after printing every problem validate_config
    finds.  A valid config is checked for sensors whose measurements update
    will skip, with one warning per sensor.  where prefixes every line."""
    problems = scenario.validate_config(cfg)
    for p in problems:
        print(f"config error: {where}{p}", file=sys.stderr)
    if problems:
        return False
    _, _, sensor_theta = scenario.initial_sets(cfg)
    for i, (site, theta) in enumerate(zip(cfg.sensors, sensor_theta)):
        if estimator.bearing_cone_too_wide(site.model, theta):
            log.warning("%s[sensor.%d]: eps_bearing plus half the initial "
                        "orientation interval reaches 90 degrees; every "
                        "measurement of this sensor will be skipped",
                        where, i + 1)
    return True


def _cmd_run(args) -> int:
    cfg = _load(args)
    if not _check(cfg):
        return EXIT_CONFIG
    try:
        rec = scenario.simulate_run(cfg, steps=args.steps,
                                    fallback_predict=args.fallback_predict,
                                    record_geometry=True)
    except ScenarioFault as exc:
        print(f"estimation fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(rec.to_csv(include_timings=args.timings),
                                     encoding="utf-8")
    (out / "geometry.ndjson").write_text("\n".join(rec.geometry) + "\n",
                                         encoding="utf-8")
    m1 = rec.set_m1() or rec.fs_m1()
    rate = rec.containment_rate()
    mean_m1 = float(np.mean(m1)) if m1 else float("nan")
    rate_txt = f"{100.0 * rate:.1f}%" if rate == rate else "n/a"
    print(f"steps={len(rec.rows)} mean_m1={mean_m1:.4f} "
          f"containment_rate={rate_txt} fallbacks={rec.set_fallbacks}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        print(f"config error: bad sweep values {args.values!r}", file=sys.stderr)
        return EXIT_CONFIG
    # the sweep runs only the swept configs, so each is checked on its own
    checked = [_check(scenario.apply_parameter(cfg, args.parameter, v),
                      f"{args.parameter} = {v:g}: ") for v in values]
    if not all(checked):
        return EXIT_CONFIG
    rows = scenario.sensitivity_sweep(cfg, args.parameter, values, args.seeds,
                                      steps=args.steps, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(scenario.sweep_to_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args)
    if not _check(cfg):
        return EXIT_CONFIG
    print(f"ok: {cfg.mode} scenario, {cfg.n_sensors} sensors, "
          f"{cfg.n_markers} markers, {len(cfg.trajectory)} steps")
    return EXIT_OK


def _cmd_dump_defaults(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("parking", "omni"):
        path = out / f"{name}.cfg"
        path.write_text(scenario.builtin_config_text(name), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setloc",
                                 description="guaranteed set-membership "
                                             "localization runner")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--estimator", choices=["set", "fastslam", "both"])
    run.add_argument("--fallback-predict", action="store_true",
                     help="keep the predicted sets instead of aborting on an "
                          "estimator fault (either motion model)")
    run.add_argument("--timings", action="store_true",
                     help="write measured wall times into metrics.csv "
                          "(breaks byte-for-byte reproducibility)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--parameter", required=True,
                       choices=list(scenario.SWEEP_PARAMETERS))
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sweep.add_argument("--seeds", type=int, default=5)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--estimator", choices=["set", "fastslam", "both"])
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)

    dump = sub.add_parser("dump-defaults",
                          help="write the bundled scenario configs")
    dump.add_argument("--out", required=True)
    dump.set_defaults(func=_cmd_dump_defaults)
    return ap


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
