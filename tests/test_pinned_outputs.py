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
# sha256 of geometry.ndjson, both as `setloc run` writes them
PINNED = {
    ("parking", 7, 30, "both"): (
        "4ea7e5858170de59d53f4db42bcd22a502598db6bb14c6a559d22d45a5104868",
        "e93509346f23c2161b92925d78a14aa480d8eef1ba7167005da351445ebbc0c5"),
    ("omni", 3, 100, "set"): (
        "aa651410519a54a840cc62f8b76f84688433880265b8259d3cab79854969806f",
        "830efe5c018186ac94676fcb28a456273f27aa743c8408359629dbbc9a898644"),
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
    assert (sha256(metrics), sha256(geometry)) == PINNED[key]
