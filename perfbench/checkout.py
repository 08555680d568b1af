"""Locate the checkout the benchmark sits in and import setloc from its sources.

The benchmark measures the ``setloc`` under ``<checkout>/src``, never an
installed copy, so a checkout without sources fails instead of silently
measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def import_setloc():
    """Import setloc from ``<checkout>/src``; exit non-zero when it is absent."""
    package = SRC / "setloc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no setloc sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import setloc
    if Path(setloc.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: setloc was imported from "
                         f"{setloc.__file__}, not from {package}")
    return setloc
