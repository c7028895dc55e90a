"""Locate the program's source in the checkout the benchmark runs from.

The benchmark measures the ``repro`` package under ``src/`` of the
checkout that holds this directory, never an installed copy.  Without
that source tree it refuses to run.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["ROOT", "use_checkout_source"]

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit with code
    2 (printing nothing on stdout) when the checkout has no program."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {source / 'repro'}; run "
            f"from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(source))
