"""Locate the library source of the checkout this benchmark lives in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Put the checkout's src/ first on sys.path and import the library from
    it; exit with status 1 when the checkout holds no library source."""
    if not (SRC / "gauge_hamilton" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library source at {SRC / 'gauge_hamilton'}")
    sys.path.insert(0, str(SRC))
    import gauge_hamilton
    if Path(gauge_hamilton.__file__).resolve().parent != SRC / "gauge_hamilton":
        sys.exit(f"benchmark: imported gauge_hamilton from {gauge_hamilton.__file__}, "
                 f"not from {SRC}")
