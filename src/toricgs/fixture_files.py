"""Access to the JSON instance files bundled with the package."""

from __future__ import annotations

import os

_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(relative: str) -> str:
    """Absolute path of a bundled fixture file, e.g. ``"tetriamond.json"``."""
    path = os.path.join(_FIXTURE_DIR, relative)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled fixture {relative!r}")
    return path
