"""The one place that decides when numpy loads.

``np`` is numpy for the modules that need it (:mod:`toricgs.lc`,
:mod:`toricgs.pauli`, :mod:`toricgs.acceptance`).  If numpy is already
imported it is that module; otherwise it is a module object that runs
numpy's import on its first attribute access.  The geometric transform, the
pairwise LC test and polyform enumeration are pure integer bit arithmetic and
never touch it, so a process that runs only those never loads numpy.  The
first orbit, state vector or seeded generator loads it.
"""

from __future__ import annotations

import importlib.util
import sys


def _numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
