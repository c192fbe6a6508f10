"""Per-layer timing by wrapping the package's functions from outside.

Every module of the package that binds a traced function, by attribute
(``gf2.rank``) or by ``from .lc import lc_orbit``, gets the wrapper in place
of the original, so the wrapper sees each call whatever name the caller
looks it up under.  Class constructions are traced through ``__init__``.
Spans are kept on a stack: a function's self time is its span minus the
spans of the traced calls it made.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Traced names per module; a class name means its constructions.
TRACED = {
    "gf2": ["rank", "nullspace", "solve_affine", "in_row_span", "row_space_equal"],
    "lc": [
        "lc_equivalent",
        "lc_orbit",
        "find_local_representative",
        "certify_nonlocal",
        "_orbit_python",
        "_orbit_vector",
    ],
    "graphs": ["SimpleGraph", "phi", "enumerate_spanning_trees", "first_spanning_tree"],
    "pauli": ["span_equal", "conjugate_hadamard", "graph_stabilizer", "Tableau"],
    "surface": [
        "validate_embedding",
        "surface_stabilizer",
        "sector_tableau",
        "transform_to_graph_state",
        "adjacency_relation",
        "phi_graph",
        "load_setup",
    ],
    "polyforms": ["enumerate_polyforms", "polyform_embedding"],
    "reduction": [
        "reduction_chain",
        "verify_reduction_step",
        "exhaustive_certificate",
        "is_stricter",
    ],
    "cli": ["main"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
ENGINES = ("lc._orbit_python", "lc._orbit_vector")


class Tracer:
    """Calls, self time and inclusive time per traced function."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # time source for the spans
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.stack: list[list] = []
        self.tag = ""  # kind of the job being run, set by the caller
        self.engine_calls: dict[str, int] = {}
        self.orbit_members = 0
        self.free_dims: list[int] = []
        self.large_orbits: list[tuple[int, int, float]] = []  # whole classes above 11 vertices: (n, size, seconds)
        self._restore: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result, parent, seconds: float) -> None:
        if name in ENGINES:
            self.engine_calls[self.tag] = self.engine_calls.get(self.tag, 0) + 1
            self.orbit_members += result.size
            if result.n_vertices > 11 and result.complete:
                self.large_orbits.append((result.n_vertices, result.size, seconds))
        elif name == "gf2.nullspace" and parent is not None and parent[0] == "lc.lc_equivalent":
            self.free_dims.append(len(result))

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self.stack
        clock = self.clock
        observe = name in ENGINES or name == "gf2.nullspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[1]
                stats[2] += dt
                if parent is not None:
                    parent[1] += dt
            if observe:
                self._observe(name, result, parent, dt)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        modules = [m for key, m in sys.modules.items() if key == "toricgs" or key.startswith("toricgs.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"toricgs.{mod}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:  # gone from the package: reports 0 calls
                    continue
                name = f"{mod}.{fn}"
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._restore.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "engine_calls": dict(self.engine_calls),
            "orbit_members": self.orbit_members,
            "free_dims": list(self.free_dims),
            "large_orbits": list(self.large_orbits),
        }
