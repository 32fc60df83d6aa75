"""Per-layer spans recorded from outside the library.

A :class:`Tracer` replaces each traced public function with a wrapper in
every ``mcsg`` module that binds it, so ``from .core import is_csg`` call
sites are traced as well as ``core.is_csg`` ones.  A wrapper adds the call's
duration to the function's total (``.s``), the duration minus the time spent
in wrapped callees to its self time (``.self_s``), and one to ``.calls``;
some functions also add a work count such as input points.  A target that
the library no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import sys
import types
import weakref
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("core", "load_instance"),
    ("core", "instance_to_json"),
    ("core", "is_csg"),
    ("core", "as_edges"),
    ("mst", "euclidean_mst"),
    ("mst", "forced_edges"),
    ("exact2", "solve_pair"),
    ("exact2", "project_pair"),
    ("approx3", "approx_a1"),
    ("approx3", "approx_a2"),
    ("approx3", "mst_completion"),
    ("collinear", "dp_solve"),
    ("collinear", "collinear_order"),
    ("oracle", "brute_force"),
    ("oracle", "candidate_edges"),
    ("gadgets", "build_gadget"),
    ("gadgets", "build_witness"),
    ("gadgets", "compute_w"),
    ("cli", "main"),
)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Work counts added per call: span name -> f(args, kwargs, result) -> {counter: n}.
COUNTERS = {
    "mst.euclidean_mst": lambda a, k, r: {"points": len(_first_arg(a, k))},
    "exact2.solve_pair": lambda a, k, r: {"purple": int(_first_arg(a, k).purple().size)},
    "oracle.candidate_edges": lambda a, k, r: {"edges": int(r[0].shape[0])},
}


class Tracer:
    """Span totals per traced function; records only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.totals: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def _record(self, name: str, fn, args, kwargs, counter):
        child_time = [0.0]
        self._stack.append(child_time)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            row = self.totals[name]
            row["s"] += dt
            row["self_s"] += dt - child_time[0]
            row["calls"] += 1
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                row[key] += value
        return result

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, counter)

        return wrapper

    def install(self, package: types.ModuleType) -> None:
        """Wrap every binding of every target in ``package`` and its modules."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        for mod_name, fn_name in TARGETS:
            module = sys.modules.get(prefix + mod_name)
            original = getattr(module, fn_name, None)
            name = f"{mod_name}.{fn_name}"
            if not callable(original):
                self.absent.append(name)
                continue
            # The CLI entry point is the root span of a CLI op, named after its layer.
            wrapper = self.wrap("cli" if name == "cli.main" else name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        self._install_materialize(sys.modules.get(prefix + "gadgets"))

    def _install_materialize(self, gadgets) -> None:
        """Time the first ``GadgetInstance.instance`` access per gadget, which
        materialises its point set, as ``gadgets.materialize``."""
        cls = getattr(gadgets, "GadgetInstance", None)
        prop = vars(cls).get("instance") if cls is not None else None
        if not isinstance(prop, property):
            self.absent.append("gadgets.materialize")
            return
        seen = weakref.WeakSet()
        fget = prop.fget

        def first_access(obj):
            if not self.enabled or obj in seen:
                return fget(obj)
            seen.add(obj)
            return self._record("gadgets.materialize", fget, (obj,), {}, None)

        setattr(cls, "instance", property(first_access, doc=prop.__doc__))

    def metrics(self) -> dict[str, float]:
        """Flat ``<span>.<field>`` totals."""
        return {f"{name}.{key}": value
                for name, row in self.totals.items() for key, value in row.items()}
