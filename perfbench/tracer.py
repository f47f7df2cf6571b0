"""Spans around the package's public functions, taken from outside.

`Tracer.install()` replaces each binding listed in `BINDINGS` with a
wrapper under the name its caller looks up, for example
`vdwsurf.evaluator.g_h` or `numpy.linalg.lstsq` as the oracle calls it.
Each call records a span: name, start, end, parent span, request id, a
small tag (the geometry of a G_H call, the suite of a validate call)
and the exception that ended it, if any. Spans stay in flat arrays in
memory; `save()` writes them out and `layer_metrics()` reduces them.
`restore()` puts every original binding back.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

from workloads import GEOMETRIES

SUITES = ("bc", "symmetry", "limits", "threeway")

_CLOSED = ("u_plane", "u_grounded_sphere", "u_isolated_sphere", "u_bosshat",
           "u_bosshat_corrected", "u_bosshat_expansion3", "u_sphere_expansion3")

# Bindings wrapped, by the module whose code calls them. A function is
# wrapped only where its callers look it up, so no call is counted twice.
BINDINGS = {
    "vdwsurf.cli": ("main", "energy_numeric", "extrapolated_energy", "run_suite",
                    "run_all") + tuple(n for n in _CLOSED if n != "u_bosshat"),
    "vdwsurf.validate": ("energy_numeric", "extrapolated_energy", "g_h", "bc_residual",
                         "build_green") + _CLOSED[:5],
    "vdwsurf.evaluator": ("g_h", "build_green"),
    "vdwsurf.oracle": ("g_h", "build_green"),
    "vdwsurf.images": ("g_h",),   # called by bc_residual
    "numpy.linalg": ("lstsq",),   # looked up as np.linalg.lstsq by the oracle
}

_LAYER = {"main": "cli", "energy_numeric": "evaluator", "extrapolated_energy": "oracle",
          "run_suite": "validate", "run_all": "validate", "g_h": "g_h",
          "build_green": "build_green", "bc_residual": "bc_residual", "lstsq": "lstsq"}
_LAYER.update((name, "closed") for name in _CLOSED)


def _geometry_tag(args, kwargs) -> int:
    green = args[0] if args else kwargs["green"]
    return GEOMETRIES.index(green.geometry.kind.value)


def _suite_tag(args, kwargs) -> int:
    name = args[0] if args else kwargs["name"]
    return SUITES.index(name) if name in SUITES else -1


_TAGS = {"g_h": _geometry_tag, "run_suite": _suite_tag}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []        # span names
        self.errors: list[str] = []       # exception class names
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.error = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @staticmethod
    def _intern(table: list[str], text: str) -> int:
        if text not in table:
            table.append(text)
        return table.index(text)

    def _wrap(self, owner, attr: str, span_name: str, tag_of) -> None:
        original = getattr(owner, attr)
        name_id = self._intern(self.names, span_name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.tag.append(tag_of(args, kwargs) if tag_of else -1)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.error.append(-1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                self.error[index] = self._intern(self.errors, type(exc).__name__)
                raise
            finally:
                self.end[index] = clock()
                stack.pop()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for module_name, attrs in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._wrap(module, attr, f"{module_name}.{attr}", _TAGS.get(attr))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "error": np.frombuffer(self.error, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), errors=np.array(self.errors),
                            **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times, keyed by metric name."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        children_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - children_s
        span_layer = np.array([_LAYER[s.rsplit(".", 1)[1]] for s in self.names] or [""])
        layer = span_layer[a["name"]] if n else np.array([], dtype=span_layer.dtype)
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], "")
        error_name = np.array(self.errors + [""])[a["error"]]

        def count(mask) -> int:
            return int(np.count_nonzero(mask))

        def total(values, mask) -> float:
            return float(values[mask].sum())

        def per_call_us(mask) -> float:
            calls = count(mask)
            return float(dur[mask].sum()) / calls * 1e6 if calls else 0.0

        def per_energy(child: str, route: str) -> float:
            calls = count(layer == route)
            return count((layer == child) & (parent_layer == route)) / calls if calls else 0.0

        g_h = layer == "g_h"
        m = {
            "images.g_h_calls": count(g_h),
            "images.g_h_s": total(dur, g_h),
            "images.build_green_calls": count(layer == "build_green"),
            "images.bc_residual_calls": count(layer == "bc_residual"),
            "images.bc_residual_s": total(dur, layer == "bc_residual"),
        }
        for i, geometry in enumerate(GEOMETRIES):
            m[f"images.g_h_us_per_call.{geometry}"] = per_call_us(g_h & (a["tag"] == i))
        for route in ("evaluator", "oracle", "closed"):
            mask = layer == route
            m[f"{route}.calls"] = count(mask)
            m[f"{route}.us_per_call"] = per_call_us(mask)
            m[f"{route}.self_s"] = total(self_s, mask)
        for route in ("evaluator", "oracle"):
            m[f"{route}.g_h_per_energy"] = per_energy("g_h", route)
        lstsq = (layer == "lstsq") & (parent_layer == "oracle")
        m["oracle.lstsq_per_energy"] = per_energy("lstsq", "oracle")
        m["oracle.lstsq_s"] = total(dur, lstsq)
        m["oracle.extrapolation_failures"] = count(
            (layer == "oracle") & (error_name == "ExtrapolationError"))
        main = layer == "cli"
        m["cli.main_s"] = total(dur, main)
        m["cli.self_s"] = total(self_s, main)
        for i, suite in enumerate(SUITES):
            m[f"validate.{suite}_s"] = total(dur, (layer == "validate") & (a["tag"] == i))
        return m
