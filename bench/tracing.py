"""Span tracing of symidx's layers, installed from the benchmark only.

A ``Tracer`` replaces each traced function or method with a wrapper that
records one span per call: the layer name, start, end, the enclosing
span and whether the call returned.  Spans are held in flat arrays while
the run lasts and written out when it ends.  A layer's self time is the
length of its spans minus the part covered by their child spans.

Functions that other modules import by value (``index.rho``,
``hamdyn.cz_rs``, ``cli.find_periodic_orbit`` ...) are replaced in every
loaded ``symidx`` module that holds them, so a call is traced whichever
module looks it up.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer name -> (symidx module, attribute path); private helpers stand
# for the crossing scan, the Sp(2) extension, the midpoint step and
# first-return shooting, which have no public entry of their own
LAYERS = {
    "splin.at": ("splin", "SymplecticPath.at"),
    "splin.rho": ("splin", "rho"),
    "splin.symplecticity_residual": ("splin", "symplecticity_residual"),
    "splin.validate": ("splin", "SymplecticPath.validate"),
    "splin.product": ("splin", "SymplecticPath.product"),
    "splin.inverse": ("splin", "SymplecticPath.inverse"),
    "splin.conjugate_by": ("splin", "SymplecticPath.conjugate_by"),
    "splin.direct_sum": ("splin", "SymplecticPath.direct_sum"),
    "splin.concatenate": ("splin", "SymplecticPath.concatenate"),
    "splin.path_from_symmetric": ("splin", "path_from_symmetric"),
    "splin.family_at": ("splin", "SymmetricFamily.at"),
    "splin.slice_at": ("splin", "SymmetricFamily2.slice_at"),
    "index.cz_rs": ("index", "cz_rs"),
    "index.rs_index": ("index", "rs_index"),
    "index.maslov_loop": ("index", "maslov_loop"),
    "index.locate_crossings": ("index", "_locate_crossings"),
    "index.winding_interval": ("index", "winding_interval"),
    "index.cz_winding": ("index", "cz_winding"),
    "index.extension_path_sp2": ("index", "_extension_path_sp2"),
    "index.cz_degree_sp2": ("index", "cz_degree_sp2"),
    "index.truncated_loop_operator": ("index", "truncated_loop_operator"),
    "index.loop_operator_spectral_flow": ("index", "loop_operator_spectral_flow"),
    "index.spectral_flow_matrix": ("index", "spectral_flow_matrix"),
    "hamdyn.grad": ("hamdyn", "HamiltonianSystem.grad"),
    "hamdyn.hess": ("hamdyn", "HamiltonianSystem.hess"),
    "hamdyn.midpoint_step": ("hamdyn", "_midpoint_step"),
    "hamdyn.first_return": ("hamdyn", "_first_return"),
    "hamdyn.integrate": ("hamdyn", "integrate"),
    "hamdyn.find_periodic_orbit": ("hamdyn", "find_periodic_orbit"),
    "hamdyn.monodromy_and_cz": ("hamdyn", "monodromy_and_cz"),
    "axioms.random_admissible_path": ("axioms", "random_admissible_path"),
    "io.load_system": ("io", "load_system"),
    "cli.main": ("cli", "main"),
}

# metrics derived from several layers, with their units and directions
DERIVED = {
    "splin.at.calls_per_op": ("calls/op", "lower"),
    "hamdyn.grad.calls_per_op": ("calls/op", "lower"),
    "axioms.admissible_yield": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((layer + ".calls", "count", "lower"))
        specs.append((layer + ".self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return specs


class Tracer:
    """Wrappers plus the span store of one traced phase."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.returned = array("b")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---- installation ----

    def _wrap(self, layer_id: int, fn):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        returned, stack, clock = self.returned, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            returned.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                returned[sid] = 1
                return out
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "symidx" or name.startswith("symidx.")]
        for layer_id, (name, (mod_name, path)) in enumerate(LAYERS.items()):
            mod = sys.modules.get("symidx." + mod_name)
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name, None)
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.missing.append(name)
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer_id, original)
            if owner is not mod:
                self._replace(owner, attr, wrapper)
                continue
            # a module-level function: replace it wherever it was imported
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- results ----

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "returned": np.frombuffer(self.returned, dtype=np.int8).copy(),
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, ops: int, overhead_s: float) -> dict:
        """Per-layer calls and self times plus the derived ratios."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        nl = len(self.names)
        calls = np.bincount(a["layer"], minlength=nl)
        self_s = np.bincount(a["layer"], weights=self_time, minlength=nl)
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[i])
            out[name + ".self_s"] = float(self_s[i])
        ops = max(ops, 1)
        out["splin.at.calls_per_op"] = out["splin.at.calls"] / ops
        out["hamdyn.grad.calls_per_op"] = out["hamdyn.grad.calls"] / ops
        # paths returned per path_from_symmetric call made directly under
        # random_admissible_path; 0 when the workload draws no such path
        rap = self.names.index("axioms.random_admissible_path")
        pfs = self.names.index("splin.path_from_symmetric")
        child = (a["layer"] == pfs) & has_parent
        tries = int(np.sum(a["layer"][a["parent"][child]] == rap))
        paths = int(np.sum((a["layer"] == rap) & (a["returned"] == 1)))
        out["axioms.admissible_yield"] = paths / tries if tries else 0.0
        out["trace.overhead_s"] = float(overhead_s)
        return out
