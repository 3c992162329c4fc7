"""Span tracer that times rp2quant's layers from outside the package.

`Tracer.install()` wraps every public function of each layer module and the
constructor, operators, public methods and properties of each public
dataclass, then rebinds every module attribute of the package that *is* an
original (so `from .groups import spinor_map` in `checks` is traced too).
Registered check bodies are wrapped as `checks` spans.  No file of the
package changes; `uninstall()` restores every original object.

Spans live in flat in-memory arrays (unit, name, parent, start, end) and
are summarized, and optionally written out, when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Package module name -> layer name used in metric keys (metric names must
# start with a letter, so `_kernels` reports as `kernels`).
LAYERS = {
    "groups": "groups",
    "manifold": "manifold",
    "_kernels": "kernels",
    "harmonics": "harmonics",
    "bundles": "bundles",
    "representation": "representation",
    "classical": "classical",
    "heisenberg": "heisenberg",
    "berry_robbins": "berry_robbins",
    "checks": "checks",
}
OPERATORS = frozenset(
    {"__init__", "__call__", "__mul__", "__rmul__", "__neg__", "__add__",
     "__sub__", "__matmul__", "__eq__", "__hash__"}
)
GROUP_OBJECTS = ("SU2Element.__init__", "HElement.__init__", "RP2Point.__init__")
UNIT_SPAN = "unit"


def _points(xyz) -> int:
    shape = np.shape(xyz)
    return 1 if len(shape) == 1 else int(shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (layer, qualname) -> (counter key, amount of work in one call)
AMOUNTS = {
    ("kernels", "ylm_basis"): (
        "kernels.ylm_basis.entries",
        lambda a, k: _points(_arg(a, k, 0, "xyz")) * (_arg(a, k, 1, "lmax") + 1) ** 2,
    ),
    ("representation", "act_canonical"): (
        "representation.act_canonical.radial_tables",
        lambda a, k: _arg(a, k, 3, "fs").radial.n,
    ),
    ("heisenberg", "op_p"): (
        "heisenberg.fft_points", lambda a, k: _arg(a, k, 0, "psi").N,
    ),
    ("heisenberg", "weyl_U"): (
        "heisenberg.fft_points",
        lambda a, k: 0 if _arg(a, k, 0, "a") == 0.0 else _arg(a, k, 1, "psi").N,
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "layer.qualname" per name id
        self._ids: dict[str, int] = {}
        self.unit = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.amounts: dict[tuple[int, str], int] = {}
        self._stack = [-1]
        self._unit = -1
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, full: str) -> int:
        if full not in self._ids:
            self._ids[full] = len(self.names)
            self.names.append(full)
        return self._ids[full]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.unit.append(self._unit)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, full: str, amount=None):
        nid = self._name_id(full)
        open_, close = self._open, self._close
        if amount is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            key, count = amount
            amounts = self.amounts

            @functools.wraps(fn)
            def span(*args, **kwargs):
                slot = (self._unit, key)
                amounts[slot] = amounts.get(slot, 0) + count(args, kwargs)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return span

    @contextlib.contextmanager
    def unit_span(self, unit_id: int):
        """Root span of one unit; spans outside any unit are not summarized."""
        self._unit = unit_id
        idx = self._open(self._name_id(UNIT_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._unit = -1

    # ------------------------------------------------------------ install

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_member(self, member, full: str):
        if isinstance(member, property) and member.fget is not None:
            return property(self.wrap(member.fget, full), member.fset,
                            member.fdel, member.__doc__)
        if inspect.isfunction(member):
            return self.wrap(member, full)
        return None

    def install(self) -> None:
        package = [m for k, m in sys.modules.items()
                   if k == "rp2quant" or k.startswith("rp2quant.")]
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(f"rp2quant.{modname}")
            if mod not in package:
                package.append(mod)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self.wrap(obj, f"{layer}.{attr}", AMOUNTS.get((layer, attr)))
                    for other in package:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, alias, new)
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    for member_name, member in list(vars(obj).items()):
                        if member_name.startswith("_") and member_name not in OPERATORS:
                            continue
                        new = self._wrap_member(member, f"{layer}.{attr}.{member_name}")
                        if new is not None:
                            self._set(obj, member_name, new)
        checks = importlib.import_module("rp2quant.checks")
        registry = checks.REGISTRY
        self._undo.append((registry, None, list(registry)))
        registry[:] = [
            dataclasses.replace(c, fn=self.wrap(c.fn, f"checks.{c.name}"))
            for c in registry
        ]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ summary

    def write(self, path) -> None:
        """Every span as flat arrays, plus the name table, in one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def summarize(self, units: list[int]) -> dict:
        """Per-unit medians of per-layer and per-function figures."""
        unit = np.frombuffer(self.unit, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child

        n_names = len(self.names)
        pos = {u: i for i, u in enumerate(units)}
        row_of_unit = np.full(int(unit.max(initial=0)) + 2, -1)
        row_of_unit[list(pos)] = list(pos.values())
        rows = row_of_unit[unit]               # unit -1 reads the trailing -1
        keep = rows >= 0
        flat = rows[keep] * n_names + name[keep]
        size = len(units) * n_names
        calls = np.bincount(flat, minlength=size).reshape(len(units), n_names)
        self_s = np.bincount(flat, weights=self_ns[keep], minlength=size).reshape(
            len(units), n_names) / 1e9
        incl_s = np.bincount(flat, weights=dur[keep], minlength=size).reshape(
            len(units), n_names) / 1e9

        def col(full):
            return self._ids.get(full)

        def per_unit(table, full):
            i = col(full)
            return float(np.median(table[:, i])) if i is not None else 0.0

        def per_call(full, scale):
            i = col(full)
            if i is None or calls[:, i].sum() == 0:
                return 0.0
            return float(incl_s[:, i].sum() / calls[:, i].sum() * scale)

        out = {}
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        unit_total = self_s.sum(axis=1)
        for layer in LAYERS.values():
            mask = layer_of == layer
            layer_self = self_s[:, mask].sum(axis=1)
            out[f"{layer}.self_s"] = float(np.median(layer_self))
            out[f"{layer}.calls"] = float(np.median(calls[:, mask].sum(axis=1)))
            out[f"{layer}.share"] = float(np.median(layer_self / unit_total))
        out["unit.other_s"] = per_unit(self_s, UNIT_SPAN)

        out["groups.spinor_map.calls"] = per_unit(calls, "groups.spinor_map")
        out["groups.spinor_map.self_s"] = per_unit(self_s, "groups.spinor_map")
        out["groups.spinor_map.us_per_call"] = per_call("groups.spinor_map", 1e6)
        ids = [col(n) for n in (f"groups.{o}" for o in GROUP_OBJECTS)]
        ids = [i for i in ids if i is not None]
        out["groups.objects"] = float(np.median(calls[:, ids].sum(axis=1))) if ids else 0.0

        lookups = [col(f"manifold.QuadratureGrid.{m}") for m in ("basis", "antipodal_basis")]
        lookups = [i for i in lookups if i is not None]
        ylm = col("kernels.ylm_basis")
        is_lookup = np.isin(name, lookups) & keep
        misses = 0
        if ylm is not None:
            built = np.zeros(dur.size, dtype=bool)
            built[parent[(name == ylm) & nested]] = True
            misses = int(np.count_nonzero(is_lookup & built))
        n_lookups = int(np.count_nonzero(is_lookup))
        out["manifold.basis_cache.hit_ratio"] = (
            (n_lookups - misses) / n_lookups if n_lookups else 0.0
        )

        out["kernels.ylm_basis.calls"] = per_unit(calls, "kernels.ylm_basis")
        # ylm_basis only dispatches to a backend kernel of the same module, so
        # the span's whole duration is basis-build time.
        out["kernels.ylm_basis.self_s"] = per_unit(incl_s, "kernels.ylm_basis")
        amounts = {}
        for (u, key), value in self.amounts.items():
            if u in pos:
                amounts.setdefault(key, [0] * len(units))[pos[u]] += value

        def amount(key):
            return float(np.median(amounts[key])) if key in amounts else 0.0

        out["kernels.ylm_basis.entries"] = amount("kernels.ylm_basis.entries")
        out["kernels.ylm_basis.bytes"] = 16.0 * out["kernels.ylm_basis.entries"]

        out["harmonics.analyze.self_s"] = per_unit(self_s, "harmonics.analyze")
        out["harmonics.analyze.ms_per_call"] = per_call("harmonics.analyze", 1e3)
        out["harmonics.rotate_coeffs.calls"] = per_unit(calls, "harmonics.rotate_coeffs")
        out["harmonics.rotate_coeffs.self_s"] = per_unit(self_s, "harmonics.rotate_coeffs")
        out["harmonics.rotate_coeffs.ms_per_call"] = per_call("harmonics.rotate_coeffs", 1e3)
        out["harmonics.coeff_tables"] = per_unit(calls, "harmonics.HarmonicCoeffs.__init__")
        out["harmonics.wigner_d.self_s"] = per_unit(self_s, "harmonics.wigner_d")

        out["representation.act_canonical.calls"] = per_unit(calls, "representation.act_canonical")
        out["representation.act_canonical.self_s"] = per_unit(self_s, "representation.act_canonical")
        out["representation.act_canonical.ms_per_call"] = per_call(
            "representation.act_canonical", 1e3)
        out["representation.act_canonical.radial_tables"] = amount(
            "representation.act_canonical.radial_tables")
        out["representation.generator_J.self_s"] = per_unit(self_s, "representation.generator_J")

        out["heisenberg.fft_points"] = amount("heisenberg.fft_points")
        out["trace.units"] = float(len(units))
        return out
