"""Outside-in tracer: wraps public functions of tclab modules with spans.

Nothing under ``src/`` is edited.  Each target is replaced by a wrapper in
its defining module *and* in every tclab module that imported the same
object under some name (``from .currents import annulus_mass`` copies the
name into ``monotonicity``), so calls through either binding are seen.
Methods are wrapped on the class that defines them, so subclasses that do
not override them are covered too.  A missing target raises, so a rename
in the library fails loudly instead of reading as zero.

Spans are aggregated in memory per name: calls, inclusive time, self time
(inclusive minus time spent in nested spans), the longest single call and
a work counter (chart points, quadrature nodes, matrices...).  Cert timers
keep every duration instead.

Forked process-pool workers inherit the wrappers.  After a fork the child
starts from empty statistics, and whenever its outermost span closes it
appends what it recorded to ``<spool>/<tag>-<pid>.jsonl``; the parent merges
those files after the pool has shut down (``drain``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

TCLAB_MODULES = ("geom", "fourier", "quadrature", "currents",
                 "epiperimetric", "monotonicity", "flat", "calibration",
                 "decomposition", "scenarios", "cli")

_ACTIVE = []


def _after_fork():
    for tracer in _ACTIVE:
        tracer.worker = True
        tracer.reset()


os.register_at_fork(after_in_child=_after_fork)


# ---------------------------------------------------------------------------
# work counters: f(args, kwargs) -> number of units the call processes

def _points(args, kwargs):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _nodes(args, kwargs):
    order = kwargs.get("order", args[2] if len(args) > 2 else None)
    order = order or args[0].order
    return int(order[0]) * int(order[1])


def _matrices(args, kwargs):
    return int(np.prod(np.shape(args[0])[:-2]))


def _sweep_nodes(args, kwargs):
    tnodes = kwargs.get("tnodes", args[3] if len(args) > 3 else 8)
    surface = args[0]
    return int(surface.order[0]) * int(surface.order[1]) * int(tnodes)


def _nelder_mead(args, kwargs):
    return int(kwargs.get("method", args[3] if len(args) > 3 else None)
               == "Nelder-Mead")


# (module, attribute or Class.method, span name, work counter)
LAYER_TARGETS = (
    ("tclab.geom", "twovector_mass_norm", "geom.mass_norm", _matrices),
    ("tclab.epiperimetric", "cylindrical_excess",
     "epiperimetric.cylindrical_excess", None),
    ("tclab.epiperimetric", "optimal_plane", "epiperimetric.optimal_plane",
     None),
    ("tclab.epiperimetric", "regraph_over_plane",
     "epiperimetric.regraph_over_plane", None),
    ("tclab.epiperimetric", "build_competitor",
     "epiperimetric.build_competitor", None),
    ("scipy.optimize", "minimize", "scipy.minimize", _nelder_mead),
    ("tclab.currents", "ParamSurface.points", "currents.points", _points),
    ("tclab.currents", "ParamSurface.partials", "currents.partials",
     _points),
    ("tclab.currents", "RadialRestriction.points", "currents.points",
     _points),
    ("tclab.currents", "RadialRestriction.partials", "currents.partials",
     _points),
    ("tclab.currents", "ParamSurface.integrate_density",
     "currents.integrate_density", _nodes),
    ("tclab.currents", "ParamSurface.mass", "currents.mass", None),
    ("tclab.currents", "annulus_mass", "currents.annulus_mass", None),
    ("tclab.currents", "infinite_cone_cylinder_mass",
     "currents.infinite_cone_cylinder_mass", None),
    ("tclab.fourier", "harmonic_extension", "fourier.harmonic_extension",
     None),
    ("tclab.fourier", "analyze", "fourier.analyze", None),
    ("tclab.monotonicity", "mass_profile", "monotonicity.mass_profile", None),
    ("tclab.monotonicity", "deviation_integral",
     "monotonicity.deviation_integral", None),
    ("tclab.monotonicity", "radial_projection_mass",
     "monotonicity.radial_projection_mass", None),
    ("tclab.flat", "radial_homotopy_filling", "flat.radial_homotopy_filling",
     None),
    ("tclab.calibration", "sweep_mass", "calibration.sweep_mass",
     _sweep_nodes),
    ("tclab.calibration", "almost_minimality_probe",
     "calibration.almost_minimality_probe", None),
    ("tclab.decomposition", "split_current", "decomposition.split_current",
     None),
    ("tclab.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("tclab.scenarios", "render_artifact", "scenarios.render_artifact", None),
    ("tclab.cli", "main", "cli.main", None),
)

# The calls that each yield one verdict row (or one decay envelope).  Their
# durations are the benchmark's per-certificate times.
CERT_TARGETS = (
    ("tclab.epiperimetric", "epiperimetric_gap", "cert", None),
    ("tclab.calibration", "almost_minimality_probe", "cert", None),
    ("tclab.flat", "radial_homotopy_filling", "cert", None),
    ("tclab.monotonicity", "mass_profile", "cert", None),
)


class TracerError(RuntimeError):
    pass


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self, spool_dir: str, tag: str):
        self.spool_dir = spool_dir
        self.tag = tag
        self.worker = False
        self._patches = []
        self.reset()

    def reset(self):
        self.stats = {}
        self.certs = []
        self._stack = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            units = counter(args, kwargs) if counter else 0
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer._record(name, dt, dt - frame[0], units)
        return wrapper

    def _record(self, name, dt, self_dt, units):
        if name == "cert":
            self.certs.append(dt)
        else:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0, 0.0, 0]
            st[0] += 1
            st[1] += dt
            st[2] += self_dt
            st[3] = max(st[3], dt)
            st[4] += units
        if self.worker and not self._stack:
            self._spool()

    def _spool(self):
        path = os.path.join(self.spool_dir, f"{self.tag}-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"stats": self.stats,
                                 "certs": self.certs}) + "\n")
        self.stats = {}
        self.certs = []

    def drain(self):
        """Merge and delete what pool workers spooled; return worker stats."""
        workers = {}
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith(self.tag + "-"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.certs.extend(rec["certs"])
                    for key, st in rec["stats"].items():
                        _merge(self.stats, key, st)
                        _merge(workers, key, st)
            os.remove(path)
        return workers

    # -- installation -------------------------------------------------------

    def install(self, targets):
        for module, attr, name, counter in targets:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise TracerError(f"{module}.{attr} no longer exists")
                orig = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(orig, name, counter))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                raise TracerError(f"{module}.{attr} no longer exists")
            wrapper = self._wrap(orig, name, counter)
            for owner in [mod] + _tclab_modules():
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._patch(owner, key, wrapper)
        if self not in _ACTIVE:
            _ACTIVE.append(self)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)
        if self in _ACTIVE:
            _ACTIVE.remove(self)


def _tclab_modules():
    return [sys.modules[f"tclab.{m}"] for m in TCLAB_MODULES
            if f"tclab.{m}" in sys.modules]


def _merge(into, key, st):
    cur = into.get(key)
    if cur is None:
        into[key] = list(st)
        return
    for i in (0, 1, 2, 4):
        cur[i] += st[i]
    cur[3] = max(cur[3], st[3])
