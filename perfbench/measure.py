"""Child process of the benchmark: one set-up probe or one measured run.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to
one thread and ``src/`` on the path.  Two modes:

``setup``    import tclab, generate the workload config and compute its
             first certificate, then print ``ready`` and the wall-clock
             time (the parent times process start to that moment);
``measure``  warm up on the anchor pass, then run timed passes for the
             given number of seconds and print one JSON line of results.
             With ``--trace 1`` every config runs twice, untraced and
             traced in alternating order, and per-layer numbers come from
             the traced copies.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from speed import Laps  # noqa: E402
from tracer import CERT_TARGETS, LAYER_TARGETS, Tracer  # noqa: E402

MIN_PASSES = 3

# Counts the self-test expects to be nonzero / zero on every traced pass.
PREDICTED = {
    "epi": {
        "nonzero": ("geom.mass_norm.calls",
                    "epiperimetric.cylindrical_excess.calls",
                    "currents.chart_points", "currents.quad_nodes",
                    "currents.mass.calls", "fourier.harmonic_extension.calls"),
        "zero": ("calibration.sweep_mass.calls", "currents.annulus_mass.calls",
                 "monotonicity.radial_projection_mass.calls",
                 "flat.radial_homotopy_filling.calls")},
    "radial": {
        "nonzero": ("currents.annulus_mass.calls",
                    "monotonicity.radial_projection_mass.calls",
                    "flat.radial_homotopy_filling.calls",
                    "currents.chart_points", "currents.quad_nodes",
                    "currents.mass.calls", "fourier.harmonic_extension.calls"),
        "zero": ("geom.mass_norm.calls",
                 "epiperimetric.cylindrical_excess.calls",
                 "calibration.sweep_mass.calls")},
    "calib": {
        "nonzero": ("calibration.sweep_mass.calls", "calibration.sweep_nodes",
                    "currents.mass.calls", "currents.chart_points",
                    "currents.quad_nodes"),
        "zero": ("geom.mass_norm.calls",
                 "epiperimetric.cylindrical_excess.calls",
                 "currents.annulus_mass.calls",
                 "monotonicity.radial_projection_mass.calls",
                 "flat.radial_homotopy_filling.calls",
                 "fourier.harmonic_extension.calls")},
    "mix": {
        "nonzero": ("geom.mass_norm.calls",
                    "epiperimetric.cylindrical_excess.calls",
                    "currents.annulus_mass.calls",
                    "monotonicity.radial_projection_mass.calls",
                    "flat.radial_homotopy_filling.calls",
                    "calibration.sweep_mass.calls", "currents.chart_points",
                    "fourier.harmonic_extension.calls", "cli.pool_busy_frac"),
        "zero": ()},
}


def layer_metrics(stats: dict, workers: dict) -> dict:
    """Per-layer numbers of one traced pass from merged span statistics."""
    def g(name, field):
        st = stats.get(name)
        return st[field] if st else 0
    calls, incl, self_s, longest, units = range(5)

    searches = g("epiperimetric.optimal_plane", calls)
    points = g("currents.points", units) + g("currents.partials", units)
    nodes = g("currents.integrate_density", units)
    cli_wall = g("cli.main", incl)
    busy = workers.get("scenarios.run_scenario", [0, 0.0])[incl]
    return {
        "geom.mass_norm.calls": g("geom.mass_norm", calls),
        "geom.mass_norm.matrices": g("geom.mass_norm", units),
        "geom.mass_norm.self_s": g("geom.mass_norm", self_s),
        "epiperimetric.cylindrical_excess.calls":
            g("epiperimetric.cylindrical_excess", calls),
        "epiperimetric.cylindrical_excess.self_s":
            g("epiperimetric.cylindrical_excess", self_s),
        "epiperimetric.excess_evals_per_search":
            g("epiperimetric.cylindrical_excess", calls) / searches
            if searches else 0.0,
        "epiperimetric.optimal_plane.self_s":
            g("epiperimetric.optimal_plane", self_s),
        "epiperimetric.nelder_mead_searches": g("scipy.minimize", units),
        "epiperimetric.regraph_over_plane.self_s":
            g("epiperimetric.regraph_over_plane", self_s),
        "epiperimetric.build_competitor.s":
            g("epiperimetric.build_competitor", incl),
        "currents.chart_points": points,
        "currents.quad_nodes": nodes,
        "currents.chart_points_per_node": points / nodes if nodes else 0.0,
        "currents.points.self_s": g("currents.points", self_s),
        "currents.partials.self_s": g("currents.partials", self_s),
        "currents.integrate_density.self_s":
            g("currents.integrate_density", self_s),
        "currents.mass.calls": g("currents.mass", calls),
        "currents.mass.s": g("currents.mass", incl),
        "currents.annulus_mass.calls": g("currents.annulus_mass", calls),
        "currents.annulus_mass.s": g("currents.annulus_mass", incl),
        "currents.infinite_cone_cylinder_mass.s":
            g("currents.infinite_cone_cylinder_mass", incl),
        "fourier.harmonic_extension.calls":
            g("fourier.harmonic_extension", calls),
        "fourier.analyze.s": g("fourier.analyze", incl),
        "monotonicity.mass_profile.s": g("monotonicity.mass_profile", incl),
        "monotonicity.deviation_integral.s":
            g("monotonicity.deviation_integral", incl),
        "monotonicity.radial_projection_mass.calls":
            g("monotonicity.radial_projection_mass", calls),
        "monotonicity.radial_projection_mass.s":
            g("monotonicity.radial_projection_mass", incl),
        "flat.radial_homotopy_filling.calls":
            g("flat.radial_homotopy_filling", calls),
        "flat.radial_homotopy_filling.s":
            g("flat.radial_homotopy_filling", incl),
        "calibration.sweep_mass.calls": g("calibration.sweep_mass", calls),
        "calibration.sweep_mass.self_s": g("calibration.sweep_mass", self_s),
        "calibration.sweep_nodes": g("calibration.sweep_mass", units),
        "calibration.almost_minimality_probe.s":
            g("calibration.almost_minimality_probe", incl),
        "decomposition.split_current.s":
            g("decomposition.split_current", incl),
        "scenarios.run_scenario.s": g("scenarios.run_scenario", incl),
        "scenarios.run_scenario.max_s": g("scenarios.run_scenario", longest),
        "scenarios.render_artifact.s": g("scenarios.render_artifact", incl),
        "cli.main.s": cli_wall,
        "cli.pool_busy_frac":
            busy / (W.MIX_JOBS * cli_wall) if cli_wall else 0.0,
    }


def self_test(workload: str, per_pass: list) -> list:
    """Violations of the zero/nonzero count predictions, as messages."""
    bad = []
    pred = PREDICTED[workload]
    for k, values in enumerate(per_pass):
        for name in pred["nonzero"]:
            if not values[name]:
                bad.append(f"self-test: {name} is 0 on traced pass {k}, "
                           "predicted nonzero")
        for name in pred["zero"]:
            if values[name]:
                bad.append(f"self-test: {name} = {values[name]} on traced "
                           f"pass {k}, predicted 0")
    return bad


def tail(samples: list, cap: float) -> tuple:
    """(percentile, value): the highest percentile, at most ``cap``, that
    has at least ten samples beyond it.

    The cap fixes the percentile across runs of one workload whose sample
    counts differ by machine speed; below the cap's sample count the
    percentile falls smoothly with it.  Below twenty samples the median
    is reported.
    """
    n = len(samples)
    if n < 20:
        return 50.0, float(np.median(samples))
    pct = min(cap, 100.0 * (n - 10) / n)
    return pct, float(np.percentile(samples, pct))


def environment() -> dict:
    """Machine and library versions the numbers were measured with."""
    import platform

    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child's peak, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """State of one measured run: checks, cert samples, pass timings."""

    def __init__(self, workload: str, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.cert = Tracer(work_dir, "cert")
        self.layer = Tracer(work_dir, "layer")
        self.cert.install(CERT_TARGETS)

    def execute(self, config: dict, traced: bool = False):
        """Run one pass; return (laps, artifacts, layer values).

        Each segment of the pass (a scenario, or the whole ``mix`` config)
        is one lap, and its certificate times are scaled to reference
        seconds with that lap's calibration factor; layer times use the
        pass's overall factor.
        """
        artifacts = {}
        if traced:
            self.layer.install(LAYER_TARGETS)
            self.layer.reset()
        try:
            clock = Laps()
            for part in W.segments(self.workload, config):
                first = len(self.cert.certs)
                with clock.lap():
                    artifacts.update(
                        W.run_pass(self.workload, part, self.work_dir))
                self.cert.drain()
                self.cert.certs[first:] = [
                    t * clock.factor for t in self.cert.certs[first:]]
        finally:
            if traced:
                self.layer.uninstall()
        values = None
        if traced:
            workers = self.layer.drain()
            values = layer_metrics(self.layer.stats, workers)
            for name in values:
                if name.endswith("_s") or name.endswith(".s"):
                    values[name] *= clock.seconds / clock.raw
        attempted, failed, messages = W.check_pass(config, artifacts)
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)
        return clock, artifacts, values

    def compare(self, label: str, config: dict, a: dict, b: dict):
        """Count every certificate of an artifact that differs as failed."""
        want = W.expected_certificates(config)
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                self.failed += want.get(name, 1)
                self.messages.append(f"{name}: {label} not byte-identical")


def measure(args) -> dict:
    run = Run(args.workload, args.work_dir)
    anchor = W.pass_config(args.workload, args.seed, 0)
    _, warm, _ = run.execute(anchor)
    run.cert.certs.clear()
    ref_dir = os.path.join(HERE, "reference", args.workload)
    deviation = W.reference_deviation(warm, ref_dir)

    walls, raw_walls, certs, traced_walls, layer_passes = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < args.seconds:
        config = anchor if k == 0 else W.pass_config(args.workload,
                                                     args.seed, k)
        if args.trace:
            order = (False, True) if k % 2 == 0 else (True, False)
            out = {}
            for traced in order:
                out[traced] = run.execute(config, traced=traced)
            walls.append(out[False][0].seconds)
            raw_walls.append(out[False][0].raw)
            traced_walls.append(out[True][0].seconds)
            layer_passes.append(out[True][2])
            run.compare("traced pass vs untraced pass", config,
                        out[False][1], out[True][1])
            arts = out[False][1]
        else:
            clock, arts, _ = run.execute(config)
            walls.append(clock.seconds)
            raw_walls.append(clock.raw)
            certs.extend(run.cert.certs)
        run.cert.certs.clear()
        if k == 0:
            run.compare("anchor rerun", config, warm, arts)
        k += 1

    result = {"attempted": run.attempted, "failed": run.failed,
              "messages": run.messages, "passes": k,
              "reference_deviation": deviation,
              "raw_wall_s": float(np.median(raw_walls)),
              "environment": environment()}
    if args.trace:
        run.messages.extend(self_test(args.workload, layer_passes))
        metrics = {name: float(np.median([p[name] for p in layer_passes]))
                   for name in layer_passes[0]}
        ratios = [t / u for t, u in zip(traced_walls, walls)]
        metrics["trace_overhead_frac"] = float(np.median(ratios)) - 1.0
    else:
        pct, tail_value = tail(certs, W.TAIL_PERCENTILE[args.workload])
        metrics = {"wall_s": float(np.median(walls)),
                   "cert_p50_s": float(np.median(certs)),
                   "cert_tail_s": tail_value,
                   "peak_rss_mb": peak_rss_mb()}
        result.update(cert_samples=len(certs), tail_percentile=pct)
    result["metrics"] = metrics
    return result


def setup(args):
    from tclab import scenarios

    config = W.pass_config(args.workload, args.seed, 0)
    if args.workload == "mix":
        with open(os.path.join(args.work_dir, "setup.json"), "w") as fh:
            json.dump(config, fh)
    first = W.first_certificate_config(args.workload)
    scenarios.run_scenario(scenarios.load_config(first)[0])
    print("ready", repr(time.time()), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    import tclab.cli  # noqa: F401  (the whole package, as a user loads it)
    if args.mode == "setup":
        setup(args)
    else:
        print(json.dumps(measure(args)), flush=True)


if __name__ == "__main__":
    main()
