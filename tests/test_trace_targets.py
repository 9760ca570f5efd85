"""The benchmark tracer's targets must all exist in the library, and a
traced benchmark pass must meet the benchmark's own self-test.

``perfbench/tracer.py`` wraps named tclab functions and raises TracerError
when one is gone, which would stop a traced benchmark run.  Installing and
uninstalling every target here turns such a rename into a test failure.
``perfbench/measure.py`` predicts which layer counts are zero and which
are nonzero on each workload; one traced pass per workload, run through
its own ``Run``, turns a library change that breaks a prediction into a
test failure too.  The tracer patches only the tclab modules loaded when
it installs, so the whole package is imported first, as the benchmark
does.
"""

import importlib.util
import os
from pathlib import Path

import pytest
import scipy.optimize

import tclab.cli  # noqa: F401  (the whole package, as the benchmark loads it)
import tclab.epiperimetric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_installs(tmp_path):
    tracer = _load_tracer()
    originals = (tclab.epiperimetric.optimal_plane, scipy.optimize.minimize)
    cert = tracer.Tracer(str(tmp_path), "cert")
    layer = tracer.Tracer(str(tmp_path), "layer")
    try:
        cert.install(tracer.CERT_TARGETS)
        layer.install(tracer.LAYER_TARGETS)
        assert tclab.epiperimetric.optimal_plane is not originals[0]
    finally:
        layer.uninstall()
        cert.uninstall()
    assert (tclab.epiperimetric.optimal_plane,
            scipy.optimize.minimize) == originals


@pytest.mark.parametrize("workload", ["epi", "radial", "calib", "mix"])
def test_traced_pass_meets_the_benchmark_self_test(tmp_path, monkeypatch,
                                                   workload):
    # measure.py pins BLAS threads and finds its sibling modules on the
    # path; both are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_measure",
                                                  PERFBENCH / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    gap = tclab.epiperimetric.epiperimetric_gap
    run = measure.Run(workload, str(tmp_path))
    try:
        _, _, values = run.execute(measure.W.pass_config(workload, 1, 0),
                                   traced=True)
    finally:
        run.layer.uninstall()
        run.cert.uninstall()
    assert tclab.epiperimetric.epiperimetric_gap is gap
    assert measure.self_test(workload, [values]) == []
    assert (run.failed, run.messages) == (0, [])
