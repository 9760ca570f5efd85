"""The benchmark tracer's targets must all exist in the library.

``perfbench/tracer.py`` wraps named tclab functions and raises TracerError
when one is gone, which would stop a traced benchmark run.  Installing and
uninstalling every target here turns such a rename into a test failure.
"""

import importlib.util
from pathlib import Path

import scipy.optimize

import tclab.epiperimetric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
