"""Error types shared across the laboratory modules.

Every failure mode that callers are expected to catch has its own class;
anything else is a plain ValueError and means the caller broke a contract.
"""


class TclabError(Exception):
    """Base class for all laboratory errors."""


class NonFinite(TclabError):
    """A sample, coefficient or integrand value is NaN or infinite."""


class QuadratureNotConverged(TclabError):
    """Doubling the quadrature order moved the result more than tolerated."""


class Undersampled(TclabError):
    """Too few samples or modes to resolve a profile's Fourier series."""


class LipschitzTooLarge(TclabError):
    """A profile's Lipschitz constant exceeds the admissible threshold."""


class NotGraph(TclabError):
    """A curve cannot be written as a cylinder graph over the given plane."""


class SupportEscapesCylinder(TclabError):
    """The cone over the curve leaves the safety cylinder of the plane."""


class ExcessTooLarge(TclabError):
    """The cone is too far from the reference plane to start a tilt search."""


class NoConvergence(TclabError):
    """An iterative solve stopped without meeting its stationarity target."""


class VertexTooClose(TclabError):
    """An integral with a vertex-singular weight was asked to start at ~0."""


class TubesOverlap(TclabError):
    """Plane tubes intersect in the sampled region; clustering is ambiguous."""


class ConfigError(TclabError):
    """A scenario configuration file is malformed."""


class ScenarioError(TclabError):
    """A scenario failed while running; carries the scenario name.

    Both fields go through ``args`` so the exception survives the
    pickling round trip from a ``--jobs`` worker.
    """

    def __init__(self, scenario: str, message: str):
        super().__init__(scenario, message)
        self.scenario = scenario
        self.message = message

    def __str__(self):
        return f"scenario {self.scenario!r}: {self.message}"
