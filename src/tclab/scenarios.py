"""Scenario families and runners behind the command line interface.

A scenario is a named, seeded experiment of one of five kinds: ``epi``
(cone vs competitor gap ratios), ``decay`` (mass profile envelopes and
almost-monotonicity), ``flat`` (radial homotopy bounds), ``calib`` (mass
comparison probes) and ``split`` (plane clustering).  Each scenario
renders to a CSV (``split`` to JSON), with a trailing config-hash comment
so artifacts can be tied back to the exact configuration that produced
them.  All randomness is drawn from a generator seeded per scenario; two
runs of the same config produce byte-identical artifacts.
"""

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Literal, get_args, get_origin

import numpy as np

from .errors import ConfigError, ScenarioError, TclabError
from .fourier import FourierSeries, harmonic_extension
from .currents import WindingCurve, cone_chart
from .epiperimetric import epiperimetric_gap, mode_ratio
from .monotonicity import (DecayConstants, mass_profile, deviation_integral,
                           synthesize_decay_profile, fit_decay)
from .flat import radial_homotopy_filling
from .calibration import Bump, almost_minimality_probe, spherical_cap
from .decomposition import EmbeddedCurve, split_current

# Single-mode linear theory predicts a gap ratio of 2a/(1+a^2) for a
# profile of frequency ratio a.  Random families must certify ratio
# <= 0.95 with margin for quadratic corrections, so the mode pool
# excludes the band where the linear ratio already exceeds this cap.
RANDOM_RATIO_CAP = 0.93
EXCESS_CAP = 0.05
# decay and flat profiles start at half the extension disk's unit radius
EXTENSION_R_MAX = 0.5
# quadrature order (u, v) of the calib surfaces, the unit disk and sphere
CALIB_ORDER = (96, 192)


# ---------------------------------------------------------------------------
# curve families

def single_mode_series(Q: int, mode: int, amplitude: float) -> FourierSeries:
    """One-dimensional profile made of one cosine mode of the given size."""
    alpha = np.zeros((mode + 1, 1))
    alpha[mode, 0] = amplitude
    return FourierSeries(Q=Q, n=1, alpha=alpha, beta=np.zeros((mode, 1)))


def allowed_random_modes(Q: int) -> list:
    """Profile frequencies whose linear gap ratio stays below the cap.

    Frequencies with i/Q near 1 have ratios above 0.95 and cannot
    certify the random-family bound; frequency Q itself is a plane tilt,
    not a genuine perturbation.  Both are excluded.
    """
    pool = []
    for i in range(1, 5 * Q + 1):
        if i == Q:
            continue
        if mode_ratio(i / Q) <= RANDOM_RATIO_CAP:
            pool.append(i)
    return pool


def random_epi_curve(rng: np.random.Generator,
                     lip_max: float = 0.1) -> WindingCurve:
    """Random multi-mode curve in the certified convergence regime.

    All modes share one normal direction, the mode pool obeys the
    linear ratio cap, and the profile is rescaled to the requested
    Lipschitz budget.
    """
    Q = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))
    pool = allowed_random_modes(Q)
    k = int(rng.integers(2, min(4, len(pool)) + 1))
    modes = sorted(rng.choice(pool, size=k, replace=False).tolist())
    direction = int(rng.integers(0, n))
    N = max(modes)
    alpha = np.zeros((N + 1, n))
    beta = np.zeros((N, n))
    for i in modes:
        c = rng.standard_normal() / (i / Q)
        s = rng.standard_normal() / (i / Q)
        alpha[i, direction] = c
        beta[i - 1, direction] = s
    # rescale to the Lipschitz budget; bound sup |f'| by the triangle
    # inequality over modes rather than a sampled maximum, which can
    # miss a peak between grid points and leak past the budget
    freq = np.arange(1, N + 1) / Q
    power = np.sum(alpha[1:] ** 2, axis=1) + np.sum(beta ** 2, axis=1)
    lip = float(np.sum(freq * np.sqrt(power)))
    target = lip_max * float(rng.uniform(0.3, 1.0))
    scale = target / lip
    # a Lipschitz budget alone does not bound the excess: a slow mode
    # (i < Q) buys a tall profile with a flat derivative, so also cap
    # the quadratic excess model to stay inside the tilt search's gate
    e2 = 0.25 * np.pi * Q * scale * scale \
        * float(np.sum(power * (1.0 + freq ** 2)))
    if e2 > EXCESS_CAP:
        scale *= np.sqrt(EXCESS_CAP / e2)
    series = FourierSeries(Q=Q, n=n, alpha=alpha * scale, beta=beta * scale)
    return WindingCurve(series)


def extension_surface(Q: int, mode: int, amplitude: float):
    """Graph surface extending a single-mode curve into the unit disk."""
    return harmonic_extension(single_mode_series(Q, mode, amplitude), 1.0)


def flat_circle(Q: int) -> WindingCurve:
    """Q-fold unit circle: the winding curve of the zero profile."""
    zero = FourierSeries(Q=Q, n=1, alpha=np.zeros((1, 1)),
                         beta=np.zeros((0, 1)))
    return WindingCurve(zero)


def orthogonal_planes_instance(Q_list=(1, 1)):
    """Unit flat circles in the two orthogonal coordinate planes of R^4."""
    eye = np.eye(4)
    frames = [eye[:, [0, 1, 2]], eye[:, [2, 3, 0]]]
    curves = []
    for k, Q in enumerate(Q_list):
        curves.append(EmbeddedCurve(curve=flat_circle(int(Q)),
                                    frame=frames[k % 2]))
    return curves


# ---------------------------------------------------------------------------
# parameter schemas
#
# One frozen dataclass per kind names every key its runner reads; each
# field's annotation is the key's type, read by the parser and by the
# command line's flags, and its default and validity rules live only here.
# Building one from a config's params rejects unknown keys, wrong types,
# numbers out of range and parameter sets that would yield no verdict row.
# A value that no config varies is a constant instead of a key
# (EXTENSION_R_MAX, CALIB_ORDER, the epi pass margin, the decay budget);
# a test checks that configs/desk.json or a benchmark workload sets every
# key, each family-tagged key in a run of its family, so knobs no run
# turns do not build up.

def _key(default, help: str, **meta):
    """Schema field; ``least`` (inclusive) or ``above`` (exclusive) bounds
    every number the key holds, and ``family`` names the one decay family
    that reads it."""
    return field(default=default, metadata={"help": help, **meta})


@dataclass(frozen=True)
class EpiParams:
    """cone vs competitor gap ratios"""

    Q: tuple[int, ...] = _key((1, 2, 3), "winding numbers of the mode grid",
                              least=1)
    ratios: tuple[int, ...] = _key((2, 3, 4), "grid frequencies i/Q; 1 is a "
                                   "pure tilt", least=2)
    amplitudes: tuple[float, ...] = _key((1e-3, 1e-2), "grid amplitudes",
                                         above=0)
    random: int = _key(0, "random multi-mode curves after the grid", least=0)
    lip_max: float = _key(0.1, "Lipschitz cap of every epi profile", above=0)

    def __post_init__(self):
        grid = (self.Q, self.ratios, self.amplitudes)
        if any(grid) and not all(grid):
            raise ConfigError("Q, ratios and amplitudes must be all empty "
                              "or all non-empty: a partial grid is unread")
        if self.random == 0 and not all(grid):
            raise ConfigError("no curve to certify: the Q x ratios x "
                              "amplitudes grid is empty and random is 0")


@dataclass(frozen=True)
class _ExtensionParams:
    """Single-mode harmonic extension of the unit disk, read by decay and
    flat; profile radii start at EXTENSION_R_MAX."""

    Q: int = _key(1, "winding number", least=1)
    mode: int = _key(None, "profile frequency i, not Q; default 2Q",
                     family="extension", least=1)
    amplitude: float = _key(1e-2, "profile amplitude", family="extension",
                            above=0)

    def __post_init__(self):
        """Fill mode = 2Q; refuse the pure-tilt mode."""
        if self.mode is None:
            object.__setattr__(self, "mode", 2 * self.Q)
        if self.mode == self.Q:
            raise ConfigError(f"mode {self.mode} equals Q: that profile is a "
                              "tilted plane whose excess is pure roundoff")


@dataclass(frozen=True)
class DecayParams(_ExtensionParams):
    """decay envelopes and almost-monotonicity of mass profiles"""

    family: Literal["extension", "ode"] = _key(
        "extension", "harmonic extension surface or closed-form rate ODE")
    levels: int = _key(8, "dyadic radii in the profile", least=2)
    epsilon12: float = _key(0.1, "rate a = 2 / (1 - epsilon12)")
    alpha0: float = _key(1.0, "exponent of C02, read by the extension family")
    cbar: float = _key(0.0, "almost-minimality coefficient", family="ode")
    eps: float = _key(0.5, "drift exponent of the envelope")
    e0: float = _key(1e-2, "excess at radius r0", family="ode", above=0)
    r0: float = _key(1.0, "largest profile radius", family="ode", above=0)

    def __post_init__(self):
        try:
            self.constants()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.family == "extension":
            super().__post_init__()

    def constants(self) -> DecayConstants:
        return DecayConstants(epsilon12=self.epsilon12, alpha0=self.alpha0,
                              cbar=self.cbar, eps=self.eps)


@dataclass(frozen=True)
class FlatParams(_ExtensionParams):
    """radial homotopy flat-gap bounds"""

    levels: int = _key(6, "dyadic radii r, each bounded against r/2",
                       least=2)
    tnodes: int = _key(12, "quadrature nodes along the homotopy", least=1)


@dataclass(frozen=True)
class CalibParams:
    """mass comparison probes"""

    surface: Literal["disk", "equator"] = _key(
        "disk", "calibrated unit surface under test")
    omega: float = _key(0.0, "almost-minimality constant Omega", least=0)
    probes: int = _key(20, "seeded bump fields", least=1)
    eps: tuple[float, ...] = _key((0.05,), "sweep times per bump", above=0)
    bump_power: int = _key(5, "bump exponent (1 - |y|^2/R^2)^power",
                           least=1)

    def __post_init__(self):
        if not self.eps:
            raise ConfigError("no probe to run: eps is empty")


@dataclass(frozen=True)
class SplitParams:
    """plane clustering decomposition"""

    Q: tuple[int, ...] = _key((1, 1), "winding numbers of flat circles in "
                              "alternating orthogonal planes", least=1)
    width: float = _key(0.05, "tube width around each plane", above=0)

    def __post_init__(self):
        if not self.Q:
            raise ConfigError("no circle to split: Q is empty")


SCHEMAS = {"epi": EpiParams, "decay": DecayParams, "flat": FlatParams,
           "calib": CalibParams, "split": SplitParams}

_NAMES = {int: "integer", float: "finite number", str: "string"}


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return " or ".join(map(repr, args))
    if origin is tuple:
        return f"list of {_describe(args[0])}s"
    return _NAMES[tp]


def _coerce(value, tp):
    """``value`` as type ``tp``, lists made tuples and ints floats; raises
    a bare ConfigError on mismatch, which the caller names."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal and value in args:
        return value
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_coerce(x, args[0]) for x in value)
    if tp is float and type(value) in (int, float) and math.isfinite(value):
        return float(value)
    if type(value) is tp:
        return value
    raise ConfigError()


def _broken_bound(value, meta) -> str | None:
    """The bound of ``meta`` that a number in ``value`` breaks, if any."""
    numbers = value if isinstance(value, tuple) else (value,)
    if "least" in meta and any(x < meta["least"] for x in numbers):
        return f">= {meta['least']}"
    if "above" in meta and any(x <= meta["above"] for x in numbers):
        return f"> {meta['above']}"
    return None


def _parse_params(kind: str, params: dict):
    """Typed, validated parameters of one scenario kind."""
    schema = SCHEMAS.get(kind)
    if schema is None:
        raise ConfigError(f"unknown kind {kind!r}")
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    known = {f.name: f for f in fields(schema)}
    values = {}
    for key, value in params.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r} "
                              f"(known: {', '.join(known)})")
        tp = known[key].type
        try:
            values[key] = _coerce(value, tp)
        except ConfigError:
            raise ConfigError(f"key {key!r} must be {_describe(tp)}, got "
                              f"{value!r}") from None
        bound = _broken_bound(values[key], known[key].metadata)
        if bound:
            raise ConfigError(f"key {key!r} must be {bound}, got {value!r}")
    family = values.get("family", getattr(schema, "family", None))
    for key in values:
        needs = known[key].metadata.get("family")
        if family and needs and needs != family:
            raise ConfigError(f"key {key!r} is not read by {kind} family "
                              f"{family!r}")
    return schema(**values)


# ---------------------------------------------------------------------------
# scenario plumbing

@dataclass(frozen=True)
class Scenario:
    """One named experiment: kind, seed and kind-specific parameters.

    ``params`` is kept as written, so the config hash does not depend on
    defaults; ``typed`` holds the validated values the runner reads.
    ``curves`` is None, or the pre-drawn (profile, amplitude) pairs, each
    profile a FourierSeries, that an epi part certifies in place of
    drawing its own (``parts``).
    """

    name: str
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    typed: object = field(init=False, repr=False, compare=False)
    curves: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        try:
            if type(self.seed) is not int:
                raise ConfigError("seed must be an integer")
            typed = _parse_params(self.kind, self.params)
        except ConfigError as err:
            raise ConfigError(f"scenario {self.name!r}: {err}") from None
        object.__setattr__(self, "typed", typed)

    def with_curves(self, curves) -> "Scenario":
        """This scenario certifying only the given (profile, amplitude)
        pairs.  Name, seed and params stay, and so does the config hash;
        the params were validated once and are not parsed again."""
        part = copy.copy(self)
        object.__setattr__(part, "curves", tuple(curves))
        return part

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF])

    def config_hash(self) -> str:
        blob = json.dumps({"name": self.name, "kind": self.kind,
                           "seed": self.seed, "params": self.params},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ScenarioResult:
    """Artifact rows of one scenario; each row ends with its verdict, and
    ``notes`` holds one message per REFUSED row, in row order."""

    name: str
    kind: str
    columns: tuple
    rows: list
    fitted: dict
    config_hash: str
    notes: list
    payload: dict | None = None

    @property
    def npass(self) -> int:
        return sum(1 for row in self.rows if row[-1] == "PASS")

    @property
    def nfail(self) -> int:
        return len(self.rows) - self.npass


def load_config(source) -> list:
    """Parse a config mapping (or JSON text) into validated scenarios."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(source, dict):
        raise ConfigError("config root must be a JSON object")
    raw = source.get("scenarios")
    if raw is None:
        raise ConfigError("config lacks a 'scenarios' list")
    if not isinstance(raw, list):
        raise ConfigError("'scenarios' must be a list")
    out = []
    seen = set()
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"scenario #{k} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"scenario #{k} lacks a name")
        if name in seen:
            raise ConfigError(f"duplicate scenario name {name!r}")
        seen.add(name)
        extra = sorted(set(entry) - {"name", "kind", "seed", "params"})
        if extra:
            raise ConfigError(f"scenario {name!r}: unknown entry keys {extra}")
        out.append(Scenario(name=name, kind=entry.get("kind"),
                            seed=entry.get("seed", 0),
                            params=entry.get("params", {})))
    return out


def _fit_power(x, y):
    """Least squares exponent and prefactor of y = C * x^k, y > 0."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    k, logc = np.polyfit(lx, ly, 1)
    return float(k), float(np.exp(logc))


# ---------------------------------------------------------------------------
# per-kind runners

def epi_curves(sc: Scenario):
    """(profile, amplitude) pairs of an epi scenario in draw order, each
    profile the FourierSeries of one curve: the grid, then the random
    curves drawn from the scenario's rng."""
    p = sc.typed
    for Q in p.Q:
        for ratio in p.ratios:
            for amp in p.amplitudes:
                yield single_mode_series(Q, ratio * Q, amp), amp
    rng = sc.rng()
    for _ in range(p.random):
        series = random_epi_curve(rng, lip_max=p.lip_max).series
        amp = float(max(np.abs(series.alpha).max(), np.abs(series.beta).max()))
        yield series, amp


EPI_COLUMNS = ("Q", "n", "modes", "amplitude", "raw_excess",
               "optimal_excess", "cone_gap", "competitor_gap", "ratio", "L",
               "verdict")


def _refuse(rows, notes, cells: tuple, err: TclabError, what: str):
    """Append the row of ``cells`` and the verdict REFUSED:<ErrorClass>,
    and its note: ``what`` was refused, and why."""
    rows.append(cells + (f"REFUSED:{type(err).__name__}",))
    notes.append(f"{what}: {type(err).__name__}: {err}")


def _run_epi(sc: Scenario):
    """One row per curve, each built from its profile when its row is
    certified, so no curve or sample table outlives its row.  A curve
    whose certificate raises a TclabError gets a row with empty numbers,
    the verdict REFUSED:<ErrorClass> and a note that names it."""
    p = sc.typed
    rows, notes = [], []
    drawn = epi_curves(sc) if sc.curves is None else sc.curves
    for series, amplitude in drawn:
        modes = "+".join(str(i) for i in series.live_modes)
        head = (series.Q, series.n, modes, amplitude)
        try:
            vd = epiperimetric_gap(WindingCurve(series), lip_max=p.lip_max)
        except TclabError as err:
            _refuse(rows, notes, head + ("",) * 6, err, f"Q {series.Q}, "
                    f"modes {modes}, amplitude {_cell(amplitude)}")
            continue
        verdict = "PASS" if vd.passed else "FAIL"
        rows.append(head + (vd.raw_excess, vd.optimal_excess, vd.cone_gap,
                            vd.competitor_gap, vd.ratio, vd.linear_ratio,
                            verdict))
    return EPI_COLUMNS, rows, _epi_fitted(rows), None, notes


def _epi_fitted(rows) -> dict:
    """Summary constants of epi rows: epsilon13 = min(1, 1 - ratio) over
    the certified rows, or none when every row was refused."""
    ratio = EPI_COLUMNS.index("ratio")
    eps = [1.0 - row[ratio] for row in rows
           if not row[-1].startswith("REFUSED:")]
    return {"epsilon13": min([1.0] + eps)} if eps else {}


def _decay_radii(r_max: float, levels: int):
    return [r_max * 2.0 ** (-k) for k in range(levels - 1, -1, -1)]


def _run_decay(sc: Scenario):
    p = sc.typed
    constants = p.constants()
    slabs = None
    if p.family == "extension":
        surface = extension_surface(p.Q, p.mode, p.amplitude)
        radii = _decay_radii(EXTENSION_R_MAX, p.levels)
        profile = mass_profile(surface, radii, p.Q)
        slabs = [deviation_integral(surface, s, r)
                 for s, r in zip(radii, radii[1:])]
    else:
        radii = _decay_radii(p.r0, p.levels)
        profile = synthesize_decay_profile(constants, p.e0, p.r0, radii,
                                           Q=p.Q)
    report = fit_decay(profile, constants, slabs)
    verdict = "PASS" if report.passed else "FAIL"
    exc = profile.excess()
    devs = [""] + (slabs or [""] * (p.levels - 1))

    columns = ("r", "f", "e", "deviation", "envelope_C", "verdict")
    rows = [(r, profile.values[k], exc[k], devs[k], report.c, verdict)
            for k, r in enumerate(radii)]
    kfit, _ = _fit_power(radii, np.maximum(exc, 1e-300))
    fitted = {"gamma0": 0.5 * kfit, "C": report.c}
    if report.c02 is not None:
        fitted["C02"] = report.c02
    return columns, rows, fitted, None, []


def _run_flat(sc: Scenario):
    """One row per level.  A level whose bound raises a TclabError gets a
    row with empty numbers, the verdict REFUSED:<ErrorClass> and a note;
    gamma0 and C are fitted over the levels with a bound, and left out
    when fewer than two have one."""
    p = sc.typed
    surface = extension_surface(p.Q, p.mode, p.amplitude)

    columns = ("r", "s", "bound", "filling", "residual", "verdict")
    rows, notes = [], []
    radii, bounds = [], []
    for r in _decay_radii(EXTENSION_R_MAX, p.levels):
        s = 0.5 * r
        try:
            bound = radial_homotopy_filling(surface, s, r, tnodes=p.tnodes)
        except TclabError as err:
            _refuse(rows, notes, (r, s, "", "", ""), err,
                    f"r {_cell(r)}, s {_cell(s)}")
            continue
        ok = np.isfinite(bound) and bound >= 0.0
        verdict = "PASS" if ok else "FAIL"
        # filling and residual carry no information (the filling is the
        # bound, nothing is matched directly); ROADMAP item 13 replaces
        # both columns with the rescaling ratio and the tail bound
        rows.append((r, s, bound, bound, 0.0, verdict))
        radii.append(r)
        bounds.append(bound)
    fitted = {}
    if len(radii) >= 2:
        kfit, cfit = _fit_power(radii, np.maximum(bounds, 1e-300))
        fitted = {"gamma0": kfit, "C": cfit}
    return columns, rows, fitted, None, notes


def calib_bump(rng: np.random.Generator, surface: str, power: int):
    """The next seeded probe bump of a calib run on the given surface."""
    if surface == "disk":
        c2 = rng.uniform(-0.45, 0.45, size=2)
        center = np.array([c2[0], c2[1], 0.0])
        rmax = 0.93 - np.linalg.norm(c2)
        brad = float(rng.uniform(0.15, min(0.45, rmax)))
        direction = rng.standard_normal(3)
    else:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        center = np.append(u, 0.0)
        brad = float(rng.uniform(0.2, 0.6))
        direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    return Bump(center, brad, direction, power=power)


def _run_calib(sc: Scenario):
    p = sc.typed
    rng = sc.rng()
    if p.surface == "disk":
        surface = cone_chart(flat_circle(1), order=CALIB_ORDER)
    else:
        surface = spherical_cap(1.0, 0.0, np.pi, dim=4, order=CALIB_ORDER)

    columns = ("probe", "mass_T", "mass_T_plus_dS", "mass_S", "omega",
               "slack", "verdict")
    rows = []
    for k in range(p.probes):
        chi = calib_bump(rng, p.surface, p.bump_power)
        for probe in almost_minimality_probe(surface, p.omega, chi, p.eps):
            verdict = "PASS" if probe.passed else "FAIL"
            rows.append((k, probe.mass, probe.mass_deformed,
                         probe.mass_sweep, p.omega, probe.slack, verdict))
    return columns, rows, {}, None, []


def _run_split(sc: Scenario):
    p = sc.typed
    curves = orthogonal_planes_instance(p.Q)
    planes = [c.plane() for c in curves]
    result = split_current(curves, planes, p.width)
    payload = {
        "clusters": result.groups,
        "multiplicities": [int(m) for m in result.multiplicities],
        "masses": [float(m) for m in result.masses],
        "total_mass": float(result.total_mass),
        "verdict": "PASS" if result.passed else "FAIL",
    }
    columns = ("group", "multiplicity", "mass", "verdict")
    verdict = payload["verdict"]
    rows = [(g, mult, m, verdict) for g, (mult, m)
            in enumerate(zip(result.multiplicities, result.masses))]
    return columns, rows, {}, payload, []


_RUNNERS = {"epi": _run_epi, "decay": _run_decay, "flat": _run_flat,
            "calib": _run_calib, "split": _run_split}


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Execute one scenario, wrapping module errors with its name."""
    try:
        columns, rows, fitted, payload, notes = _RUNNERS[sc.kind](sc)
    except TclabError as err:
        raise ScenarioError(sc.name, str(err)) from err
    return ScenarioResult(name=sc.name, kind=sc.kind, columns=columns,
                          rows=rows, fitted=fitted,
                          config_hash=sc.config_hash(), payload=payload,
                          notes=notes)


def parts(sc: Scenario) -> list:
    """Scenarios that certify apart and whose results ``merge`` back into
    ``sc``'s: one per curve of an epi scenario, every curve drawn by the
    caller in draw order, or ``sc`` alone for the other kinds."""
    if sc.kind != "epi":
        return [sc]
    return [sc.with_curves([drawn]) for drawn in epi_curves(sc)]


def merge(results) -> ScenarioResult:
    """The result of a scenario from its parts' results: rows and notes in
    draw order, and the summary constants of the joined epi rows."""
    first = results[0]
    if len(results) == 1:
        return first
    rows = [row for res in results for row in res.rows]
    return ScenarioResult(
        name=first.name, kind=first.kind, columns=first.columns, rows=rows,
        fitted=_epi_fitted(rows), config_hash=first.config_hash,
        payload=first.payload,
        notes=[note for res in results for note in res.notes])


# ---------------------------------------------------------------------------
# artifact rendering

def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(result: ScenarioResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_cell(v) for v in row))
    lines.append(f"# config_hash={result.config_hash}")
    return "\n".join(lines) + "\n"


def render_json(result: ScenarioResult) -> str:
    payload = dict(result.payload or {})
    payload["config_hash"] = result.config_hash
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def artifact_name(result) -> str:
    """File name of the artifact of a ScenarioResult or of its Scenario."""
    ext = "json" if result.kind == "split" else "csv"
    return f"{result.name}.{ext}"


def render_artifact(result: ScenarioResult) -> str:
    if result.kind == "split":
        return render_json(result)
    return render_csv(result)


SUMMARY_COLUMNS = ("scenario", "kind", "pass", "fail", "epsilon13",
                   "gamma0", "C", "C02")


def summary_rows(results) -> list:
    rows = []
    for res in results:
        fit = res.fitted
        rows.append((res.name, res.kind, res.npass, res.nfail,
                     fit.get("epsilon13", ""), fit.get("gamma0", ""),
                     fit.get("C", ""), fit.get("C02", "")))
    return rows


def render_summary(results) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in summary_rows(results):
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"
