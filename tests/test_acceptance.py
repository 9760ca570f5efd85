"""End-to-end acceptance suite.

Each test is one certificate over a whole family of inputs and prints a
single PASS/FAIL line with its measured margin.  Tolerances are fixed
here on purpose; loosening them is a library regression, not a test
problem.
"""

import json

import numpy as np
import pytest

from tclab.calibration import Bump, spherical_cap
from tclab.cli import main
from tclab.currents import cone_chart, curve_mass
from tclab.decomposition import split_current
from tclab.epiperimetric import epiperimetric_gap, mode_ratio, optimal_plane
from tclab.flat import radial_homotopy_filling
from tclab.fourier import FourierSeries, harmonic_extension
from tclab.monotonicity import (DecayConstants, deviation_integral,
                                fit_decay, mass_profile,
                                synthesize_decay_profile)
from tclab.scenarios import (Scenario, extension_surface,
                             orthogonal_planes_instance, random_epi_curve,
                             run_scenario, single_mode_curve)

from oracles import (first_variation_pair, normalize_to_sphere,
                     random_link_curve, solid_angle_form)


def verdict(ok: bool, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def fold(worst: float, value, pick=max) -> float:
    """``pick(worst, value)`` for a value that must be finite.

    A bare ``max(0.0, nan)`` is 0.0, so a NaN margin would vanish from the
    worst case instead of failing the certificate.
    """
    value = float(value)
    assert np.isfinite(value), f"non-finite value {value!r} in a worst case"
    return pick(worst, value)


def test_01_cone_mass_halves_link_length():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        link = normalize_to_sphere(random_link_curve(rng))
        length = curve_mass(link)
        err = abs(cone_chart(link).mass() - 0.5 * length) / length
        worst = fold(worst, err)
    verdict(worst <= 1e-8, "01 cone mass vs link length",
            f"worst relative gap {worst:.3e} <= 1e-08 over 50 links")


def test_02_gap_ratios_match_and_stay_below_threshold():
    worst_dev = 0.0
    min_eps13 = 1.0
    for Q in (1, 2, 3):
        for ratio in (2, 3, 4):
            for amp in (1e-3, 1e-2):
                v = epiperimetric_gap(single_mode_curve(Q, ratio * Q, amp))
                worst_dev = fold(worst_dev,
                                 abs(v.ratio - mode_ratio(float(ratio))))
                min_eps13 = fold(min_eps13, 1.0 - v.ratio, min)
    rng = np.random.default_rng(2202)
    worst_random = 0.0
    for _ in range(200):
        v = epiperimetric_gap(random_epi_curve(rng))
        worst_random = fold(worst_random, v.ratio)
    ok = worst_dev <= 0.05 and min_eps13 >= 0.15 and worst_random <= 0.95
    verdict(ok, "02 epiperimetric gap ratios",
            f"grid |ratio - 2a/(1+a^2)| <= {worst_dev:.2e} (tol 0.05), "
            f"min eps13 {min_eps13:.5f} >= 0.15, "
            f"200 random ratios <= {worst_random:.5f} (cap 0.95)")


def test_03_pure_mode_q_is_a_tilted_plane():
    worst = 0.0
    for Q in (1, 2, 3):
        for eps in (1e-2, 1e-3):
            rep = optimal_plane(single_mode_curve(Q, Q, eps))
            worst = fold(worst, rep.excess / (10.0 * eps ** 4))
    verdict(worst <= 1.0, "03 mode-Q absorption",
            f"max optimal excess / (10 eps^4) = {worst:.3e} <= 1")


def test_04_first_variation_converges_second_order():
    rng = np.random.default_rng(20250818)
    form = solid_angle_form()
    slopes = []
    for _ in range(20):
        R = rng.uniform(0.7, 1.7)
        ph0 = rng.uniform(0.15, 0.9)
        ph1 = min(ph0 + rng.uniform(1.0, 1.9), 2.9)
        cap = spherical_cap(R, ph0, ph1, order=(128, 256))
        frac = rng.uniform(0.35, 0.65)
        mid = ph0 + frac * (ph1 - ph0)
        az = rng.uniform(0.0, 2.0 * np.pi)
        margin = min(mid - ph0, ph1 - mid)
        brad = min(0.85 * R * 2.0 * np.sin(margin / 2.0), 0.5 * R)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        center = cap.points(np.array(mid), np.array(az))
        chi = Bump(center, brad, direction, power=10)
        report = first_variation_pair(cap, form, chi,
                                      steps=(1e-2, 1e-3, 1e-4))
        slopes.append(report.slope)
    low = min(slopes)
    verdict(low >= 1.9, "04 first-variation step convergence",
            f"min fitted slope {low:.3f} >= 1.9 over 20 sphere patches")


def _random_graph_series(rng):
    Q = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))
    nmodes = int(rng.integers(2, 4))
    pool = np.arange(Q + 1, 4 * Q + 1)
    modes = rng.choice(pool, size=min(nmodes, pool.size), replace=False)
    col = int(rng.integers(0, n))
    N = int(modes.max())
    alpha = np.zeros((N + 1, n))
    beta = np.zeros((N, n))
    for i in modes:
        alpha[i, col] = rng.normal()
        beta[i - 1, col] = rng.normal()
    series = FourierSeries(Q=Q, n=n, alpha=alpha, beta=beta)
    target = 0.08 * rng.uniform(0.4, 1.0)
    scale = target / series.lipschitz()
    return FourierSeries(Q=Q, n=n, alpha=alpha * scale,
                         beta=beta * scale), Q


def test_05_monotonicity_constant_is_uniform():
    rng = np.random.default_rng(515)
    radii = 0.4 * 2.0 ** -np.arange(5, -1, -1.0)
    constants = DecayConstants(epsilon12=0.1, alpha0=1.0)
    worst_c = 0.0
    infeasible = 0
    for _ in range(20):
        series, Q = _random_graph_series(rng)
        surf = harmonic_extension(series, 1.0)
        slabs = [deviation_integral(surf, s, r)
                 for s, r in zip(radii[:-1], radii[1:])]
        report = fit_decay(mass_profile(surf, radii, Q), constants, slabs)
        worst_c = fold(worst_c, report.c02)
        infeasible += len(report.infeasible)
    cone_dev = 0.0
    cone_gap = 0.0
    for seed in (1, 2, 3):
        link = normalize_to_sphere(random_link_curve(
            np.random.default_rng(seed)))
        cone = cone_chart(link)
        excess = mass_profile(cone, radii, link.Q).excess()
        for j in range(radii.size - 1):
            cone_dev = fold(cone_dev,
                            deviation_integral(cone, radii[j], radii[j + 1]))
            cone_gap = fold(cone_gap, abs(excess[j + 1] - excess[j]))
    ok = (worst_c <= 10.0 and infeasible == 0
          and cone_dev <= 1e-9 and cone_gap <= 1e-9)
    verdict(ok, "05 almost-monotonicity constant",
            f"max fitted C {worst_c:.3e} <= 10 over 20 graphs "
            f"({infeasible} infeasible pairs); exact cones: deviation "
            f"{cone_dev:.1e}, excess gap {cone_gap:.1e} (both <= 1e-09)")


def test_06_decay_envelopes_close():
    constants = DecayConstants(epsilon12=0.1, cbar=0.5, eps=0.5)
    radii = 2.0 ** -np.arange(9, -1, -1.0)
    profile = synthesize_decay_profile(constants, e0=1e-2, r0=1.0,
                                       radii=radii)
    report = fit_decay(profile, constants)
    target = constants.a * constants.cbar / (constants.eps * np.pi)
    ode_rel = abs(report.c - target) / target

    loose = DecayConstants(epsilon12=0.1)
    worst_exp = 0.0
    ext_ok = True
    for Q, i, amp in ((1, 2, 1e-2), (2, 5, 5e-3), (3, 7, 5e-3)):
        surf = extension_surface(Q, i, amp)
        prof = mass_profile(surf, radii * 0.4, Q)
        env = fit_decay(prof, loose)
        ext_ok = ext_ok and env.passed and np.isfinite(env.c)
        k, _ = np.polyfit(np.log(prof.radii), np.log(prof.excess()), 1)
        want = 2.0 * (i / Q - 1.0)
        worst_exp = fold(worst_exp, abs(k - want) / want)
    ok = report.passed and ode_rel <= 0.05 and ext_ok and worst_exp <= 0.05
    verdict(ok, "06 excess decay envelopes",
            f"rate-equation C within {ode_rel:.2%} of closed form "
            f"(tol 5%); extension exponents within {worst_exp:.2%} of "
            "2(i/Q - 1) (tol 5%)")


def test_07_radial_filling_scales_with_positive_power():
    surf = extension_surface(1, 2, 1e-2)
    outer = 0.2 * 2.0 ** -np.arange(4, dtype=float)
    bounds = np.array([radial_homotopy_filling(surf, r / 2.0, r)
                       for r in outer])
    kappa, logc = np.polyfit(np.log(outer), np.log(bounds), 1)
    c_fit = np.exp(logc)
    envelope_ok = bool(np.all(bounds <= c_fit * outer ** kappa
                              * (1.0 + 1e-6)))
    pair = np.log2(bounds[:-1] / bounds[1:])
    spread = float(pair.max() - pair.min())
    ok = kappa > 0 and spread <= 1e-3 and envelope_ok
    verdict(ok, "07 radial homotopy filling",
            f"fitted kappa {kappa:.6f} > 0, dyadic slope spread "
            f"{spread:.1e} <= 1e-03, bound <= {c_fit:.3e} * r^kappa")


def test_08_minimality_probes_pass_on_calibrated_surfaces():
    disk = run_scenario(Scenario(
        name="disk", kind="calib", seed=401,
        params={"surface": "disk", "omega": 0.0, "probes": 100,
                "eps": [0.05], "bump_power": 10}))
    equator = run_scenario(Scenario(
        name="equator", kind="calib", seed=402,
        params={"surface": "equator", "omega": 3.0, "probes": 100,
                "eps": [0.05], "bump_power": 10}))
    slack_col = disk.columns.index("slack")
    disk_min = min(row[slack_col] for row in disk.rows)
    ok = (disk.nfail == 0 and disk.npass == 100 and disk_min >= 0.0
          and equator.nfail == 0 and equator.npass == 100)
    verdict(ok, "08 almost-minimality probes",
            f"flat disk 100/100 with min slack {disk_min:.2e} >= 0 at "
            f"Omega 0; equator 100/100 at Omega 3")


def test_09_orthogonal_planes_split_exactly():
    curves = orthogonal_planes_instance(Q_list=(1, 2))
    planes = [c.plane() for c in curves]
    result = split_current(curves, planes, width=0.05)
    leak = abs(result.total_mass - sum(result.masses))
    ok = (result.passed
          and sum(result.multiplicities) == sum(c.curve.Q for c in curves)
          and result.multiplicities == [1, 2] and leak <= 1e-9)
    verdict(ok, "09 plane splitting",
            f"multiplicities {result.multiplicities} sum to total winding, "
            f"mass leak {leak:.1e} <= 1e-09")


def test_10_runs_are_reproducible(tmp_path):
    config = {"scenarios": [
        {"name": "epi_tiny", "kind": "epi", "seed": 17,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [1e-2],
                    "random": 3}},
        {"name": "split_tiny", "kind": "split", "seed": 18,
         "params": {"Q": [1, 2], "width": 0.05}}]}
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append({f.name: f.read_bytes()
                     for f in sorted(out.iterdir())})
    same = outs[0] == outs[1]
    names = sorted(outs[0])
    verdict(same, "10 reproducibility",
            f"two runs produced byte-identical artifacts {names}")
