"""Fourier analysis of winding profiles and their harmonic extensions.

A profile f maps [0, 2*pi*Q) into R^n and is expanded as

    f(theta) = alpha_0 + sum_i alpha_i cos(i theta / Q) + beta_i sin(i theta / Q)

so the fundamental frequency is 1/Q and mode i = Q is the one a plane tilt
can absorb.  Parseval gives

    ||f||_L2^2      = 2 pi Q (|alpha_0|^2 + 1/2 sum_i |alpha_i|^2 + |beta_i|^2)
    ||f'||_L2^2     = 2 pi Q * 1/2 sum_i (i/Q)^2 (|alpha_i|^2 + |beta_i|^2)

and the harmonic extension attaches weight r^(i/Q) to mode i.

Most stored rows of a lab profile are exactly zero (a grid curve has one
live mode out of N), so every evaluation here runs over the live modes
only: the rows i where alpha_i or beta_i has a nonzero component.  A
zero row adds nothing to any sum, so the values are those of the full
sums; a dense series is the case where every row is live.  The largest
live mode, ``top_mode``, sizes every sample count, however small it is.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .currents import ParamSurface
from .errors import LipschitzTooLarge, NonFinite, Undersampled
from .geom import rownorm
from .quadrature import trapezoid

DEFAULT_MODES_PER_Q = 64
TAIL_TOL = 1e-9


class _LiveModes(NamedTuple):
    """The live rows of a series, read-only: mode numbers i (ascending),
    frequencies i/Q and the (L, n) rows alpha_i and beta_i."""

    index: np.ndarray
    freq: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class FourierSeries:
    """Real Fourier coefficients of a profile on [0, 2*pi*Q) with values in R^n.

    alpha has shape (N+1, n) with alpha[0] the constant term; beta has shape
    (N, n) and beta[i-1] belongs to frequency i/Q.  Both are stored
    read-only, since the live-mode record is derived from them once.
    """

    Q: int
    n: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        if self.Q < 1:
            raise ValueError("Q must be a positive integer")
        if alpha.shape[1] != self.n or (beta.size and beta.shape[1] != self.n):
            raise ValueError("coefficient width must equal n")
        if beta.shape[0] != alpha.shape[0] - 1:
            raise ValueError("beta must hold exactly N rows for alpha's N+1")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise NonFinite("non-finite Fourier coefficients")
        alpha = alpha.copy()
        beta = beta.copy()
        rows = np.flatnonzero(np.any(alpha[1:] != 0, axis=1)
                              | np.any(beta != 0, axis=1))
        live = _LiveModes(rows + 1, (rows + 1) / self.Q,
                          alpha[1:].take(rows, axis=0),
                          beta.take(rows, axis=0))
        for arr in (alpha, beta) + live:
            arr.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_live", live)

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.Q

    @property
    def live_modes(self) -> np.ndarray:
        """Mode numbers i, ascending, whose alpha_i or beta_i is nonzero."""
        return self._live.index

    @property
    def top_mode(self) -> int:
        """The largest live mode, or 0 when no mode is live."""
        index = self._live.index
        return int(index[-1]) if index.size else 0

    def jet(self, theta):
        """Evaluate (f, f') at the given angles from one live-mode trig table.

        The one evaluator of the profile: each output has shape
        theta.shape + (n,), f from the cos/sin sums of the module
        docstring and f' from the same table with mode i weighted by i/Q.
        The table has one column per live mode, so a series with L live
        modes out of N costs L columns, not N.
        """
        theta = np.asarray(theta, dtype=float)
        live = self._live
        ph = theta[..., None] * live.freq
        c = np.cos(ph)
        s = np.sin(ph)
        f = c @ live.alpha + s @ live.beta + self.alpha[0]
        df = (-s * live.freq) @ live.alpha + (c * live.freq) @ live.beta
        return f, df

    def lipschitz(self) -> float:
        """Max |f'| on a dense uniform grid (spectral derivative)."""
        m = max(64, 16 * self.Q * max(self.top_mode, 1))
        theta = trapezoid(m, 0.0, self.period)[0]
        return float(np.max(rownorm(self.jet(theta)[1])))


def analyze(samples, Q: int) -> FourierSeries:
    """Fit a FourierSeries to (M, n) uniform samples on [0, 2*pi*Q).

    Keeps N = min(DEFAULT_MODES_PER_Q * Q, (M - 2) // 2) modes, so that
    M >= 2N + 2 and the fit is exact (to roundoff) for input band-limited
    to N.  Raises Undersampled if the discarded tail carries more than
    TAIL_TOL of the total L2 mass.
    """
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NonFinite("non-finite profile samples")
    M, n = samples.shape
    nmodes = min(DEFAULT_MODES_PER_Q * Q, (M - 2) // 2)
    c = np.fft.rfft(samples, axis=0) / M
    kmax = c.shape[0] - 1
    alpha = np.zeros((nmodes + 1, n))
    beta = np.zeros((nmodes, n))
    alpha[0] = c[0].real
    upto = min(nmodes, kmax)
    alpha[1:upto + 1] = 2.0 * c[1:upto + 1].real
    beta[:upto] = -2.0 * c[1:upto + 1].imag
    # discarded tail, measured against Parseval on the discrete transform
    total = np.sum(np.abs(c[0]) ** 2) + 0.5 * np.sum(np.abs(c[1:]) ** 2) * 4
    tail = 4 * 0.5 * np.sum(np.abs(c[nmodes + 1:]) ** 2) if kmax > nmodes else 0.0
    if total > 0 and tail > TAIL_TOL * total:
        raise Undersampled(
            f"truncation tail {tail:.3e} exceeds {TAIL_TOL:.1e} of total {total:.3e}")
    return FourierSeries(Q=Q, n=n, alpha=alpha, beta=beta)


def harmonic_extension(series: FourierSeries, r_out: float,
                       lip_max: float = 0.5):
    """Surface filling the winding curve of this profile at radius r_out.

    The chart is (w, theta) -> (r cos theta, r sin theta, r_out * g) with
    r = r_out * w^Q, where g attaches weight w^i to mode i (per-mode decay
    r^(i/Q)); the substitution makes every mode polynomial in w.  The
    constant term is kept constant in r.  Boundary trace at w = 1 equals
    the profile exactly.  The angle takes the trapezoid rule, spectrally
    accurate on this smooth periodic integrand, with T = 8 * top_mode
    nodes (at least 32); the radius takes Gauss-Legendre of order 32.
    Its mass sums (64, T) and checks against (64, T / 2) and (32, T / 2).

    Chart and jacobian run over the series' live modes only and
    broadcast w against theta without expanding them first, so on the
    open quadrature grid w[:, None], theta[None, :] the trig factors cost
    one evaluation per angle and live mode and the powers one per radius
    and live mode.
    """
    if r_out <= 0:
        raise ValueError("r_out must be positive")
    lip = series.lipschitz()
    if lip > lip_max:
        raise LipschitzTooLarge(f"profile Lipschitz {lip:.3f} > {lip_max}")
    Q, n = series.Q, series.n
    freqs, wfreq, alpha, beta = series._live
    const = series.alpha[0]

    def gval(w, theta):
        ph = theta[..., None] * wfreq
        rad = w[..., None] ** freqs
        return (rad * np.cos(ph)) @ alpha + (rad * np.sin(ph)) @ beta + const

    def chart(w, theta):
        w = np.asarray(w, dtype=float)
        theta = np.asarray(theta, dtype=float)
        r = r_out * w ** Q
        out = np.empty(np.broadcast_shapes(w.shape, theta.shape) + (2 + n,))
        out[..., 0] = r * np.cos(theta)
        out[..., 1] = r * np.sin(theta)
        out[..., 2:] = r_out * gval(w, theta)
        return out

    # w^i = w * w^(i-1), so both partials come from the two products
    # w^(i-1) cos and w^(i-1) sin against stacked coefficient blocks:
    # [dg/dw | (dg/dtheta) / w] = (w^(i-1) cos) @ cos_coef
    #                             + (w^(i-1) sin) @ sin_coef
    cos_coef = np.hstack([freqs[:, None] * alpha, wfreq[:, None] * beta])
    sin_coef = np.hstack([freqs[:, None] * beta, -wfreq[:, None] * alpha])

    def jac(w, theta):
        w = np.asarray(w, dtype=float)
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(w.shape, theta.shape)
        r = r_out * w ** Q
        dr = r_out * Q * w ** (Q - 1)
        ph = theta[..., None] * wfreq
        wpow = w[..., None] ** (freqs - 1)
        dg = (wpow * np.cos(ph)) @ cos_coef + (wpow * np.sin(ph)) @ sin_coef
        xu = np.empty(shape + (2 + n,))
        xv = np.empty(shape + (2 + n,))
        xu[..., 0] = dr * np.cos(theta)
        xu[..., 1] = dr * np.sin(theta)
        xu[..., 2:] = r_out * dg[..., :n]
        xv[..., 0] = -r * np.sin(theta)
        xv[..., 1] = r * np.cos(theta)
        xv[..., 2:] = r_out * w[..., None] * dg[..., n:]
        return xu, xv

    order = (32, max(32, 8 * max(series.top_mode, 1)))
    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi * Q),
                        jacobian=jac, order=order)
