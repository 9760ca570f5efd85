"""Fourier analysis of winding profiles and their harmonic extensions.

A profile f maps [0, 2*pi*Q) into R^n and is expanded as

    f(theta) = alpha_0 + sum_i alpha_i cos(i theta / Q) + beta_i sin(i theta / Q)

so the fundamental frequency is 1/Q and mode i = Q is the one a plane tilt
can absorb.  Parseval gives

    ||f||_L2^2      = 2 pi Q (|alpha_0|^2 + 1/2 sum_i |alpha_i|^2 + |beta_i|^2)
    ||f'||_L2^2     = 2 pi Q * 1/2 sum_i (i/Q)^2 (|alpha_i|^2 + |beta_i|^2)

and the harmonic extension attaches weight r^(i/Q) to mode i.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LipschitzTooLarge, NonFinite, Undersampled

DEFAULT_MODES_PER_Q = 64
TAIL_TOL = 1e-9


@dataclass(frozen=True)
class FourierSeries:
    """Real Fourier coefficients of a profile on [0, 2*pi*Q) with values in R^n.

    alpha has shape (N+1, n) with alpha[0] the constant term; beta has shape
    (N, n) and beta[i-1] belongs to frequency i/Q.
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
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def nmodes(self) -> int:
        """Largest stored frequency index N."""
        return self.alpha.shape[0] - 1

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.Q

    def max_active_frequency(self, tol: float = 0.0) -> int:
        """Largest i whose coefficient pair is (strictly) above tol."""
        N = self.nmodes
        for i in range(N, 0, -1):
            a = np.max(np.abs(self.alpha[i]))
            b = np.max(np.abs(self.beta[i - 1]))
            if max(a, b) > tol:
                return i
        return 0

    def _phases(self, theta):
        theta = np.asarray(theta, dtype=float)
        i = np.arange(1, self.nmodes + 1)
        return theta[..., None] * (i / self.Q)

    def synthesize(self, theta) -> np.ndarray:
        """Evaluate f at the given angles; output shape theta.shape + (n,)."""
        ph = self._phases(theta)
        out = np.cos(ph) @ self.alpha[1:] + np.sin(ph) @ self.beta
        return out + self.alpha[0]

    def derivative(self, theta) -> np.ndarray:
        """Evaluate f' at the given angles."""
        ph = self._phases(theta)
        w = np.arange(1, self.nmodes + 1) / self.Q
        return (-np.sin(ph) * w) @ self.alpha[1:] + (np.cos(ph) * w) @ self.beta

    def lipschitz(self, samples: int = 0) -> float:
        """Max |f'| on a dense uniform grid (spectral derivative)."""
        m = samples or max(64, 16 * self.Q * max(self.max_active_frequency(), 1))
        theta = np.arange(m) * (self.period / m)
        return float(np.max(np.linalg.norm(self.derivative(theta), axis=-1)))


def analyze(samples, Q: int, nmodes: int | None = None,
            tail_tol: float = TAIL_TOL) -> FourierSeries:
    """Fit a FourierSeries to M uniform samples on [0, 2*pi*Q).

    Exact (to roundoff) for band-limited input with M >= 2N + 2.  Raises
    Undersampled if M cannot support the requested mode count and
    ValueError if the discarded tail carries more than ``tail_tol`` of the
    total L2 mass.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if not np.all(np.isfinite(samples)):
        raise NonFinite("non-finite profile samples")
    M, n = samples.shape
    limit = (M - 2) // 2
    if nmodes is None:
        nmodes = min(DEFAULT_MODES_PER_Q * Q, limit)
    if M < 2 * nmodes + 2:
        raise Undersampled(f"{M} samples cannot resolve {nmodes} modes")
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
    if total > 0 and tail > tail_tol * total:
        raise ValueError(
            f"truncation tail {tail:.3e} exceeds {tail_tol:.1e} of total {total:.3e}")
    return FourierSeries(Q=Q, n=n, alpha=alpha, beta=beta)


def project_modeq(series: FourierSeries) -> FourierSeries:
    """Keep only the frequency-Q part, the one a plane tilt absorbs."""
    alpha = np.zeros_like(series.alpha)
    beta = np.zeros_like(series.beta)
    if series.nmodes >= series.Q:
        alpha[series.Q] = series.alpha[series.Q]
        beta[series.Q - 1] = series.beta[series.Q - 1]
    return FourierSeries(series.Q, series.n, alpha, beta)


def drop_modeq(series: FourierSeries) -> FourierSeries:
    """Complement of project_modeq: everything except frequency Q."""
    alpha = series.alpha.copy()
    beta = series.beta.copy()
    if series.nmodes >= series.Q:
        alpha[series.Q] = 0.0
        beta[series.Q - 1] = 0.0
    return FourierSeries(series.Q, series.n, alpha, beta)


def sobolev_norm(series: FourierSeries):
    """Return (L2 norm, W12 norm) computed from the coefficients."""
    twopiq = series.period
    a2 = np.sum(series.alpha[1:] ** 2, axis=1)
    b2 = np.sum(series.beta ** 2, axis=1)
    l2sq = twopiq * (np.sum(series.alpha[0] ** 2) + 0.5 * np.sum(a2 + b2))
    w = (np.arange(1, series.nmodes + 1) / series.Q) ** 2
    d2sq = twopiq * 0.5 * np.sum(w * (a2 + b2))
    return float(np.sqrt(l2sq)), float(np.sqrt(l2sq + d2sq))


def harmonic_extension(series: FourierSeries, r_out: float,
                       lip_max: float = 0.5, order=None):
    """Surface filling the winding curve of this profile at radius r_out.

    The chart is (w, theta) -> (r cos theta, r sin theta, r_out * g) with
    r = r_out * w^Q, where g attaches weight w^i to mode i (per-mode decay
    r^(i/Q)); the substitution makes every mode polynomial in w.  The
    constant term is kept constant in r.  Boundary trace at w = 1 equals
    the profile exactly.

    Chart and jacobian broadcast w against theta without expanding them
    first, so on the open quadrature grid w[:, None], theta[None, :] the
    trig factors cost one evaluation per angle and mode and the powers one
    per radius and mode.
    """
    from .currents import GridSurface

    if r_out <= 0:
        raise ValueError("r_out must be positive")
    lip = series.lipschitz()
    if lip > lip_max:
        raise LipschitzTooLarge(f"profile Lipschitz {lip:.3f} > {lip_max}")
    Q, n = series.Q, series.n
    N = series.nmodes
    alpha, beta = series.alpha, series.beta
    freqs = np.arange(1, N + 1)

    def gval(w, theta):
        ph = theta[..., None] * (freqs / Q)
        rad = w[..., None] ** freqs
        return (rad * np.cos(ph)) @ alpha[1:] + (rad * np.sin(ph)) @ beta + alpha[0]

    def chart(w, theta):
        w = np.asarray(w, dtype=float)
        theta = np.asarray(theta, dtype=float)
        r = r_out * w ** Q
        out = np.empty(np.broadcast_shapes(w.shape, theta.shape) + (2 + n,))
        out[..., 0] = r * np.cos(theta)
        out[..., 1] = r * np.sin(theta)
        out[..., 2:] = r_out * gval(w, theta)
        return out

    def jac(w, theta):
        w = np.asarray(w, dtype=float)
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(w.shape, theta.shape)
        r = r_out * w ** Q
        dr = r_out * Q * w ** (Q - 1)
        ph = theta[..., None] * (freqs / Q)
        radp = freqs * w[..., None] ** (freqs - 1)
        dg_dw = (radp * np.cos(ph)) @ alpha[1:] + (radp * np.sin(ph)) @ beta
        rad = w[..., None] ** freqs
        wfreq = freqs / Q
        dg_dth = (-rad * np.sin(ph) * wfreq) @ alpha[1:] \
            + (rad * np.cos(ph) * wfreq) @ beta
        xu = np.empty(shape + (2 + n,))
        xv = np.empty(shape + (2 + n,))
        xu[..., 0] = dr * np.cos(theta)
        xu[..., 1] = dr * np.sin(theta)
        xu[..., 2:] = r_out * dg_dw
        xv[..., 0] = -r * np.sin(theta)
        xv[..., 1] = r * np.cos(theta)
        xv[..., 2:] = r_out * dg_dth
        return xu, xv

    if order is None:
        order = (32, max(32, 8 * max(series.max_active_frequency(1e-14), 1)))
    return GridSurface(
        chart, (0.0, 1.0, 0.0, 2.0 * np.pi * Q), jacobian=jac,
        order=order, radial_axis=0)
