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
        peak = np.maximum(np.abs(self.alpha[1:]).max(axis=1, initial=0.0),
                          np.abs(self.beta).max(axis=1, initial=0.0))
        active = np.flatnonzero(peak > tol)
        return int(active[-1]) + 1 if active.size else 0

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

    def jet(self, theta):
        """Evaluate (f, f') at the given angles from one trig table.

        Same arithmetic as ``synthesize`` and ``derivative``, so the
        results agree with theirs bit for bit.
        """
        ph = self._phases(theta)
        c = np.cos(ph)
        s = np.sin(ph)
        w = np.arange(1, self.nmodes + 1) / self.Q
        f = c @ self.alpha[1:] + s @ self.beta + self.alpha[0]
        df = (-s * w) @ self.alpha[1:] + (c * w) @ self.beta
        return f, df

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

    # w^i = w * w^(i-1), so both partials come from the two products
    # w^(i-1) cos and w^(i-1) sin against stacked coefficient blocks:
    # [dg/dw | (dg/dtheta) / w] = (w^(i-1) cos) @ cos_coef
    #                             + (w^(i-1) sin) @ sin_coef
    wfreq = freqs / Q
    cos_coef = np.hstack([freqs[:, None] * alpha[1:], wfreq[:, None] * beta])
    sin_coef = np.hstack([freqs[:, None] * beta, -wfreq[:, None] * alpha[1:]])

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

    if order is None:
        order = (32, max(32, 8 * max(series.max_active_frequency(1e-14), 1)))
    return GridSurface(
        chart, (0.0, 1.0, 0.0, 2.0 * np.pi * Q), jacobian=jac,
        order=order, radial_axis=0)
