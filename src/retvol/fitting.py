"""Weighted least-squares fits of correlation decay and exponent curves.

Three models are supported:

* ``power_law``     y = kappa * x^(-gamma)        params (kappa, gamma)
* ``exponential``   y = alpha * exp(-x / tau)     params (alpha, tau)
* ``quadratic``     y = a * x^2 + b * x + c       params (a, b, c)

The two decay models are linear in their amplitude, so they are fitted
by variable projection (Golub & Pereyra 1973): y = c * g(x; theta) with
theta = gamma or log(tau), g normalised to 1 at the smallest fitted x,
and c = sum(w^2 g y) / sum(w^2 g^2) in closed form for each theta. That
leaves chi^2 = sum ((y_i - f(x_i)) / sigma_i)^2 a function of theta
alone; its minimum is the root of the analytic d chi^2 / d theta, found
by Brent's method inside a fixed bracket. An optimum on an edge of the
bracket (increasing data have tau = +infinity, for example) raises
NoConvergence with the last iterate attached. The quadratic is solved in
closed form by weighted normal equations.

Parameter uncertainties follow the asymptotic-standard-error convention:
the covariance is the inverse weighted normal matrix at the optimum
scaled by the reduced chi^2, so errors are invariant under a common
rescaling of all sigmas.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InsufficientPoints, MissingSigmas, NoConvergence,
                     NonPositiveData, NonPositiveSigma, RangeMismatch,
                     SingularNormalMatrix, WrongModel)

POWER_LAW = "power_law"
EXPONENTIAL = "exponential"
QUADRATIC = "quadratic"

_TIE_TOL = 1e-12

PARAM_NAMES = {
    POWER_LAW: ("kappa", "gamma"),
    EXPONENTIAL: ("alpha", "tau"),
    QUADRATIC: ("alpha", "beta", "rho"),
}


@dataclass
class FitPoints:
    """Arrays of weighted points; the unit every fitter consumes."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if not (len(self.x) == len(self.y) == len(self.sigma)):
            raise ValueError("x, y, sigma must have equal length")
        if np.any(self.sigma <= 0):
            raise NonPositiveSigma("all sigmas must be > 0")

    def __len__(self):
        return len(self.x)


@dataclass
class FitResult:
    model: str
    params: np.ndarray
    param_errors: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    fit_range: tuple
    n_points: int
    excluded_x: list = field(default_factory=list)
    n_iterations: int = 0  # evaluations of d chi^2 / d theta

    @property
    def param_names(self):
        return PARAM_NAMES[self.model]


@dataclass
class ModelComparison:
    """Reduced chi^2 of two fits over identical points; lower wins."""

    model_a: str
    model_b: str
    chi2red_a: float
    chi2red_b: float
    winner: str | None

    @property
    def inconclusive(self):
        return self.winner is None


def fit_points_from_profile(profile, lag_lo, lag_hi, sigma_filter=None):
    """Positive-lag fit input (j, -CC_d(j), sigma_jk) from a profile.

    sigma_filter = s additionally drops points consistent with zero
    within s sigmas, mirroring the plot filter; by default fits use
    every positive-lag point in range.
    """
    if profile.sigmas is None:
        raise MissingSigmas("profile has no jackknife sigmas")
    mask = (profile.lags >= lag_lo) & (profile.lags <= lag_hi) & (profile.lags > 0)
    if sigma_filter is not None:
        mask &= np.abs(profile.values) > sigma_filter * profile.sigmas
    return FitPoints(profile.lags[mask].astype(np.float64),
                     -profile.values[mask], profile.sigmas[mask])


# ---------------------------------------------------------------------------
# variable projection

# search brackets: gamma, and tau over the span of the fitted x; an
# optimum on an edge means the data do not decay that way. The lower tau
# edge keeps g above 0 at every x, so d chi^2 / d theta is never flat 0.
GAMMA_BRACKET = (-10.0, 10.0)
TAU_SPAN_BRACKET = (2e-3, 1e4)
THETA_TOL = 1e-12
_EPS = np.finfo(float).eps


def _zeroin(h, a, b, ha, hb, tol=THETA_TOL):
    """Root of h in [a, b] given h(a) < 0 < h(b), by Brent's method
    (Brent 1973, ch. 4): inverse quadratic or secant steps that stay
    inside the sign-change bracket, else bisection. The bracket keeps
    h < 0 on its left, so the root found has h rising through 0.
    Returns (root, evaluations)."""
    c, hc = a, ha
    d = e = b - a
    evals = 0
    while True:
        if (hb > 0.0) == (hc > 0.0):
            c, hc = a, ha
            d = e = b - a
        if abs(hc) < abs(hb):
            a, b, c = b, c, b
            ha, hb, hc = hb, hc, hb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or hb == 0.0:
            return b, evals
        if abs(e) >= tol1 and abs(ha) > abs(hb):
            s = hb / ha
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = ha / hc, hb / hc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, ha = b, hb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        hb = h(b)
        evals += 1


def _covariance(jw, chi2, n, n_params, context):
    dof = n - n_params
    chi2red = chi2 / dof if dof > 0 else 0.0
    a = jw.T @ jw
    try:
        cov = np.linalg.inv(a) * chi2red
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix(f"{context}: singular normal matrix") from None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.diag(cov) >= 0.0):  # inverted in rounding noise
        raise SingularNormalMatrix(f"{context}: normal matrix singular to "
                                   "working precision")
    return cov, chi2red


def _fit_decay(model, points, fit_range):
    lo, hi = fit_range
    in_range = (points.x >= lo) & (points.x <= hi)
    if int(in_range.sum()) < 3:
        raise InsufficientPoints(
            f"{int(in_range.sum())} points in range [{lo}, {hi}], need >= 3")
    positive = in_range & (points.y > 0)
    excluded = points.x[in_range & ~(points.y > 0)]
    if int(positive.sum()) < 3:
        raise NonPositiveData(excluded)

    x = points.x[positive]
    y = points.y[positive]
    sigma = points.sigma[positive]
    if model == POWER_LAW and np.any(x <= 0):
        raise ValueError("power-law fit requires x > 0")
    w = 1.0 / sigma
    wy = w * y

    # y = c * g(x; theta) with g = exp(-rate(theta) * u) and u = 0 at the
    # smallest x, so g is 1 there whatever theta is
    x0 = float(x.min())
    if model == POWER_LAW:
        bracket, u = GAMMA_BRACKET, np.log(x) - math.log(x0)

        def rate(theta):  # (rate, d rate / d theta)
            return theta, 1.0
    else:
        u = x - x0
        span = float(u.max()) or 1.0  # x all equal: g is flat, edge ahead
        bracket = tuple(math.log(v * span) for v in TAU_SPAN_BRACKET)

        def rate(theta):
            s = math.exp(-theta)
            return s, -s

    def project(theta):
        """(c, w g, weighted residual) at theta, with the best amplitude
        c = sum(w^2 g y) / sum(w^2 g^2)."""
        wg = w * np.exp(-rate(theta)[0] * u)
        c = (wg @ wy) / (wg @ wg)
        return c, wg, wy - c * wg

    def slope(theta):
        """d chi^2 / d theta divided by 2c > 0 (variable projection)."""
        _, wg, r = project(theta)
        return rate(theta)[1] * ((u * wg) @ r)

    h_lo, h_hi = slope(bracket[0]), slope(bracket[1])
    if h_lo < 0.0 < h_hi:
        theta, evals = _zeroin(slope, *bracket, h_lo, h_hi)
    else:
        theta, evals = bracket[0 if h_lo >= 0.0 else 1], 0
    c, wg, r = project(theta)
    chi2 = float(r @ r)
    evals += 2
    f = c * wg / w
    b = theta if model == POWER_LAW else math.exp(theta)
    try:
        a = c * (x0 ** b if model == POWER_LAW else math.exp(x0 / b))
    except OverflowError:
        a = math.inf
    p = np.array([a, b])
    last = {"params": p, "chi2": chi2, "iterations": evals}
    if theta in bracket:
        raise NoConvergence(
            f"{model}: optimum on the edge of the search bracket "
            f"[{bracket[0]:.6g}, {bracket[1]:.6g}]", last_result=last)
    if not 0.0 < a < math.inf:
        raise NoConvergence(f"{model}: amplitude outside the float range",
                            last_result=last)
    dfdb = -f * np.log(x) if model == POWER_LAW else f * x / (b * b)
    jw = np.column_stack((f / a, dfdb)) * w[:, None]
    try:
        cov, chi2red = _covariance(jw, chi2, len(x), 2, model)
    except SingularNormalMatrix:
        raise NoConvergence(f"{model}: normal matrix singular at the optimum",
                            last_result=last) from None
    return FitResult(model, p, np.sqrt(np.diag(cov)), cov, chi2red,
                     (lo, hi), len(x), excluded_x=[float(v) for v in excluded],
                     n_iterations=evals)


def fit_power_law(points, fit_range=(1, 200)):
    """Fit y = kappa * x^(-gamma) over x in `fit_range`.

    Points with y <= 0 inside the range are excluded from the chi^2 sum
    and recorded on the result; at least 3 positive points must remain.

    Returns
    -------
    FitResult
        params = (kappa, gamma), chi^2-scaled asymptotic errors.

    Raises
    ------
    InsufficientPoints, NonPositiveData, NoConvergence
    """
    return _fit_decay(POWER_LAW, points, fit_range)


def fit_exponential(points, fit_range=(1, 200)):
    """Fit y = alpha * exp(-x / tau); conventions as `fit_power_law`."""
    return _fit_decay(EXPONENTIAL, points, fit_range)


def fit_quadratic_gamma(points):
    """Weighted closed-form fit of y = alpha x^2 + beta x + rho.

    Used for the exponent curve gamma(d); sigmas are the asymptotic
    errors of the per-d power-law exponents. Solved by the weighted
    normal equations; covariance follows the same chi^2-scaled
    convention as the nonlinear fits.
    """
    n = len(points)
    if n < 3:
        raise InsufficientPoints(f"{n} points, quadratic needs >= 3")
    x, y, sigma = points.x, points.y, points.sigma
    w = 1.0 / sigma
    design = np.column_stack((x * x, x, np.ones_like(x)))
    dw = design * w[:, None]
    yw = y * w
    a = dw.T @ dw
    b = dw.T @ yw
    try:
        p = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix("quadratic normal equations singular") from None
    resid = yw - dw @ p
    chi2 = float(resid @ resid)
    cov, chi2red = _covariance(dw, chi2, n, 3, QUADRATIC)
    return FitResult(QUADRATIC, p, np.sqrt(np.diag(cov)), cov, chi2red,
                     (float(x.min()), float(x.max())), n)


def compare_models(a, b):
    """Rank two fits of the same data by reduced chi^2.

    Raises RangeMismatch unless both fits used the same range and point
    count. Ties within 1e-12 are inconclusive (winner None).
    """
    if a.fit_range != b.fit_range or a.n_points != b.n_points:
        raise RangeMismatch(
            f"fit ranges differ: {a.model} {a.fit_range}/{a.n_points} pts "
            f"vs {b.model} {b.fit_range}/{b.n_points} pts")
    if abs(a.reduced_chi2 - b.reduced_chi2) <= _TIE_TOL:
        winner = None
    elif a.reduced_chi2 < b.reduced_chi2:
        winner = a.model
    else:
        winner = b.model
    return ModelComparison(a.model, b.model, a.reduced_chi2, b.reduced_chi2,
                           winner)


def long_range_flag(fit):
    """True when the power-law exponent indicates long-range decay (gamma < 1)."""
    if fit.model != POWER_LAW:
        raise WrongModel(f"long-range test needs a power-law fit, got {fit.model}")
    return bool(fit.params[1] < 1.0)
