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
by Brent's method with Newton steps inside a fixed bracket. An optimum
on an edge of the bracket (increasing data have tau = +infinity, for
example) raises NoConvergence with the last iterate attached. The
quadratic is solved in closed form by weighted normal equations.

Parameter uncertainties follow the asymptotic-standard-error convention:
the covariance is the inverse weighted normal matrix at the optimum
scaled by the reduced chi^2, so errors are invariant under a common
rescaling of all sigmas.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InsufficientPoints, LengthMismatch, MissingSigmas,
                     NoConvergence, NonPositiveData, NonPositiveSigma,
                     NonPositiveX, RangeMismatch, SingularNormalMatrix,
                     WrongModel)

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
            raise LengthMismatch("x, y, sigma must have equal length")
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

    sigma_filter = s additionally drops points with |cc| <= s * sigma,
    those consistent with zero within s sigmas (s = 0 drops cc = 0 only,
    whatever the sigma); by default fits use every positive-lag point in
    range.
    """
    if profile.sigmas is None:
        raise MissingSigmas("profile has no jackknife sigmas")
    mask = (profile.lags >= lag_lo) & (profile.lags <= lag_hi) & (profile.lags > 0)
    if sigma_filter is not None:
        # 0 * an infinite sigma would be NaN, which drops the point
        bound = sigma_filter * profile.sigmas if sigma_filter else 0.0
        mask &= np.abs(profile.values) > bound
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

# how the decay fits are made, as fits.json records it
FIT_PROVENANCE = {
    "objective": "weighted least squares, chi2 = sum(((y - f(x)) / sigma)^2)",
    "optimizer": "variable projection: y = c * g(x; theta), g = 1 at the "
                 "smallest fitted x, c = sum(w^2 g y) / sum(w^2 g^2) in "
                 "closed form; theta = gamma or log(tau) is the root of "
                 "d chi2 / d theta found by Brent's method with Newton steps",
    "initial_guess": "none: theta is bracketed, an optimum on an edge "
                     "is a failed fit",
    "convergence": {"gamma_bracket": list(GAMMA_BRACKET),
                    "tau_over_x_span_bracket": list(TAU_SPAN_BRACKET),
                    "theta_abs_tol": THETA_TOL},
    "error_convention": "asymptotic standard errors: covariance = "
                        "inv(J'WJ) * reduced_chi2",
    "nonpositive_y": "excluded from the chi2 sum and counted",
}


def _zeroin(h, a, b, ha, hb, tol=THETA_TOL):
    """Root of h in [a, b] given h(a) < 0 < h(b), by Brent's method
    (Brent 1973, ch. 4) with a Newton step, from the newest best point,
    where it lands in the sign-change bracket; one within tolerance ends
    the search. h returns, and ha and hb are, (h, h') pairs. The bracket
    keeps h < 0 on its left, so the root found has h rising through 0.
    Returns (root, evaluations)."""
    (ha, _), (hb, db) = ha, hb
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
            db = 0.0  # no Newton step from an older point
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or hb == 0.0:
            return b, evals
        if db and 0.0 < -hb / db / m < 1.0:
            if abs(hb / db) <= tol1:
                return b - hb / db, evals
            e, d = d, -hb / db
        elif abs(e) >= tol1 and abs(ha) > abs(hb):
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
        hb, db = h(b)
        evals += 1


def _fit_decay(model, points, fit_range):
    lo, hi = fit_range
    in_range = (points.x >= lo) & (points.x <= hi)
    n_in = int(np.count_nonzero(in_range))
    if n_in < 3:
        raise InsufficientPoints(
            f"{n_in} points in range [{lo}, {hi}], need >= 3")
    positive = points.y > 0
    excluded = points.x[in_range & ~positive]
    positive &= in_range
    if n_in - len(excluded) < 3:
        raise NonPositiveData(excluded.tolist())

    x = points.x[positive]
    y = points.y[positive]
    w = 1.0 / points.sigma[positive]
    if model == POWER_LAW and np.any(x <= 0):
        raise NonPositiveX("power-law fit requires x > 0")

    # y = c * g(x; theta) with g = exp(-rate u) and u = 0 at the smallest
    # x, so g is 1 there whatever theta is; rate = theta or exp(-theta)
    x0 = float(x.min())
    if model == POWER_LAW:
        bracket, u = GAMMA_BRACKET, np.log(x) - math.log(x0)
    else:
        u = x - x0
        span = float(u.max()) or 1.0  # x all equal: g is flat, edge ahead
        bracket = tuple(math.log(v * span) for v in TAU_SPAN_BRACKET)
    # with c = sum(w^2 g y) / sum(w^2 g^2) at its best for each theta,
    # one product gives the sums of u^k w^2 y g and u^k w^2 g^2 (k = 0,
    # 1, 2) that d chi^2 / d theta and its derivative need
    n = len(x)
    powers = u ** np.arange(3.0)[:, None]
    sums = np.zeros((6, 2 * n))
    sums[:3, :n], sums[3:, n:] = powers * (w * w * y), powers * (w * w)
    exponent = np.concatenate((-u, -2.0 * u))

    def slope(theta):
        """d chi^2 / d theta divided by 2c > 0, and its derivative."""
        rate = theta if model == POWER_LAW else math.exp(-theta)
        d_rate, dd_rate = (1.0, 0.0) if model == POWER_LAW else (-rate, rate)
        a0, a1, a2, b0, b1, b2 = (sums @ np.exp(exponent * rate)).tolist()
        c = a0 / b0
        s = a1 - c * b1
        ds = 2.0 * c * b2 - a2 + (a1 - 2.0 * c * b1) * b1 / b0
        return d_rate * s, dd_rate * s + d_rate * d_rate * ds

    ends = slope(bracket[0]), slope(bracket[1])  # 2 evaluations
    if ends[0][0] < 0.0 < ends[1][0]:
        theta, evals = _zeroin(slope, *bracket, *ends)
    else:
        theta, evals = bracket[0 if ends[0][0] >= 0.0 else 1], 0
    b = theta if model == POWER_LAW else math.exp(theta)
    g = np.exp(u * -(theta if model == POWER_LAW else 1.0 / b))
    wg, wy = w * g, w * y
    c = (wg @ wy) / (wg @ wg)
    chi2 = float((r := wy - c * wg) @ r)
    try:
        a = c * (x0 ** b if model == POWER_LAW else math.exp(x0 / b))
    except OverflowError:
        a = math.inf
    p = np.array([a, b])
    last = {"params": p, "chi2": chi2, "iterations": evals + 2}
    if theta in bracket:
        raise NoConvergence(
            f"{model}: optimum on the edge of the search bracket "
            f"[{bracket[0]:.6g}, {bracket[1]:.6g}]", last_result=last)
    if not 0.0 < a < math.inf:
        raise NoConvergence(f"{model}: amplitude outside the float range",
                            last_result=last)
    f = c * g
    dfdb = -f * np.log(x) if model == POWER_LAW else f * x / (b * b)
    # the 2 x 2 normal matrix, inverted in closed form
    j1, j2 = w * f / a, w * dfdb
    n11, n12, n22 = float(j1 @ j1), float(j1 @ j2), float(j2 @ j2)
    det = n11 * n22 - n12 * n12
    if not det > 0.0:  # singular, or singular to working precision
        raise NoConvergence(f"{model}: normal matrix singular at the optimum",
                            last_result=last)
    chi2red = chi2 / (n - 2)
    cov = chi2red / det * np.array([[n22, -n12], [-n12, n11]])
    return FitResult(model, p, np.sqrt(cov.diagonal()), cov, chi2red,
                     (lo, hi), n, excluded_x=excluded.tolist(),
                     n_iterations=evals + 2)


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
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix("quadratic normal equations singular") from None
    resid = yw - dw @ p
    chi2red = float(resid @ resid) / (n - 3) if n > 3 else 0.0
    cov *= chi2red
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.diag(cov) >= 0.0):  # inverted in rounding noise
        raise SingularNormalMatrix("quadratic: normal matrix singular to "
                                   "working precision")
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
