"""Weighted least-squares fits of correlation decay and exponent curves.

Three models are supported:

* ``power_law``     y = kappa * x^(-gamma)        params (kappa, gamma)
* ``exponential``   y = alpha * exp(-x / tau)     params (alpha, tau)
* ``quadratic``     y = a * x^2 + b * x + c       params (a, b, c)

Nonlinear models are minimized by damped Gauss-Newton (multiplicative
Levenberg schedule x10 / /10) on chi^2 = sum ((y_i - f(x_i)) / sigma_i)^2,
initialized from an unweighted log-linear regression. The quadratic is
solved in closed form by weighted normal equations.

Parameter uncertainties follow the asymptotic-standard-error convention:
the covariance is the inverse weighted normal matrix at the optimum
scaled by the reduced chi^2, so errors are invariant under a common
rescaling of all sigmas.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (InsufficientPoints, MissingSigmas, NoConvergence,
                     NonPositiveData, NonPositiveSigma, RangeMismatch,
                     SingularNormalMatrix, WrongModel)

POWER_LAW = "power_law"
EXPONENTIAL = "exponential"
QUADRATIC = "quadratic"

_RTOL = 1e-10
_MAX_ITER = 200
_TIE_TOL = 1e-12

PARAM_NAMES = {
    POWER_LAW: ("kappa", "gamma"),
    EXPONENTIAL: ("alpha", "tau"),
    QUADRATIC: ("alpha", "beta", "rho"),
}


@dataclass(frozen=True)
class FitPoint:
    """One weighted data point (x, y, sigma) with sigma > 0."""

    x: float
    y: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {self.sigma}")


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

    @classmethod
    def from_points(cls, points):
        return cls(np.array([p.x for p in points]),
                   np.array([p.y for p in points]),
                   np.array([p.sigma for p in points]))


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
    n_iterations: int = 0

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
# model functions


def _power_f(x, p):
    return p[0] * x ** (-p[1])


def _power_jac(x, p):
    xg = x ** (-p[1])
    return np.column_stack((xg, -p[0] * xg * np.log(x)))


def _power_init(x, y):
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return np.array([np.exp(intercept), -slope])


def _exp_f(x, p):
    return p[0] * np.exp(-x / p[1])


def _exp_jac(x, p):
    e = np.exp(-x / p[1])
    return np.column_stack((e, p[0] * e * x / p[1] ** 2))


def _exp_init(x, y):
    slope, intercept = np.polyfit(x, np.log(y), 1)
    tau = -1.0 / slope if slope < 0 else 100.0 * (x.max() - x.min() + 1.0)
    return np.array([np.exp(intercept), tau])


def _quad_f(x, p):
    return p[0] * x * x + p[1] * x + p[2]


def _quad_jac(x, p):
    return np.column_stack((x * x, x, np.ones_like(x)))


_MODELS = {
    POWER_LAW: (_power_f, _power_jac, _power_init),
    EXPONENTIAL: (_exp_f, _exp_jac, _exp_init),
    QUADRATIC: (_quad_f, _quad_jac, None),
}


# ---------------------------------------------------------------------------
# optimizer


def _weighted_lm(f, jac, x, y, w, p0, max_iter=_MAX_ITER, rtol=_RTOL):
    """Damped Gauss-Newton on weighted residuals; returns (p, chi2, iters)."""
    p = np.asarray(p0, dtype=np.float64)
    resid = (y - f(x, p)) * w
    chi2 = float(resid @ resid)
    lam = 0.0
    for it in range(1, max_iter + 1):
        jw = jac(x, p) * w[:, None]
        a = jw.T @ jw
        g = jw.T @ resid
        diag = np.diag(a).copy()
        floor = max(diag.max(), 1.0) * 1e-14
        accepted = False
        for _ in range(60):
            ad = a.copy()
            if lam > 0.0:
                ad[np.diag_indices_from(ad)] += lam * np.maximum(diag, floor)
            try:
                step = np.linalg.solve(ad, g)
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-10)
                continue
            if not np.all(np.isfinite(step)):
                lam = max(lam * 10.0, 1e-10)
                continue
            p_try = p + step
            r_try = (y - f(x, p_try)) * w
            chi2_try = float(r_try @ r_try)
            if np.isfinite(chi2_try) and chi2_try <= chi2:
                accepted = True
                break
            lam = max(lam * 10.0, 1e-10)
        if not accepted:
            raise NoConvergence(
                f"no descent step found at iteration {it}",
                last_result={"params": p, "chi2": chi2, "iterations": it})
        lam_used = lam
        lam /= 10.0
        if lam < 1e-12:
            lam = 0.0
        drop = chi2 - chi2_try
        p, resid, chi2 = p_try, r_try, chi2_try
        # a negligible improvement only counts as convergence for an
        # undamped step; damped crawl steps must keep iterating
        if lam_used == 0.0 and drop <= rtol * max(chi2, np.finfo(float).tiny):
            return p, chi2, it
    return p, chi2, max_iter


def _covariance(jw, chi2, n, n_params, context):
    dof = n - n_params
    chi2red = chi2 / dof if dof > 0 else 0.0
    a = jw.T @ jw
    try:
        cov = np.linalg.inv(a) * chi2red
    except np.linalg.LinAlgError:
        raise SingularNormalMatrix(f"{context}: singular normal matrix") from None
    cov = 0.5 * (cov + cov.T)
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

    f, jac, init = _MODELS[model]
    p0 = init(x, y)
    p, chi2, iters = _weighted_lm(f, jac, x, y, w, p0)
    jw = jac(x, p) * w[:, None]
    try:
        cov, chi2red = _covariance(jw, chi2, len(x), len(p), model)
    except SingularNormalMatrix:
        raise NoConvergence(
            f"{model}: normal matrix singular at the optimum",
            last_result={"params": p, "chi2": chi2, "iterations": iters},
        ) from None
    return FitResult(model, p, np.sqrt(np.diag(cov)), cov, chi2red,
                     (lo, hi), len(x), excluded_x=[float(v) for v in excluded],
                     n_iterations=iters)


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
