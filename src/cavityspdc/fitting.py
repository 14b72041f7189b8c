"""Nonlinear least-squares estimators: Lorentzian resonance lines,
two-sided-exponential correlation decays, and the CAR-versus-power curve.

All three fitters share one damped least-squares engine with a
multiplicative damping schedule and finite-difference Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biphoton import FWHM_FACTOR
from .config import _MIN_G2_BINS

_FD_REL_STEP = 1e-6
_MAX_ITER = 200
#: Convergence tolerances: largest gradient (absolute, or cosine to the
#: residual), relative cost decrease and relative step.
_GTOL = 1e-10
_FTOL = 1e-12
_XTOL = 1e-10


@dataclass
class FitResult:
    parameters: dict[str, float]
    errors: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    message: str = ""
    derived: dict[str, float] = field(default_factory=dict)


def _fd_jacobian(residual_fn, params: np.ndarray, r0: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, params.size))
    for j in range(params.size):
        step = _FD_REL_STEP * max(abs(params[j]), 1.0)
        trial = params.copy()
        trial[j] += step
        jac[:, j] = (residual_fn(trial) - r0) / step
    return jac


def damped_least_squares(residual_fn, p0):
    """Minimize 0.5*||r(p)||^2 with multiplicative damping.

    The damping factor grows tenfold on a rejected step and shrinks
    tenfold on an accepted one.  Returns (params, covariance, cost,
    converged, iterations, message); covariance is the usual
    s^2 (J^T J)^-1 estimate at the solution and is None when the final
    Jacobian is rank deficient.
    """
    params = np.asarray(p0, dtype=float).copy()
    residual = residual_fn(params)
    if not np.all(np.isfinite(residual)):
        raise ValueError("residuals must be finite at the initial guess")
    cost = 0.5 * float(residual @ residual)
    lam = 1e-3
    converged = False
    message = "iteration limit reached"
    iteration = 0

    def _gradient_cosine(jac, grad):
        # largest cosine between the residual and any Jacobian column;
        # vanishes at a least-squares stationary point regardless of scale
        col_norms = np.linalg.norm(jac, axis=0)
        r_norm = math.sqrt(2.0 * cost)
        denom = np.maximum(col_norms * r_norm, 1e-300)
        return float(np.max(np.abs(grad) / denom))

    for iteration in range(1, _MAX_ITER + 1):
        jac = _fd_jacobian(residual_fn, params, residual)
        grad = jac.T @ residual
        jtj = jac.T @ jac
        if not np.all(np.isfinite(jtj)):
            message = "non-finite Jacobian"
            break
        if np.max(np.abs(grad)) < _GTOL or _gradient_cosine(jac, grad) < _GTOL:
            converged = True
            message = "gradient below tolerance"
            break
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1e-30
        accepted = False
        while lam < 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + delta
            trial_residual = residual_fn(trial)
            if np.all(np.isfinite(trial_residual)):
                trial_cost = 0.5 * float(trial_residual @ trial_residual)
                if trial_cost < cost:
                    step_small = np.max(
                        np.abs(delta) / np.maximum(np.abs(params), 1.0)
                    ) < _XTOL
                    cost_small = (cost - trial_cost) <= _FTOL * max(cost, 1e-300)
                    params, residual, cost = trial, trial_residual, trial_cost
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    if step_small or cost_small:
                        converged = True
                        message = "step below tolerance"
                    break
            lam *= 10.0
        if not accepted:
            if _gradient_cosine(jac, grad) < 1e-6:
                converged = True
                message = "stationary point: no improving step exists"
            else:
                message = "damping exhausted without an acceptable step"
            break
        if converged:
            break

    jac = _fd_jacobian(residual_fn, params, residual)
    jtj = jac.T @ jac
    covariance = None
    if np.linalg.matrix_rank(jac) < params.size:
        converged = False
        message = "rank-deficient Jacobian at the solution"
    else:
        dof = max(residual.size - params.size, 1)
        sigma_sq = 2.0 * cost / dof
        try:
            covariance = sigma_sq * np.linalg.inv(jtj)
        except np.linalg.LinAlgError:
            converged = False
            message = "singular normal equations at the solution"
    return params, covariance, cost, converged, iteration, message


def _finalize(names, params, covariance, cost, converged, iterations, message):
    """Package engine output as a FitResult."""
    if covariance is None:
        covariance = np.full((len(names), len(names)), np.nan)
        errors = {name: math.nan for name in names}
    else:
        errors = {
            name: math.sqrt(max(covariance[i, i], 0.0))
            for i, name in enumerate(names)
        }
    return FitResult(
        parameters=dict(zip(names, map(float, params))),
        errors=errors,
        covariance=covariance,
        residual_norm=math.sqrt(2.0 * cost),
        converged=converged,
        iterations=iterations,
        message=message,
    )


# ---------------------------------------------------------------------------
# Lorentzian resonance line


def lorentzian(x, center: float, fwhm: float, amplitude: float, offset: float):
    half_sq = (0.5 * abs(fwhm)) ** 2
    return amplitude * half_sq / ((np.asarray(x, dtype=float) - center) ** 2 + half_sq) + offset


def _half_max_width(x, y, offset, peak_idx) -> float:
    half = offset + 0.5 * (y[peak_idx] - offset)
    above = y >= half
    left = peak_idx
    while left > 0 and above[left - 1]:
        left -= 1
    right = peak_idx
    while right < y.size - 1 and above[right + 1]:
        right += 1
    width = abs(x[right] - x[left])
    if width <= 0.0:
        width = abs(x[1] - x[0]) if x.size > 1 else 1.0
    return width


def fit_lorentzian(x, y) -> FitResult:
    """Fit y = A*(G/2)^2 / ((x-x0)^2 + (G/2)^2) + B.

    Parameters are reported as center, fwhm, amplitude, offset with
    standard errors; the center initializes at the sample maximum and the
    width at the half-maximum crossing distance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValueError("need at least 5 samples")
    offset0 = float(np.min(y))
    peak = int(np.argmax(y))
    amp0 = float(y[peak] - offset0)
    p0 = np.array([x[peak], _half_max_width(x, y, offset0, peak), amp0, offset0])
    if np.ptp(x) < 2.0 * abs(p0[1]):
        raise ValueError("samples must span at least two linewidths")

    def residual(p):
        return lorentzian(x, *p) - y

    params, cov, cost, ok, iters, msg = damped_least_squares(residual, p0)
    params[1] = abs(params[1])
    return _finalize(("center", "fwhm", "amplitude", "offset"),
                     params, cov, cost, ok, iters, msg)


# ---------------------------------------------------------------------------
# Correlation-peak decay


def exp_decay(t_ns, gamma_ghz: float, amplitude: float, floor: float):
    return amplitude * np.exp(
        -2.0 * np.pi * abs(gamma_ghz) * np.abs(np.asarray(t_ns, dtype=float))
    ) + floor


def fit_exp_g2(hist) -> FitResult:
    """Fit amplitude * exp(-2*pi*gamma*|t|) + floor to a delay histogram.

    Two passes: a plain least-squares fit seeds Poisson weights taken from
    the fitted model, and the weighted refit supplies the reported
    parameters.  Model-based weights keep the decay estimate anchored to
    the exponential wings, which detector jitter leaves untouched, instead
    of the convolution-rounded core.  Reports gamma in GHz plus the implied
    correlation FWHM t_fwhm = 1.39 / (2*pi*gamma) in the derived values.

    The floor starts as the mean of the outer quarter of bins on each side,
    gamma from the peak area, which is amplitude / (pi * gamma).  A
    histogram whose excess sum(counts - floor) over N bins is at most
    5 sqrt(sum(counts) + N^2 floor / n_outer), the last term the Poisson
    error of the floor taken N times, is not fitted and returns
    converged=False with the message "no significant peak".
    """
    centers_ps = np.asarray(hist.bin_centers_ps, dtype=float)
    counts = np.asarray(hist.counts, dtype=float)
    if centers_ps.size < _MIN_G2_BINS:
        raise ValueError(f"need at least {_MIN_G2_BINS} bins")
    if abs(centers_ps[0] + centers_ps[-1]) > 0.51 * abs(centers_ps[1] - centers_ps[0]):
        raise ValueError("histogram range must be symmetric about zero delay")
    t_ns = centers_ps * 1e-3
    names = ("gamma_ghz", "amplitude", "floor")

    quarter = counts.size // 4
    outer = np.concatenate([counts[:quarter], counts[-quarter:]])
    floor0 = float(np.mean(outer))
    amp0 = float(np.max(counts) - floor0)
    excess = float(np.sum(counts - floor0))
    variance = float(np.sum(counts)) + counts.size**2 * floor0 / outer.size
    if not excess > 5.0 * math.sqrt(max(variance, 0.0)):
        return _finalize(names, np.array([math.nan, amp0, floor0]), None, math.nan,
                         False, 0, f"no significant peak: excess {excess:.4g} over the floor")
    p0 = np.array([amp0 / (math.pi * excess * abs(t_ns[1] - t_ns[0])), amp0, floor0])

    def residual_plain(p):
        return exp_decay(t_ns, *p) - counts

    p1, *_ = damped_least_squares(residual_plain, p0)
    weights = 1.0 / np.sqrt(np.maximum(exp_decay(t_ns, *p1), 1.0))

    def residual(p):
        return (exp_decay(t_ns, *p) - counts) * weights

    params, cov, cost, ok, iters, msg = damped_least_squares(residual, p1)
    params[0] = abs(params[0])
    result = _finalize(names, params, cov, cost, ok, iters, msg)
    gamma = result.parameters["gamma_ghz"]
    if gamma > 0.0 and ok:
        t_fwhm = FWHM_FACTOR / (2.0 * math.pi * gamma)
        result.derived["t_fwhm_ns"] = t_fwhm
        result.derived["t_fwhm_err_ns"] = (
            t_fwhm / gamma * result.errors["gamma_ghz"]
            if math.isfinite(result.errors["gamma_ghz"])
            else math.nan
        )
    return result


# ---------------------------------------------------------------------------
# CAR versus pump power


def fit_car_curve(powers_mw, cars) -> FitResult:
    """Fit the reduced CAR curve CAR(P) = P / (norm * (P + knee_s) *
    (P + knee_i)) and report its peak.

    The knees are the dark-rate-to-detected-rate crossover powers of the two
    arms and norm is the generated-rate-times-window scale: the physical
    parameter set (efficiency-rate products and dark rates) is only
    identifiable up to this three-parameter shape.  The two knees become
    exactly degenerate when they coincide, so the fit runs on the log
    denominator coefficients of
    CAR = P / (c2 P^2 + c1 P + c0), which stay independent everywhere.
    The knees are recovered as the roots of the denominator and the peak as
    peak_power = sqrt(c0/c2), peak_car = 1/(c1 + 2 sqrt(c0 c2)).  The
    covariance is that of norm_per_mw, knee_s_mw and knee_i_mw, carried from
    the fit coordinates by the delta method; its knee rows and columns are
    NaN once the discriminant closes and the knees cannot be told apart.
    """
    powers = np.asarray(powers_mw, dtype=float)
    cars = np.asarray(cars, dtype=float)
    if powers.size != cars.size or powers.size < 5:
        raise ValueError("need at least 5 (power, CAR) points")
    if np.ptp(cars) == 0.0:
        raise ValueError("degenerate data: all CAR values equal")
    if np.any(powers <= 0.0) or np.any(cars <= 0.0):
        raise ValueError("powers and CAR values must be > 0")

    peak = int(np.argmax(cars))
    p_star = powers[peak]
    norm0 = 1.0 / (cars[peak] * 4.0 * p_star)
    q0 = np.log(np.array([norm0 * p_star**2, 2.0 * norm0 * p_star, norm0]))

    def residual(q):
        c0, c1, c2 = np.exp(q)
        # relative residuals: CAR spans decades
        return powers / (c2 * powers**2 + c1 * powers + c0) / cars - 1.0

    q, cov, cost, ok, iters, msg = damped_least_squares(residual, q0)

    def derived_values(qv):
        d0, d1, d2 = np.exp(qv)
        r = math.sqrt(max(d1 * d1 - 4.0 * d0 * d2, 0.0))
        return np.array(
            [
                d2,
                (d1 - r) / (2.0 * d2),
                (d1 + r) / (2.0 * d2),
                math.sqrt(d0 / d2),
                1.0 / (d1 + 2.0 * math.sqrt(d0 * d2)),
            ]
        )

    values = derived_values(q)
    if cov is None:
        cov = np.full((5, 5), math.nan)
    else:
        # delta method; knee errors blow up as the discriminant closes, which
        # reflects a genuine loss of identifiability
        jac = _fd_jacobian(derived_values, q, values)
        cov = jac @ cov @ jac.T
    c0, c1, c2 = np.exp(q)
    if c1 * c1 - 4.0 * c0 * c2 <= 1e-9 * c1 * c1:
        cov[1:3, :] = cov[:, 1:3] = math.nan

    result = _finalize(("norm_per_mw", "knee_s_mw", "knee_i_mw"), values[:3], cov[:3, :3],
                       cost, ok, iters, msg)
    peak_power_err, peak_car_err = np.sqrt(np.clip(np.diag(cov)[3:], 0.0, None))
    result.derived = {
        "peak_power_mw": float(values[3]),
        "peak_power_err_mw": float(peak_power_err),
        "peak_car": float(values[4]),
        "peak_car_err": float(peak_car_err),
    }
    return result
