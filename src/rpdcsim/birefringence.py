"""Rotated birefringent retarders and the axis calibration map alpha(theta)."""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from ._files import check_finite, finite_result, read_csv
from .polarization import rotated_diagonal

NM_PER_MM = 1e6

# polarizer angles find_axis samples: k * 11.25 degrees, k = 0..7
_AXIS_ANGLES = tuple(11.25 * k for k in range(8))


class AxisUnobservableError(ValueError):
    """Retardance is a whole number of waves; crossed polarizers see nothing."""


def _check_retarder(r) -> None:
    """Range rules of a retarder's finite fields; `RpdcDevice` shares them.
    The power t^2 must be a normal float, as a subnormal one loses digits."""
    if not 0 <= r.alpha_deg < 180:
        raise ValueError(f"alpha_deg must be in [0, 180), got {r.alpha_deg}")
    if r.retardance_rad < 0:
        raise ValueError(f"retardance_rad must be >= 0, got {r.retardance_rad}")
    t = r.amplitude_transmittance
    if not 0 < t <= 1:
        raise ValueError(f"amplitude_transmittance must be in (0, 1], got {t}")
    if t * t < sys.float_info.min:
        raise ValueError("amplitude_transmittance squared underflows to "
                         f"{t * t:g}, got {t}")


@dataclass(frozen=True)
class RotatedRetarder:
    """Birefringent element with fast axis at alpha_deg.

    Jones matrix is t * R(alpha) diag(e^{-i d/2}, e^{+i d/2}) R(-alpha):
    the fast axis leads by the symmetric half-retardance. The slow axis
    sits at alpha_deg + 90.
    """

    alpha_deg: float
    retardance_rad: float
    amplitude_transmittance: float = 1.0

    def __post_init__(self):
        check_finite(**vars(self))
        _check_retarder(self)

    @property
    def slow_axis_deg(self) -> float:
        return (self.alpha_deg + 90.0) % 180.0


@dataclass(frozen=True)
class AxisCalibration:
    """Measured map from fabrication offset theta to optical-axis angle alpha.

    Samples are (theta_deg, alpha_deg) pairs with strictly increasing theta
    covering some part of [0, 180].
    """

    samples: tuple

    def __post_init__(self):
        samples = tuple((float(t), float(a)) for t, a in self.samples)
        if len(samples) < 2:
            raise ValueError("calibration needs at least 2 samples")
        for t, a in samples:
            if not 0 <= t <= 180:
                raise ValueError(f"theta {t} out of range [0, 180]")
            if not 0 <= a < 180:
                raise ValueError(f"alpha {a} out of range [0, 180)")
        thetas = [t for t, _ in samples]
        if any(t1 >= t2 for t1, t2 in zip(thetas, thetas[1:])):
            raise ValueError("calibration thetas must be strictly increasing")
        object.__setattr__(self, "samples", samples)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for _, a in self.samples])

    @functools.cached_property
    def _interpolator(self):
        """The Fritsch-Carlson monotone cubic through the samples, cached.

        Node slopes (Fritsch-Butland inside, SciPy's shape-preserving
        three-point formula at the ends) come from `_pchip_slopes`, once per
        table, and are kept with the nodes as tuples of Python floats; each
        call is a cubic Hermite evaluation on one interval. A table whose
        slopes overflow caches nothing and raises every time.
        """
        x, y = self.thetas, self.alphas
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d = _pchip_slopes(x, y)
        if not np.isfinite(d).all():
            raise ValueError("calibration slopes overflow: thetas are "
                             "too close together")
        return functools.partial(_hermite, tuple(x.tolist()),
                                 tuple(y.tolist()), tuple(d.tolist()))


def _end_slope(h0, h1, m0, m1):
    """Shape-preserving three-point end slope (Moler's `pchiptx`, as in SciPy).

    h0, m0 are the width and secant of the end interval, h1, m1 those of
    its neighbour. The slope is 0 if the three-point estimate disagrees in
    sign with m0, and 3 m0 if the secants change sign and the estimate
    exceeds that.
    """
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip_slopes(x, y) -> np.ndarray:
    """Node slopes of the Fritsch-Carlson monotone cubic through (x, y).

    An interior slope is the weighted harmonic mean of the two secants,
    1/d_k = (w1/m_{k-1} + w2/m_k)/(w1 + w2) with w1 = 2h_k + h_{k-1} and
    w2 = h_k + 2h_{k-1} (Fritsch & Butland 1984), and 0 where the secants
    change sign or one is zero, so monotone data give a monotone curve
    (Fritsch & Carlson 1980). End slopes are `_end_slope`; a 2-node table
    is the straight line. These are the slopes SciPy's PchipInterpolator
    uses.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(m) == 1:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    k = np.flatnonzero((np.sign(m[:-1]) == np.sign(m[1:])) & (m[1:] != 0))
    w1, w2 = 2 * h[k + 1] + h[k], h[k + 1] + 2 * h[k]
    d[k + 1] = 1.0 / ((w1 / m[k] + w2 / m[k + 1]) / (w1 + w2))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _hermite(x, y, d, t) -> float:
    """Cubic Hermite value at t from node values y and slopes d.

    x, y and d are sequences of Python floats. The interval is the one
    whose left node is the last node <= t; t on the last node uses the last
    interval. The basis form returns y exactly at both ends of an interval.
    """
    k = min(bisect.bisect_right(x, t) - 1, len(x) - 2)
    h = x[k + 1] - x[k]
    s = (t - x[k]) / h
    u = 1.0 - s
    return float(y[k] * (1 + 2 * s) * u * u + y[k + 1] * s * s * (3 - 2 * s)
                 + h * s * u * (d[k] * u - d[k + 1] * s))


def load_axis_calibration(path) -> AxisCalibration:
    """Read a calibration CSV with header `theta_deg,alpha_deg`."""
    samples = read_csv(path, [("theta_deg", "alpha_deg")],
                       lambda theta, alpha: (float(theta), float(alpha)))
    try:
        return AxisCalibration(samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def retardance_from_physics(delta_n: float, length_mm: float,
                            wavelength_nm: float) -> float:
    """delta = 2 pi delta_n L / lambda, L in mm, lambda in nm; all finite."""
    given = check_finite(delta_n=delta_n, length_mm=length_mm,
                         wavelength_nm=wavelength_nm)
    if not (delta_n >= 0 and length_mm > 0 and wavelength_nm > 0):
        raise ValueError("need delta_n >= 0, length_mm > 0, wavelength_nm > 0")
    delta = 2 * math.pi * delta_n * (length_mm * NM_PER_MM / wavelength_nm)
    return finite_result(delta, "retardance", **given)


def axis_from_offset(cal: AxisCalibration, theta_deg: float) -> float:
    """Interpolate alpha at theta with a shape-preserving monotone cubic.

    The curve is the piecewise-cubic Hermite interpolant of Fritsch and
    Carlson with Fritsch-Butland harmonic-mean slopes and SciPy's
    shape-preserving end slopes (`_pchip_slopes`): it passes through every
    sample, has a continuous first derivative, and is monotone wherever the
    samples are. It agrees with SciPy's PchipInterpolator to rounding.
    theta must lie in the calibrated range; nothing is extrapolated.
    """
    lo, hi = cal.samples[0][0], cal.samples[-1][0]
    if not lo <= theta_deg <= hi:
        raise ValueError(f"theta_deg {theta_deg} outside calibrated range "
                         f"[{lo}, {hi}]; no extrapolation")
    return cal._interpolator(theta_deg)


def retarder_jones(r: RotatedRetarder) -> np.ndarray:
    """2x2 Jones matrix of the rotated retarder."""
    half = 0.5j * r.retardance_rad
    t = r.amplitude_transmittance
    return rotated_diagonal(r.alpha_deg, t * np.exp(-half), t * np.exp(half))


def _unit_trace(alpha_deg: float, angles_deg) -> list:
    """sin^2(2(alpha - p)) at each polarizer angle p: the crossed-polarizer
    trace per unit contrast t^2 sin^2(delta/2), a positive common factor
    that does not move the axis; without it the trace keeps its digits
    where the contrast is subnormal.
    """
    return [math.sin(2 * math.radians(alpha_deg - p)) ** 2
            for p in angles_deg]


def crossed_polarizer_transmission(r: RotatedRetarder,
                                   pol_angle_deg: float) -> float:
    """Power through polarizer(p) -> retarder -> polarizer(p + 90).

    Unit power enters the first polarizer already aligned with it, so the
    result is |e_{p+90}^T J e_p|^2 = t^2 sin^2(2(alpha - p)) sin^2(delta/2)
    for the Jones matrix J of `retarder_jones`, evaluated in that closed
    form: the contrast t^2 sin^2(delta/2) times the unit trace.
    """
    check_finite(pol_angle_deg=pol_angle_deg)
    t = r.amplitude_transmittance
    contrast = t * t * math.sin(r.retardance_rad / 2) ** 2
    return contrast * _unit_trace(r.alpha_deg, (pol_angle_deg,))[0]


def _centred(v: list) -> list:
    """v minus its mean, as a list of Python floats."""
    mean = sum(v) / len(v)
    return [x - mean for x in v]


def _dot(u: list, v: list) -> float:
    """sum u_i v_i of two lists of Python floats."""
    return sum(map(operator.mul, u, v))


def fit_axis(angles_deg, powers) -> tuple:
    """Axis (mod 90, in [0, 90)) and contrast C of a crossed-polarizer trace.

    Crossed-polarizer transmission is T(p) = C/2 - (C/2) cos 4(alpha - p),
    with C = t^2 sin^2(delta/2): a constant plus the fourth harmonic of the
    polarizer angle. A linear least-squares fit of the powers on
    (1, cos 4p, sin 4p) gives coefficients (c0, c1, c2), and
    alpha = atan2(-c2, -c1)/4 mod 90, C = 2 hypot(c1, c2): the
    rotating-analyzer Fourier analysis of ellipsometry. Any grid of three
    or more angles that are distinct mod 90 determines the fit, and noisy
    powers are allowed: with N angles spread evenly over 90 degrees and
    Gaussian power noise sigma, the axis has a standard error of
    sigma/(C sqrt(2N)) rad.

    Raises:
        ValueError: the arrays are not 1-D of one length >= 3, hold a
            non-finite value, their angles do not determine the fit, or the
            fit of powers near the float limit overflows.
        AxisUnobservableError: the fitted C is zero within rounding, so the
            trace carries no axis signal.
    """
    p = np.asarray(angles_deg, dtype=float)
    y = np.asarray(powers, dtype=float)
    if p.ndim != 1 or p.shape != y.shape or len(p) < 3:
        raise ValueError("angles and powers must be 1-D arrays of one length "
                         f">= 3, got shapes {p.shape} and {y.shape}")
    ps, ys = p.tolist(), y.tolist()
    if not all(map(math.isfinite, ps + ys)):
        raise ValueError("angles and powers must be finite")
    return _fit_powers(_fit_design(ps), ys)


def _fit_design(angles_deg) -> tuple:
    """The part of `fit_axis` that depends on the angles alone.

    Returns (c, s, scc, sss, scs, det): the cos 4p and sin 4p columns
    centred on their means, their sums of products, and the determinant of
    the normal equations with c0 eliminated. The angles are finite Python
    floats; numpy's cost per call would outweigh the arithmetic of a trace
    of few angles.

    Raises:
        ValueError: the angles do not determine the fit.
    """
    n = len(angles_deg)
    # 4 radians(a), not radians(4a): 4a overflows once |a| > 4.49e307
    four_p = [4.0 * math.radians(a) for a in angles_deg]
    c = _centred([math.cos(a) for a in four_p])
    s = _centred([math.sin(a) for a in four_p])
    scc, sss, scs = _dot(c, c), _dot(s, s), _dot(c, s)
    det = scc * sss - scs * scs
    # det/N^2 lies in [0, 1/4]; 1/4 for angles spread evenly mod 90
    if not det > 1e-9 * n ** 2:
        raise ValueError("the angles do not determine the fit: need at "
                         "least three angles distinct mod 90 degrees")
    return c, s, scc, sss, scs, det


def _fit_powers(design: tuple, ys: list) -> tuple:
    """(axis mod 90, contrast) of the powers ys on a `_fit_design`.

    ys is a list of finite Python floats, one per angle of the design; the
    rules and messages past the finite check are those of `fit_axis`.
    """
    c, s, scc, sss, scs, det = design
    dy = _centred(ys)
    scy, ssy = _dot(c, dy), _dot(s, dy)
    c1 = (sss * scy - scs * ssy) / det
    c2 = (scc * ssy - scs * scy) / det
    contrast = 2.0 * math.hypot(c1, c2)
    if not contrast < math.inf:
        raise ValueError("the fit overflows the float range: powers up to "
                         f"{max(map(abs, ys))} are too large")
    if contrast <= 1e-12 * max(map(abs, ys)):
        raise AxisUnobservableError(
            "fitted crossed-polarizer contrast is zero within rounding; "
            "the trace carries no axis signal")
    alpha = math.degrees(math.atan2(-c2, -c1)) / 4.0 % 90.0
    return (0.0 if alpha == 90.0 else alpha), contrast


# the fit design of the angles find_axis samples, built once
_AXIS_DESIGN = _fit_design(_AXIS_ANGLES)


def find_axis(r: RotatedRetarder) -> float:
    """Axis of `r` mod 90, in [0, 90), from its crossed-polarizer trace.

    The transmission minimum sits on the optical axis mod 90; fast and slow
    are not distinguishable this way. The closed-form unit trace of
    `_unit_trace` is sampled at the eight angles k * 11.25 degrees, an
    orthogonal design for the harmonic fit of `fit_axis`, which gives the
    axis in closed form to rounding (about 1e-13 degrees) at any contrast.
    The design is built once, at import; the result equals `fit_axis` of
    the same angles and unit samples exactly.

    Raises:
        AxisUnobservableError: retardance is a multiple of 2 pi, so the
            transmission is identically zero and carries no axis signal.
    """
    if abs(math.sin(r.retardance_rad / 2)) < 1e-9:
        raise AxisUnobservableError(
            f"retardance {r.retardance_rad} rad is a whole number of waves; "
            "crossed-polarizer transmission is identically zero")
    return _fit_powers(_AXIS_DESIGN, _unit_trace(r.alpha_deg, _AXIS_ANGLES))[0]
