"""Rotated birefringent retarders and the axis calibration map alpha(theta)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import linear_polarizer, rotated_diagonal

NM_PER_MM = 1e6


class AxisUnobservableError(ValueError):
    """Retardance is a whole number of waves; crossed polarizers see nothing."""


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
        if not all(math.isfinite(v) for v in (self.alpha_deg,
                                              self.retardance_rad,
                                              self.amplitude_transmittance)):
            raise ValueError("retarder parameters must be finite")
        if not 0 <= self.alpha_deg < 180:
            raise ValueError(f"alpha_deg must be in [0, 180), got {self.alpha_deg}")
        if self.retardance_rad < 0:
            raise ValueError(f"retardance_rad must be >= 0, got {self.retardance_rad}")
        if not 0 < self.amplitude_transmittance <= 1:
            raise ValueError("amplitude_transmittance must be in (0, 1], got "
                             f"{self.amplitude_transmittance}")

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
            if not (math.isfinite(t) and math.isfinite(a)):
                raise ValueError("calibration samples must be finite")
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

    def _interpolator(self):
        # memoized: construction is O(n), evaluation is cheap. scipy is
        # imported here, so only calibration lookups pay for loading it
        memo = getattr(self, "_interp_memo", None)
        if memo is None:
            from scipy.interpolate import PchipInterpolator
            memo = PchipInterpolator(self.thetas, self.alphas,
                                     extrapolate=False)
            object.__setattr__(self, "_interp_memo", memo)
        return memo


def load_axis_calibration(path) -> AxisCalibration:
    """Read a calibration CSV with header `theta_deg,alpha_deg`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines)
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty calibration file")
    header_no, header = rows[0]
    if [c.strip() for c in header.split(",")] != ["theta_deg", "alpha_deg"]:
        raise ValueError(f"{path}:{header_no}: expected header "
                         f"'theta_deg,alpha_deg', got {header!r}")
    samples = []
    for line_no, line in rows[1:]:
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_no}: expected 2 columns, "
                             f"got {len(parts)}")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric value in "
                             f"{line!r}") from None
    try:
        return AxisCalibration(tuple(samples))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def retardance_from_physics(delta_n: float, length_mm: float,
                            wavelength_nm: float) -> float:
    """delta = 2 pi * delta_n * L / lambda, with L in mm and lambda in nm."""
    if not (delta_n >= 0 and length_mm > 0 and wavelength_nm > 0):
        raise ValueError("need delta_n >= 0, length_mm > 0, wavelength_nm > 0")
    return 2 * math.pi * delta_n * length_mm * NM_PER_MM / wavelength_nm


def axis_from_offset(cal: AxisCalibration, theta_deg: float) -> float:
    """Interpolate alpha at theta with a shape-preserving monotone cubic."""
    if not 0 <= theta_deg <= 180:
        raise ValueError(f"theta_deg {theta_deg} outside [0, 180]")
    lo, hi = cal.samples[0][0], cal.samples[-1][0]
    if not lo <= theta_deg <= hi:
        raise ValueError(f"theta_deg {theta_deg} outside calibrated range "
                         f"[{lo}, {hi}]; no extrapolation")
    return float(cal._interpolator()(theta_deg))


def retarder_jones(r: RotatedRetarder) -> np.ndarray:
    """2x2 Jones matrix of the rotated retarder."""
    half = 0.5j * r.retardance_rad
    t = r.amplitude_transmittance
    return rotated_diagonal(r.alpha_deg, t * np.exp(-half), t * np.exp(half))


def crossed_polarizer_transmission(r: RotatedRetarder,
                                   pol_angle_deg: float) -> float:
    """Power through polarizer(p) -> retarder -> polarizer(p + 90).

    Unit power enters the first polarizer already aligned with it, so the
    result is t^2 sin^2(2(alpha - p)) sin^2(delta/2).
    """
    a = math.radians(pol_angle_deg)
    field = np.array([math.cos(a), math.sin(a)], dtype=complex)
    out = linear_polarizer(pol_angle_deg + 90.0) @ retarder_jones(r) @ field
    return float(np.vdot(out, out).real)


def find_axis(r: RotatedRetarder) -> float:
    """Locate the crossed-polarizer transmission minimum, in [0, 90).

    The minimum sits on the optical axis mod 90; fast and slow are not
    distinguishable this way. Coarse 0.5 degree scan, then golden-section
    down to a 1e-4 degree bracket.

    Raises:
        AxisUnobservableError: retardance is a multiple of 2 pi, so the
            transmission is identically zero and carries no axis signal.
    """
    if abs(math.sin(r.retardance_rad / 2)) < 1e-9:
        raise AxisUnobservableError(
            f"retardance {r.retardance_rad} rad is a whole number of waves; "
            "crossed-polarizer transmission is identically zero")

    def f(p):
        return crossed_polarizer_transmission(r, p)

    grid = np.arange(0.0, 90.0, 0.5)
    best = float(min(grid, key=f))

    invphi = (math.sqrt(5) - 1) / 2
    lo, hi = best - 0.5, best + 0.5
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-4:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return ((lo + hi) / 2) % 90.0
