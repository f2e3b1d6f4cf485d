"""Full rotated polarization directional coupler as a 2-port Jones operator.

A device is a rotated birefringent coupling region: light is decomposed
onto the slow/fast axes (slow axis at `alpha_deg`, fast at +90), each
component propagates through its own symmetric coupler (the slow axis
couples more strongly), picks up the residual straight-section retardance,
and both output arms are rotated back to the lab frame and scaled by a
scalar amplitude transmittance.

Port naming follows the splitting-ratio law: port T is the cross arm
(power sin^2(K Z + phi) per axis), port R the bar arm (cos^2).
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._files import check_fields, read_json, read_number
from .birefringence import _check_retarder
from .coupling import CouplerParams, coupler_transfer_matrix
from .polarization import (
    JonesVector,
    StokesVector,
    cardinal_state,
    rotated_diagonal,
)

POWER_CLAMP = 1e-15

DEVICE_JSON_FIELDS = (
    "alpha_deg",
    "k_slow_rad_per_mm",
    "k_fast_rad_per_mm",
    "length_mm",
    "bend_phase_slow_rad",
    "bend_phase_fast_rad",
    "transmittance",
    "retardance_rad",
)


@dataclass(frozen=True)
class RpdcDevice:
    """Rotated polarization directional coupler: the eight device-file numbers.

    Fields follow `DEVICE_JSON_FIELDS`; the file's `transmittance` is
    amplitude_transmittance here. alpha_deg locates the slow axis in the
    lab frame. Each axis is one zero-beta symmetric coupler
    (`coupler_slow`, `coupler_fast`) of the shared length length_mm, with
    cross-port power sin^2(k_axis Z + bend_phase_axis); the slow axis
    couples at least as strongly as the fast one. retardance_rad is the
    residual slow-minus-fast phase of the straight section;
    amplitude_transmittance scales output fields (power goes as its square).
    Each axis phase k_axis length_mm + bend_phase_axis must be finite, and
    the power amplitude_transmittance^2 above 0.
    """

    alpha_deg: float
    k_slow_rad_per_mm: float
    k_fast_rad_per_mm: float
    length_mm: float
    bend_phase_slow_rad: float = 0.0
    bend_phase_fast_rad: float = 0.0
    amplitude_transmittance: float = 1.0
    retardance_rad: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        _check_retarder(self)
        if self.length_mm < 0:
            raise ValueError(f"length_mm must be >= 0, got {self.length_mm}")
        if not self.k_slow_rad_per_mm >= self.k_fast_rad_per_mm >= 0:
            raise ValueError(
                "need k_slow_rad_per_mm >= k_fast_rad_per_mm >= 0 (the slow "
                "axis couples at least as strongly), got k_slow "
                f"{self.k_slow_rad_per_mm} and k_fast {self.k_fast_rad_per_mm}")
        # each axis's phase k Z + phi, and the power t^2, must stay in the
        # float range for sin, cos and the port powers to mean anything
        for k, phi in (("k_slow_rad_per_mm", "bend_phase_slow_rad"),
                       ("k_fast_rad_per_mm", "bend_phase_fast_rad")):
            k_value, phi_value = getattr(self, k), getattr(self, phi)
            if not math.isfinite(k_value * self.length_mm + phi_value):
                raise ValueError(
                    f"phase {k} * length_mm + {phi} overflows: {k} "
                    f"{k_value}, length_mm {self.length_mm}, {phi} "
                    f"{phi_value}")
        if not self.amplitude_transmittance ** 2 > 0:
            raise ValueError("amplitude_transmittance squared underflows to "
                             f"0, got {self.amplitude_transmittance}")

    @property
    def coupler_slow(self) -> CouplerParams:
        return CouplerParams.symmetric(0.0, self.k_slow_rad_per_mm,
                                       self.length_mm, self.bend_phase_slow_rad)

    @property
    def coupler_fast(self) -> CouplerParams:
        return CouplerParams.symmetric(0.0, self.k_fast_rad_per_mm,
                                       self.length_mm, self.bend_phase_fast_rad)

    def with_length(self, length_mm: float) -> "RpdcDevice":
        return dataclasses.replace(self, length_mm=length_mm)


def make_pdc_device(alpha_deg: float, k_slow: float, k_fast: float,
                    length_mm: float, bend_length_mm: float = 0.0,
                    amplitude_transmittance: float = 1.0,
                    retardance_rad: float = 0.0) -> RpdcDevice:
    """Build a device whose S-bends act like bend_length_mm of extra coupler.

    Each axis gets bend phase k_axis * bend_length_mm, so the straight
    section of length_mm behaves like length_mm + bend_length_mm of
    parallel coupling.
    """
    if bend_length_mm < 0:
        raise ValueError(f"bend_length_mm must be >= 0, got {bend_length_mm}")
    return RpdcDevice(alpha_deg, k_slow, k_fast, length_mm,
                      k_slow * bend_length_mm, k_fast * bend_length_mm,
                      amplitude_transmittance, retardance_rad)


def port_transfer_matrices(dev: RpdcDevice) -> np.ndarray:
    """Lab-frame Jones matrices (j_t, j_r) of the cross and bar ports, stacked.

    In the device frame both ports are diagonal over (slow, fast): the
    couplers contribute their bar/cross entries per axis and the residual
    retardance contributes diag(e^{+i d/2}, e^{-i d/2}); diagonal factors
    commute, so the retarder-then-coupler order is a pure convention.
    """
    m_slow = coupler_transfer_matrix(dev.coupler_slow)
    m_fast = coupler_transfer_matrix(dev.coupler_fast)
    half = 0.5j * dev.retardance_rad
    t = dev.amplitude_transmittance
    # rows: cross then bar entry, per axis
    slow = t * np.exp(half) * np.array([m_slow[1, 0], m_slow[0, 0]])
    fast = t * np.exp(-half) * np.array([m_fast[1, 0], m_fast[0, 0]])
    return rotated_diagonal(dev.alpha_deg, slow, fast)


@dataclass(frozen=True)
class PortPowers:
    """Port powers under unit-power slow- and fast-axis aligned inputs."""

    t_slow: float
    t_fast: float
    r_slow: float
    r_fast: float


def _axis_powers(dev: RpdcDevice, length_mm) -> tuple:
    """(sin^2 s, sin^2 f, cos^2 s, cos^2 f) of s, f = k_axis Z + bend phase.

    The unit-input, loss-free port powers of each axis's coupler at length
    Z: cross then bar, slow then fast. They are the squared moduli of the
    entries of `coupler_transfer_matrix`, so no matrix is built. Z is one
    length or an array of them; numpy evaluates the powers elementwise, so
    one length gives numpy scalars.
    """
    s = dev.k_slow_rad_per_mm * length_mm + dev.bend_phase_slow_rad
    f = dev.k_fast_rad_per_mm * length_mm + dev.bend_phase_fast_rad
    sin_s, sin_f, cos_s, cos_f = np.sin(s), np.sin(f), np.cos(s), np.cos(f)
    return sin_s * sin_s, sin_f * sin_f, cos_s * cos_s, cos_f * cos_f


def axis_port_powers(dev: RpdcDevice) -> PortPowers:
    """Feed unit power along each device axis, read both output ports.

    Both ports are diagonal over (slow, fast) in the device frame, so an
    axis-aligned input leaves each port with t^2 times the squared modulus
    of that axis's coupler entry: sin^2 for port T, cos^2 for port R. The
    powers are Python floats.
    """
    t2 = dev.amplitude_transmittance ** 2
    return PortPowers(*(float(t2 * p)
                        for p in _axis_powers(dev, dev.length_mm)))


def extinction_db(p_num: float, p_den: float) -> float:
    """|10 log10(p_num/p_den)| with dead-zero powers clamped at POWER_CLAMP."""
    if p_num < 0 or p_den < 0:
        raise ValueError("powers must be >= 0")
    return abs(10.0 * math.log10(max(p_num, POWER_CLAMP)
                                 / max(p_den, POWER_CLAMP)))


def extinction_ratios(dev: RpdcDevice) -> tuple:
    """(ER_T, ER_R) in dB: per-port power contrast between the two axes."""
    p = axis_port_powers(dev)
    return (extinction_db(p.t_fast, p.t_slow),
            extinction_db(p.r_fast, p.r_slow))


@dataclass(frozen=True)
class AxisCheckResult:
    """Polarization analysis of the straight region for one input state."""

    input_label: str
    expected_angle_deg: float
    expected_label: str
    visibility: float
    orientation_deg: float
    ellipticity_deg: float
    stokes: StokesVector
    jones: JonesVector


# polarization angle of each linear cardinal state, in degrees
_LINEAR_ANGLES = {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}
# an angle within this many degrees of a cardinal one takes its label
_ANGLE_TOL = 1e-6


def _label_for_angle(angle_deg: float) -> str:
    for label, ang in _LINEAR_ANGLES.items():
        d = abs(angle_deg - ang) % 180.0
        if min(d, 180.0 - d) < _ANGLE_TOL:
            return label
    return ""


def _straight_region(dev: RpdcDevice) -> list:
    """Jones matrix of the straight region as nested lists of Python complex.

    The rotated retarder of `simulate_axis_check`, built once per device
    object and kept on it; a device made by `with_length` or
    `dataclasses.replace` builds its own.
    """
    memo = getattr(dev, "_region_memo", None)
    if memo is None:
        half = 0.5j * dev.retardance_rad
        t = dev.amplitude_transmittance
        memo = rotated_diagonal(dev.alpha_deg, t * cmath.exp(half),
                                t * cmath.exp(-half)).tolist()
        object.__setattr__(dev, "_region_memo", memo)
    return memo


def simulate_axis_check(dev: RpdcDevice, input_label: str) -> AxisCheckResult:
    """Send one linear cardinal state through the rotated straight region.

    Models the parallel region alone as a rotated retarder (slow axis at
    alpha_deg, retardance retardance_rad, the device transmittance) and
    analyzes the output against the ideal half-wave image of the input,
    the linear state e = 2 alpha - theta_in. The normalized output Stokes
    vector of the pure output field (e_h, e_v) of power p is
    (p, 2 Re(e_h e_v*), -2 Im(e_h e_v*), |e_h|^2 - |e_v|^2) / p, the Stokes
    vector of its projector. The visibility is the power balance between
    e and e + 90, s3 cos 2e + s1 sin 2e. The region's Jones matrix is built
    on the first call for a device object and kept on it
    (`_straight_region`); each call applies it to the input field in
    complex scalars.
    """
    if input_label not in _LINEAR_ANGLES:
        raise ValueError(f"input_label must be one of "
                         f"{', '.join(_LINEAR_ANGLES)}, got {input_label!r}")
    theta_in = _LINEAR_ANGLES[input_label]
    (r_hh, r_hv), (r_vh, r_vv) = _straight_region(dev)
    state = cardinal_state(input_label)
    x, y = complex(state.e_h), complex(state.e_v)
    e_h, e_v = r_hh * x + r_hv * y, r_vh * x + r_vv * y

    expected_angle = (2.0 * dev.alpha_deg - theta_in) % 180.0
    jones = JonesVector(e_h, e_v)
    p_h, p_v = abs(e_h) ** 2, abs(e_v) ** 2
    p = p_h + p_v
    if p == 0:
        raise ValueError("zero Jones vector has no polarization state")
    cross = e_h * e_v.conjugate()
    stokes = StokesVector(1.0, 2.0 * cross.real / p, -2.0 * cross.imag / p,
                          (p_h - p_v) / p)
    two_e = math.radians(2.0 * expected_angle)
    visibility = stokes.s3 * math.cos(two_e) + stokes.s1 * math.sin(two_e)
    # ellipse angles from the polarized part; s3 is the H/V balance and
    # s1 the D/A balance, so the standard formulas read (s3, s1, s2)
    orientation = math.degrees(0.5 * math.atan2(stokes.s1, stokes.s3)) % 180.0
    dop = stokes.polarized_power
    ellipticity = math.degrees(0.5 * math.asin(
        min(max(stokes.s2 / dop, -1.0), 1.0)))
    return AxisCheckResult(
        input_label=input_label,
        expected_angle_deg=expected_angle,
        expected_label=_label_for_angle(expected_angle),
        visibility=visibility,
        orientation_deg=orientation,
        ellipticity_deg=ellipticity,
        stokes=stokes,
        jones=jones)


class SweepPoint(NamedTuple):
    """Normalized (loss removed) port powers at one coupling length.

    An immutable named tuple: the row (length_mm, p_t_slow, p_t_fast,
    p_r_slow, p_r_fast), with each field also read by name.
    """

    length_mm: float
    p_t_slow: float
    p_t_fast: float
    p_r_slow: float
    p_r_fast: float


def sweep_coupling_length(dev: RpdcDevice, lengths_mm) -> list:
    """Port powers for axis-aligned inputs across coupling lengths.

    Bend phases stay fixed while the straight length varies; powers are
    normalized to unit input with the transmittance divided out, so the
    cross-port traces are sin^2(K Z + phi) per axis. `lengths_mm` is any
    iterable of numbers; `_axis_powers` evaluates the whole grid in one
    numpy pass, and each row is a `SweepPoint` of Python floats.

    Raises:
        ValueError: naming the first length, in input order, that is not
            finite and >= 0, or whose phase k * length + bend phase
            overflows on an axis.
    """
    z = np.fromiter(lengths_mm, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _axis_powers(dev, z)
    # an infinite or NaN length, or an overflowing phase, makes sin^2 NaN
    bad = np.flatnonzero(~(z >= 0) | np.isnan(powers[0] + powers[1]))
    if bad.size:
        first = float(z[bad[0]])
        if not 0 <= first < math.inf:
            raise ValueError(f"lengths must be finite and >= 0, got {first}")
        raise ValueError(f"length {first} mm overflows the phase k * length "
                         "+ bend phase of an axis")
    return list(map(SweepPoint._make,
                    zip(z.tolist(), *(p.tolist() for p in powers))))


def device_to_dict(dev: RpdcDevice) -> dict:
    """JSON-ready description: the fields under their `DEVICE_JSON_FIELDS` keys."""
    return dict(zip(DEVICE_JSON_FIELDS, dataclasses.astuple(dev)))


def device_from_dict(data: dict) -> RpdcDevice:
    """Validate a parsed device description; all 8 fields, nothing else."""
    check_fields(data, "device description", DEVICE_JSON_FIELDS,
                 DEVICE_JSON_FIELDS)
    return RpdcDevice(*(read_number(data[f], f"device field {f}")
                        for f in DEVICE_JSON_FIELDS))


def load_device(path) -> RpdcDevice:
    data = read_json(path)
    try:
        return device_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_device(dev: RpdcDevice, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(device_to_dict(dev), fh, indent=2)
        fh.write("\n")
