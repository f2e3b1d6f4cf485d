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

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplerParams, coupler_transfer_matrix
from .polarization import (
    JonesVector,
    StokesVector,
    cardinal_state,
    density_to_stokes,
    jones_to_density,
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
    """Rotated polarization directional coupler.

    alpha_deg locates the slow axis in the lab frame. coupler_slow and
    coupler_fast share one physical length; the slow axis must couple at
    least as strongly as the fast one. retardance_rad is the residual
    slow-minus-fast phase of the straight section; amplitude_transmittance
    scales output fields (power goes as its square).
    """

    alpha_deg: float
    coupler_slow: CouplerParams
    coupler_fast: CouplerParams
    amplitude_transmittance: float = 1.0
    retardance_rad: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha_deg)
                and math.isfinite(self.retardance_rad)):
            raise ValueError("device parameters must be finite")
        if not 0 <= self.alpha_deg < 180:
            raise ValueError(f"alpha_deg must be in [0, 180), got {self.alpha_deg}")
        if not 0 < self.amplitude_transmittance <= 1:
            raise ValueError("amplitude_transmittance must be in (0, 1], got "
                             f"{self.amplitude_transmittance}")
        if self.retardance_rad < 0:
            raise ValueError(f"retardance_rad must be >= 0, got {self.retardance_rad}")
        if self.coupler_slow.length_mm != self.coupler_fast.length_mm:
            raise ValueError(
                "one physical device: coupler lengths differ, "
                f"{self.coupler_slow.length_mm} != {self.coupler_fast.length_mm}")
        if self.coupler_slow.k12 < self.coupler_fast.k12:
            raise ValueError(
                f"slow axis must couple at least as strongly: k_slow "
                f"{self.coupler_slow.k12} < k_fast {self.coupler_fast.k12}")

    @property
    def length_mm(self) -> float:
        return self.coupler_slow.length_mm

    def with_length(self, length_mm: float) -> "RpdcDevice":
        return dataclasses.replace(
            self,
            coupler_slow=dataclasses.replace(self.coupler_slow,
                                             length_mm=length_mm),
            coupler_fast=dataclasses.replace(self.coupler_fast,
                                             length_mm=length_mm))


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
    return RpdcDevice(
        alpha_deg=alpha_deg,
        coupler_slow=CouplerParams.symmetric(
            0.0, k_slow, length_mm, k_slow * bend_length_mm),
        coupler_fast=CouplerParams.symmetric(
            0.0, k_fast, length_mm, k_fast * bend_length_mm),
        amplitude_transmittance=amplitude_transmittance,
        retardance_rad=retardance_rad)


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


def axis_port_powers(dev: RpdcDevice) -> PortPowers:
    """Feed unit power along each device axis, read both output ports.

    Both ports are diagonal over (slow, fast) in the device frame, so an
    axis-aligned input leaves each port with t^2 times the squared modulus
    of that axis's coupler entry: cross for port T, bar for port R.
    """
    t2 = dev.amplitude_transmittance ** 2
    m_slow = coupler_transfer_matrix(dev.coupler_slow)
    m_fast = coupler_transfer_matrix(dev.coupler_fast)
    return PortPowers(t_slow=t2 * abs(complex(m_slow[1, 0])) ** 2,
                      t_fast=t2 * abs(complex(m_fast[1, 0])) ** 2,
                      r_slow=t2 * abs(complex(m_slow[0, 0])) ** 2,
                      r_fast=t2 * abs(complex(m_fast[0, 0])) ** 2)


def extinction_db(p_num: float, p_den: float,
                  clamp: float = POWER_CLAMP) -> float:
    """|10 log10(p_num/p_den)| with dead-zero powers clamped at `clamp`."""
    if p_num < 0 or p_den < 0:
        raise ValueError("powers must be >= 0")
    return abs(10.0 * math.log10(max(p_num, clamp) / max(p_den, clamp)))


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


_ANGLE_LABELS = {0.0: "H", 45.0: "D", 90.0: "V", 135.0: "A"}


def _label_for_angle(angle_deg: float, tol: float = 1e-6) -> str:
    for ang, label in _ANGLE_LABELS.items():
        d = abs(angle_deg - ang) % 180.0
        if min(d, 180.0 - d) < tol:
            return label
    return ""


def simulate_axis_check(dev: RpdcDevice, input_label: str) -> AxisCheckResult:
    """Send one linear cardinal state through the rotated straight region.

    Models the parallel region alone as a rotated retarder (slow axis at
    alpha_deg, retardance retardance_rad, the device transmittance) and
    analyzes the output against the ideal half-wave image of the input,
    the linear state at 2 alpha - theta_in.
    """
    if input_label not in ("H", "V", "D", "A"):
        raise ValueError(f"input_label must be one of H, V, D, A, "
                         f"got {input_label!r}")
    theta_in = {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}[input_label]
    a = dev.alpha_deg
    half = 0.5j * dev.retardance_rad
    t = dev.amplitude_transmittance
    region = rotated_diagonal(a, t * np.exp(half), t * np.exp(-half))
    out = region @ cardinal_state(input_label).as_array()

    expected_angle = (2.0 * a - theta_in) % 180.0
    er = math.radians(expected_angle)
    e_expect = np.array([math.cos(er), math.sin(er)], dtype=complex)
    e_block = np.array([-math.sin(er), math.cos(er)], dtype=complex)
    p_expect = abs(np.vdot(e_expect, out)) ** 2
    p_block = abs(np.vdot(e_block, out)) ** 2
    visibility = (p_expect - p_block) / (p_expect + p_block)

    jones = JonesVector.from_array(out)
    stokes = density_to_stokes(jones_to_density(jones))
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
        visibility=float(visibility),
        orientation_deg=orientation,
        ellipticity_deg=ellipticity,
        stokes=stokes,
        jones=jones)


@dataclass(frozen=True)
class SweepPoint:
    """Normalized (loss removed) port powers at one coupling length."""

    length_mm: float
    p_t_slow: float
    p_t_fast: float
    p_r_slow: float
    p_r_fast: float


def sweep_coupling_length(dev: RpdcDevice, lengths_mm) -> list:
    """Port powers for axis-aligned inputs across coupling lengths.

    Bend phases stay fixed while the straight length varies; powers are
    normalized to unit input with the transmittance divided out, so the
    cross-port traces are sin^2(K Z + phi) per axis.
    """
    t2 = dev.amplitude_transmittance ** 2
    points = []
    for z in lengths_mm:
        if z < 0:
            raise ValueError(f"lengths must be >= 0, got {z}")
        p = axis_port_powers(dev.with_length(float(z)))
        points.append(SweepPoint(length_mm=float(z),
                                 p_t_slow=p.t_slow / t2,
                                 p_t_fast=p.t_fast / t2,
                                 p_r_slow=p.r_slow / t2,
                                 p_r_fast=p.r_fast / t2))
    return points


def device_to_dict(dev: RpdcDevice) -> dict:
    """JSON-ready description; couplers must be the zero-beta standard kind."""
    for c in (dev.coupler_slow, dev.coupler_fast):
        if c.beta1 != 0.0 or c.beta2 != 0.0:
            raise ValueError("device files describe zero-beta couplers; "
                             "fold per-axis phase into retardance_rad")
    return {
        "alpha_deg": dev.alpha_deg,
        "k_slow_rad_per_mm": dev.coupler_slow.k12,
        "k_fast_rad_per_mm": dev.coupler_fast.k12,
        "length_mm": dev.length_mm,
        "bend_phase_slow_rad": dev.coupler_slow.bend_phase_rad,
        "bend_phase_fast_rad": dev.coupler_fast.bend_phase_rad,
        "transmittance": dev.amplitude_transmittance,
        "retardance_rad": dev.retardance_rad,
    }


def device_from_dict(data: dict) -> RpdcDevice:
    """Validate a parsed device description; all 8 fields, nothing else."""
    if not isinstance(data, dict):
        raise ValueError("device description must be a JSON object")
    missing = [f for f in DEVICE_JSON_FIELDS if f not in data]
    if missing:
        raise ValueError(f"device description missing fields: "
                         f"{', '.join(missing)}")
    unknown = [f for f in data if f not in DEVICE_JSON_FIELDS]
    if unknown:
        raise ValueError(f"device description has unknown fields: "
                         f"{', '.join(unknown)}")
    vals = {}
    for f in DEVICE_JSON_FIELDS:
        v = data[f]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"device field {f} must be a number, got {v!r}")
        vals[f] = float(v)
    return RpdcDevice(
        alpha_deg=vals["alpha_deg"],
        coupler_slow=CouplerParams.symmetric(0.0, vals["k_slow_rad_per_mm"],
                                             vals["length_mm"],
                                             vals["bend_phase_slow_rad"]),
        coupler_fast=CouplerParams.symmetric(0.0, vals["k_fast_rad_per_mm"],
                                             vals["length_mm"],
                                             vals["bend_phase_fast_rad"]),
        amplitude_transmittance=vals["transmittance"],
        retardance_rad=vals["retardance_rad"])


def load_device(path) -> RpdcDevice:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        return device_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_device(dev: RpdcDevice, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(device_to_dict(dev), fh, indent=2)
        fh.write("\n")
