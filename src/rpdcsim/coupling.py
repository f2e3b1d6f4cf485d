"""Two-waveguide coupled-mode propagation.

Equations of motion (power-conserving convention):

    da1/dz = -i beta1 a1 - i k12 a2
    da2/dz = -i k21 a1 - i beta2 a2

The symmetric lossless case (beta1 = beta2, k12 = k21 = K >= 0) has the
closed form used by `propagate_analytic`; everything else goes through the
fixed-step RK4 integrator `propagate_numeric`, which doubles as the oracle
for the analytic path.

The S-bend regions that feed a straight coupler contribute extra coupling,
modeled as a lumped phase added to the argument of the sin/cos transfer
functions (equivalently a coupling-plane rotation applied after the
straight section).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import check_finite, finite_result

SYMMETRY_TOL = 1e-12
DEFAULT_STEP_MM = 1e-3


@dataclass(frozen=True)
class CouplerParams:
    """Coupled-mode coefficients over one straight section.

    beta1, beta2 are propagation constants and k12, k21 coupling
    coefficients, all in rad/mm; length_mm is the straight section length
    and bend_phase_rad the lumped S-bend contribution.
    """

    beta1: float
    beta2: float
    k12: float
    k21: float
    length_mm: float
    bend_phase_rad: float = 0.0

    def __post_init__(self):
        check_finite(**vars(self))
        if self.length_mm < 0:
            raise ValueError(f"length_mm must be >= 0, got {self.length_mm}")

    @property
    def is_symmetric(self) -> bool:
        return (abs(self.beta1 - self.beta2) < SYMMETRY_TOL
                and abs(self.k12 - self.k21) < SYMMETRY_TOL
                and self.k12 >= 0)

    @classmethod
    def symmetric(cls, beta: float, k: float, length_mm: float,
                  bend_phase_rad: float = 0.0) -> "CouplerParams":
        return cls(beta, beta, k, k, length_mm, bend_phase_rad)


@dataclass(frozen=True)
class ModeAmplitudes:
    """Complex field amplitudes in the two guides."""

    a1: complex
    a2: complex

    def __post_init__(self):
        check_finite(**vars(self))

    @property
    def power(self) -> float:
        return abs(self.a1) ** 2 + abs(self.a2) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2], dtype=complex)

    @classmethod
    def from_array(cls, arr) -> "ModeAmplitudes":
        arr = np.asarray(arr, dtype=complex).reshape(2)
        return cls(complex(arr[0]), complex(arr[1]))


def _bend_rotation(phase_rad: float) -> np.ndarray:
    c, s = math.cos(phase_rad), math.sin(phase_rad)
    return np.array([[c, -1j * s], [-1j * s, c]])


def coupler_transfer_matrix(p: CouplerParams) -> np.ndarray:
    """Closed-form 2x2 transfer matrix of a symmetric coupler.

    e^{-i beta Z} [[cos(KZ+phi), -i sin(KZ+phi)],
                   [-i sin(KZ+phi), cos(KZ+phi)]]

    Raises:
        ValueError: params are asymmetric or detuned; use propagate_numeric.
    """
    if not p.is_symmetric:
        raise ValueError(
            "analytic solution needs beta1 = beta2 and k12 = k21 = K >= 0; "
            "use propagate_numeric for detuned or asymmetric parameters")
    arg = p.k12 * p.length_mm + p.bend_phase_rad
    return np.exp(-1j * p.beta1 * p.length_mm) * _bend_rotation(arg)


def propagate_analytic(p: CouplerParams, amps: ModeAmplitudes) -> ModeAmplitudes:
    """Propagate through a symmetric coupler via the closed form."""
    return ModeAmplitudes.from_array(coupler_transfer_matrix(p)
                                     @ amps.as_array())


def propagate_numeric(p: CouplerParams, amps: ModeAmplitudes,
                      step_mm: float = DEFAULT_STEP_MM) -> ModeAmplitudes:
    """Fixed-step RK4 integration of the coupled-mode equations.

    The coefficients are constant along z, so one RK4 step is the linear
    map G = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 with
    A = -i [[beta1, k12], [k21, beta2]]; n steps compose to G^n, which
    matrix_power evaluates identically to sequential stepping up to
    float reassociation. The lumped bend rotation is applied after the
    straight section.

    Parameters
    ----------
    p : CouplerParams
    amps : ModeAmplitudes
        Input amplitudes at z = 0.
    step_mm : float
        Step size; the actual step divides length_mm exactly.

    Returns
    -------
    ModeAmplitudes at z = length_mm, including the bend contribution.
    """
    if step_mm <= 0:
        raise ValueError(f"step_mm must be > 0, got {step_mm}")
    a = np.array([[p.beta1, p.k12], [p.k21, p.beta2]], dtype=complex)
    a *= -1j
    n = max(1, math.ceil(p.length_mm / step_mm))
    m = (p.length_mm / n) * a
    g = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in (1, 2, 3, 4):
        term = term @ m / k
        g = g + term
    out = _bend_rotation(p.bend_phase_rad) @ np.linalg.matrix_power(g, n)
    return ModeAmplitudes.from_array(out @ amps.as_array())


def cross_coupling_ratio(k: float, length_mm: float,
                         bend_phase_rad: float = 0.0) -> tuple:
    """Field cross/bar amplitude ratios (T, R) of a symmetric coupler.

    T = |sin(K Z + phi)| and R = sqrt(1 - T^2), so T^2 + R^2 = 1 and the
    corresponding powers split as sin^2 / cos^2. Each argument, and the
    phase K Z + phi, must be finite.
    """
    given = check_finite(k=k, length_mm=length_mm,
                         bend_phase_rad=bend_phase_rad)
    if k < 0:
        raise ValueError(f"coupling coefficient must be >= 0, got {k}")
    if length_mm < 0:
        raise ValueError(f"length_mm must be >= 0, got {length_mm}")
    phase = finite_result(k * length_mm + bend_phase_rad, "phase", **given)
    t = abs(math.sin(phase))
    return t, math.sqrt(1.0 - t * t)


def pdc_coupling_length(k_slow: float, k_fast: float) -> float:
    """Shortest length splitting the two polarizations to opposite ports.

    L = pi / (2 (K_S - K_F)): at this length the slow- and fast-axis
    transfer arguments differ by pi/2. Both coefficients, and L, must be
    finite.
    """
    given = check_finite(k_slow=k_slow, k_fast=k_fast)
    if k_fast < 0:
        raise ValueError(f"k_fast must be >= 0, got {k_fast}")
    if k_slow <= k_fast:
        raise ValueError(
            f"slow axis must couple more strongly: k_slow {k_slow} "
            f"<= k_fast {k_fast}")
    return finite_result(math.pi / (2.0 * (k_slow - k_fast)), "length",
                         **given)


def bend_phase_from_shortening(l_straight_mm: float, l_effective_mm: float,
                               delta_k: float) -> float:
    """Lumped bend phase that shortens a straight coupler.

    A coupler that behaves like length l_straight while its parallel
    section is only l_effective carries phi = delta_k (l_straight -
    l_effective) in the transfer argument. Each argument, and phi, must be
    finite.
    """
    given = check_finite(l_straight_mm=l_straight_mm,
                         l_effective_mm=l_effective_mm, delta_k=delta_k)
    if delta_k <= 0:
        raise ValueError(f"delta_k must be > 0, got {delta_k}")
    if not 0 < l_effective_mm <= l_straight_mm:
        raise ValueError(
            f"need 0 < l_effective_mm <= l_straight_mm, got "
            f"{l_effective_mm} and {l_straight_mm}")
    return finite_result(delta_k * (l_straight_mm - l_effective_mm), "phase",
                         **given)
