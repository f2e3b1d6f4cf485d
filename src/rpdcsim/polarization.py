"""Exact single-qubit polarization algebra.

Jones vectors, Stokes vectors, density matrices, the Pauli basis and the
conversions among them, plus fidelity/purity metrics.

Every state is a qubit, so no eigendecomposition is needed: for the entries
of ``[[a, b], [c, d]]``, Stokes is ``(a + d, Re(b + c), Im(c - b), a - d)``,
the eigenvalues are ``tr/2 -+ hypot((a - d)/2, |b|)``, and the fidelity is
Hübner's ``tr(rho sigma) + 2 sqrt(det rho det sigma)`` (PLA 163, 239, 1992).

Conventions used throughout the package:

* Computational basis: ``|0> = H`` (horizontal), ``|1> = V`` (vertical).
* Stokes ordering: ``s1`` is the D/A balance, ``s2`` the R/L balance,
  ``s3`` the H/V balance, so that ``rho = (1/2) sum_i (s_i/s0) sigma_i``.
* Circular handedness: ``R = (H + iV)/sqrt(2)`` and ``L = (H - iV)/sqrt(2)``.
  Texts using the opposite handedness will disagree with ``s2`` by a sign.
* Rotations are counterclockwise in the H/V plane:
  ``R(a) = [[cos a, -sin a], [sin a, cos a]]``.

Stokes vectors are stored as raw (possibly unnormalized) powers; conversions
normalize by ``s0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import check_finite

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
DOP_TOL = 1e-9

SIGMA_0 = np.array([[1, 0], [0, 1]], dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_BASIS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)
for _sigma in PAULI_BASIS:
    _sigma.flags.writeable = False


def rotation_deg(angle_deg: float) -> np.ndarray:
    """Real 2x2 rotation of the H/V field components by ``angle_deg``."""
    a = np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def rotated_diagonal(angle_deg: float, d0, d1) -> np.ndarray:
    """Jones operator ``R(a) diag(d0, d1) R(-a)`` with ``a = angle_deg``.

    It scales the linear polarization at ``a`` by ``d0`` and the one at
    ``a + 90`` by ``d1``; 1-D arrays of one length give a stack of operators.
    """
    d = np.array([d0, d1], dtype=complex).T[..., None, :]
    return (rotation_deg(angle_deg) * d) @ rotation_deg(-angle_deg)


def linear_polarizer(angle_deg: float) -> np.ndarray:
    """Jones projector onto the linear polarization at ``angle_deg``."""
    return rotated_diagonal(angle_deg, 1.0, 0.0)


@dataclass(frozen=True)
class JonesVector:
    """Two-component complex field amplitude of a pure polarization state."""

    e_h: complex
    e_v: complex

    def __post_init__(self):
        check_finite(**vars(self))

    @classmethod
    def from_array(cls, arr) -> "JonesVector":
        arr = np.asarray(arr, dtype=complex).reshape(2)
        return cls(complex(arr[0]), complex(arr[1]))

    def as_array(self) -> np.ndarray:
        return np.array([self.e_h, self.e_v], dtype=complex)

    @property
    def power(self) -> float:
        return abs(self.e_h) ** 2 + abs(self.e_v) ** 2

    def normalized(self) -> "JonesVector":
        p = self.power
        if p == 0:
            raise ValueError("cannot normalize a zero Jones vector")
        return JonesVector(self.e_h / math.sqrt(p), self.e_v / math.sqrt(p))


_SQ2 = 1 / math.sqrt(2)
CARDINAL_STATES = {
    "H": JonesVector(1, 0),
    "V": JonesVector(0, 1),
    "D": JonesVector(_SQ2, _SQ2),
    "A": JonesVector(_SQ2, -_SQ2),
    "R": JonesVector(_SQ2, 1j * _SQ2),
    "L": JonesVector(_SQ2, -1j * _SQ2),
}
CARDINAL_LABELS = tuple(CARDINAL_STATES)


def cardinal_state(label: str) -> JonesVector:
    """One of the six Pauli eigenstates H, V, D, A, R, L."""
    try:
        return CARDINAL_STATES[label]
    except KeyError:
        raise ValueError(f"unknown state label {label!r}; expected one of "
                         f"{CARDINAL_LABELS}") from None


@dataclass(frozen=True)
class StokesVector:
    """Intensity-basis polarization state (raw powers, not normalized).

    ``s0`` is the total power; ``s1, s2, s3`` are the D/A, R/L and H/V
    power balances.  Physical states satisfy ``s1^2+s2^2+s3^2 <= s0^2``;
    noisy tomography data may violate this, so the bound is not enforced
    at construction.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        check_finite(**vars(self))

    def as_tuple(self) -> tuple:
        return (self.s0, self.s1, self.s2, self.s3)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @property
    def polarized_power(self) -> float:
        return math.sqrt(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2)

    def degree_of_polarization(self) -> float:
        if self.s0 <= 0:
            raise ValueError("degree of polarization needs s0 > 0")
        return self.polarized_power / self.s0

    def is_physical(self) -> bool:
        return self.s0 > 0 and self.degree_of_polarization() <= 1 + DOP_TOL


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian trace-one operator.

    Hermiticity and unit trace are hard invariants checked at construction.
    Positivity is *not*: linear tomography on noisy data legitimately
    produces indefinite matrices, which callers detect via
    :meth:`is_physical` and repair through maximum-likelihood estimation.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {m.shape}")
        if not all(map(math.isfinite, m.view(float).ravel().tolist())):
            raise ValueError("density matrix entries must be finite")
        # max |m - m^H| is 2 |Im| on the diagonal and |b - conj(c)| off it;
        # abs(off) runs only once both parts are small, so it cannot overflow
        (a, b), (c, d) = m.tolist()
        off = b - c.conjugate()
        if (2.0 * max(abs(a.imag), abs(d.imag)) >= HERMITICITY_TOL
                or max(abs(off.real), abs(off.imag)) >= HERMITICITY_TOL
                or abs(off) >= HERMITICITY_TOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(a + d - 1) >= TRACE_TOL:
            raise ValueError(f"density matrix trace {a + d:.17g} != 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues ``tr/2 -+ hypot((a - d)/2, |b|)``, ascending."""
        return np.array(self._spectrum())

    def min_eigenvalue(self) -> float:
        return self._spectrum()[0]

    def _spectrum(self) -> tuple:
        (a, b), (_, d) = self.matrix.tolist()
        half = math.hypot(0.5 * (a.real - d.real), b.real, b.imag)
        return 0.5 * (a.real + d.real) - half, 0.5 * (a.real + d.real) + half

    def is_physical(self) -> bool:
        return self.min_eigenvalue() >= PSD_EIGENVALUE_FLOOR


RHO_MIXED = DensityMatrix(np.eye(2, dtype=complex) / 2)


def jones_to_density(v: JonesVector) -> DensityMatrix:
    """Rank-one projector ``v v^dag / |v|^2`` of a pure state."""
    p = v.power
    if p == 0:
        raise ValueError("zero Jones vector has no polarization state")
    arr = v.as_array()
    return DensityMatrix(np.outer(arr, arr.conj()) / p)


def density_to_stokes(rho: DensityMatrix) -> StokesVector:
    """Stokes components ``s_i = trace(rho sigma_i)`` (so ``s0 = 1``)."""
    (a, b), (c, d) = rho.matrix.tolist()
    return StokesVector((a + d).real, (b + c).real, (c - b).imag,
                        (a - d).real)


def stokes_to_density(s: StokesVector) -> DensityMatrix:
    """Inverse map ``rho = (1/2) sum_i (s_i/s0) sigma_i``.

    The result is Hermitian and trace-one for any input, but positive
    semidefinite only when the polarized power does not exceed ``s0``.
    """
    if s.s0 <= 0:
        raise ValueError(f"total power s0 must be positive, got {s.s0}")
    x, y, z = s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0
    # 0.0 + v and 0.0 - v are never -0.0, so no entry is a negative zero
    off_re, off_im = 0.0 + 0.5 * x, 0.0 + 0.5 * y
    return DensityMatrix([[0.5 * (1 + z), complex(off_re, 0.0 - off_im)],
                          [complex(off_re, off_im), 0.5 * (1 - z)]])


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity ``(trace sqrt(sqrt(a) b sqrt(a)))^2`` in [0, 1].

    Computed by Hübner's qubit closed form ``tr(a b) + 2 sqrt(det a det b)``,
    each determinant clamped at 0. Equals ``<psi|a|psi>`` when ``b`` is the
    pure state ``|psi><psi|``.

    Raises:
        ValueError: if either argument is not positive semidefinite.
    """
    for name, rho in (("a", a), ("b", b)):
        if not rho.is_physical():
            raise ValueError(
                f"fidelity argument {name} is not positive semidefinite "
                f"(min eigenvalue {rho.min_eigenvalue():.3e})")
    (a0, a1), (a2, a3) = a.matrix.tolist()
    (b0, b1), (b2, b3) = b.matrix.tolist()
    overlap = (a0 * b0 + a1 * b2 + a2 * b1 + a3 * b3).real
    det_a = max((a0 * a3 - a1 * a2).real, 0.0)
    det_b = max((b0 * b3 - b1 * b2).real, 0.0)
    return min(max(overlap + 2.0 * math.sqrt(det_a * det_b), 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """``trace(rho^2)``; 1 for pure states, 1/2 for the maximally mixed."""
    (a, b), (c, d) = rho.matrix.tolist()
    return (a * a + b * c + c * b + d * d).real
