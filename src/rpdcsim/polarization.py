"""Exact single-qubit polarization algebra.

Jones vectors, Stokes vectors, density matrices, the Pauli basis and the
conversions among them, plus fidelity/purity metrics.

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

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

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
        if not (np.isfinite(self.e_h) and np.isfinite(self.e_v)):
            raise ValueError("Jones components must be finite")

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
        return JonesVector(self.e_h / np.sqrt(p), self.e_v / np.sqrt(p))


_SQ2 = 1 / np.sqrt(2)
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
        if not all(np.isfinite(v) for v in self.as_tuple()):
            raise ValueError("Stokes components must be finite")

    def as_tuple(self) -> tuple:
        return (self.s0, self.s1, self.s2, self.s3)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @property
    def polarized_power(self) -> float:
        return float(np.sqrt(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2))

    def degree_of_polarization(self) -> float:
        if self.s0 <= 0:
            raise ValueError("degree of polarization needs s0 > 0")
        return self.polarized_power / self.s0

    def is_physical(self, tol: float = 1e-9) -> bool:
        return self.s0 > 0 and self.degree_of_polarization() <= 1 + tol

    def normalized(self) -> "StokesVector":
        if self.s0 <= 0:
            raise ValueError("cannot normalize a Stokes vector with s0 <= 0")
        return StokesVector(1.0, self.s1 / self.s0, self.s2 / self.s0,
                            self.s3 / self.s0)


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
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) >= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace() - 1) >= TRACE_TOL:
            raise ValueError(f"density matrix trace {m.trace():.17g} != 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.matrix)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def is_physical(self, eigenvalue_floor: float = PSD_EIGENVALUE_FLOOR) -> bool:
        return self.min_eigenvalue() >= eigenvalue_floor


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
    m = rho.matrix
    return StokesVector(
        float(np.real(np.trace(m))),
        float(np.real(np.trace(m @ SIGMA_1))),
        float(np.real(np.trace(m @ SIGMA_2))),
        float(np.real(np.trace(m @ SIGMA_3))),
    )


def stokes_to_density(s: StokesVector) -> DensityMatrix:
    """Inverse map ``rho = (1/2) sum_i (s_i/s0) sigma_i``.

    The result is Hermitian and trace-one for any input, but positive
    semidefinite only when the polarized power does not exceed ``s0``.
    """
    if s.s0 <= 0:
        raise ValueError(f"total power s0 must be positive, got {s.s0}")
    n = s.normalized()
    m = 0.5 * (SIGMA_0 + n.s1 * SIGMA_1 + n.s2 * SIGMA_2 + n.s3 * SIGMA_3)
    return DensityMatrix(m)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity ``(trace sqrt(sqrt(a) b sqrt(a)))^2`` in [0, 1].

    Equals ``<psi|a|psi>`` when ``b`` is the pure state ``|psi><psi|``.

    Raises:
        ValueError: if either argument is not positive semidefinite.
    """
    for name, rho in (("a", a), ("b", b)):
        if not rho.is_physical():
            raise ValueError(
                f"fidelity argument {name} is not positive semidefinite "
                f"(min eigenvalue {rho.min_eigenvalue():.3e})")
    sa = _psd_sqrt(a.matrix)
    inner = sa @ b.matrix @ sa
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sqrt(vals).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """``trace(rho^2)``; 1 for pure states, 1/2 for the maximally mixed."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
