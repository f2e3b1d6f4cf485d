"""State representations, conversions and metrics."""

import numpy as np
import pytest

from rpdcsim.polarization import (
    CARDINAL_LABELS,
    PAULI_BASIS,
    RHO_MIXED,
    DensityMatrix,
    JonesVector,
    StokesVector,
    cardinal_state,
    density_to_stokes,
    fidelity,
    jones_to_density,
    linear_polarizer,
    purity,
    rotated_diagonal,
    rotation_deg,
    stokes_to_density,
)


def random_density(rng):
    """Random full-rank physical state via a Ginibre matrix."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPauliBasis:
    def test_orthogonality(self):
        # tr(sigma_i sigma_j) = 2 delta_ij, exactly representable
        for i, si in enumerate(PAULI_BASIS):
            for j, sj in enumerate(PAULI_BASIS):
                want = 2.0 if i == j else 0.0
                assert np.trace(si @ sj) == want

    def test_immutable(self):
        with pytest.raises(ValueError):
            PAULI_BASIS[1][0, 0] = 5


class TestJonesVector:
    def test_power(self):
        assert JonesVector(3, 4j).power == 25

    def test_normalized(self):
        v = JonesVector(3, 4j).normalized()
        assert v.power == pytest.approx(1, abs=1e-15)

    def test_zero_normalize_rejected(self):
        with pytest.raises(ValueError):
            JonesVector(0, 0).normalized()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            JonesVector(np.nan, 0)

    def test_cardinals_unit_power(self):
        for label in CARDINAL_LABELS:
            assert cardinal_state(label).power == pytest.approx(1, abs=1e-15)

    def test_cardinal_orthogonal_pairs(self):
        for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
            va = cardinal_state(a).as_array()
            vb = cardinal_state(b).as_array()
            assert abs(np.vdot(va, vb)) < 1e-15

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            cardinal_state("Q")


class TestRotationAndPolarizer:
    def test_rotation_90(self):
        # H rotated by 90 degrees is V
        v = rotation_deg(90) @ np.array([1, 0])
        assert np.allclose(v, [0, 1], atol=1e-15)

    def test_rotation_composition(self):
        assert np.allclose(rotation_deg(30) @ rotation_deg(40),
                           rotation_deg(70), atol=1e-15)

    def test_polarizer_projector(self):
        for ang in (0.0, 17.3, 45.0, 120.0):
            p = linear_polarizer(ang)
            assert np.allclose(p @ p, p, atol=1e-15)
            assert np.trace(p) == pytest.approx(1, abs=1e-15)

    def test_malus(self):
        # 30 degree offset between polarizer and input: cos^2(30) = 3/4
        out = linear_polarizer(30) @ np.array([1, 0], dtype=complex)
        assert np.vdot(out, out).real == pytest.approx(0.75, abs=1e-15)

    def test_rotated_diagonal_is_explicit_product(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            a = rng.uniform(-360.0, 360.0)
            d = rng.normal(size=2) + 1j * rng.normal(size=2)
            want = rotation_deg(a) @ np.diag(d) @ rotation_deg(-a)
            assert np.abs(rotated_diagonal(a, *d) - want).max() < 1e-15

    def test_rotated_diagonal_stacks(self):
        rng = np.random.default_rng(62)
        d0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        d1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        stack = rotated_diagonal(33.0, d0, d1)
        assert stack.shape == (3, 2, 2)
        for k in range(3):
            assert np.array_equal(stack[k], rotated_diagonal(33.0, d0[k],
                                                             d1[k]))


class TestDensityMatrix:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3)

    def test_indefinite_allowed_but_flagged(self):
        # linear tomography can emit this; construction must not reject it
        m = np.array([[1.2, 0], [0, -0.2]], dtype=complex)
        rho = DensityMatrix(m)
        assert not rho.is_physical()
        assert rho.min_eigenvalue() == pytest.approx(-0.2, abs=1e-15)

    def test_matrix_readonly(self):
        rho = jones_to_density(cardinal_state("H"))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0


class TestConversions:
    def test_h_projector(self):
        rho = jones_to_density(cardinal_state("H"))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_d_projector(self):
        rho = jones_to_density(cardinal_state("D"))
        assert np.allclose(rho.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_r_projector(self):
        rho = jones_to_density(cardinal_state("R"))
        assert np.allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]],
                           atol=1e-15)

    def test_jones_scale_invariance(self):
        a = jones_to_density(JonesVector(1, 1j))
        b = jones_to_density(JonesVector(5, 5j))
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_zero_jones_rejected(self):
        with pytest.raises(ValueError):
            jones_to_density(JonesVector(0, 0))

    def test_cardinal_stokes(self):
        # frozen unit Stokes vectors of the six cardinal states
        want = {
            "H": (1, 0, 0, 1),
            "V": (1, 0, 0, -1),
            "D": (1, 1, 0, 0),
            "A": (1, -1, 0, 0),
            "R": (1, 0, 1, 0),
            "L": (1, 0, -1, 0),
        }
        for label, s in want.items():
            got = density_to_stokes(jones_to_density(cardinal_state(label)))
            assert got.as_tuple() == pytest.approx(s, abs=1e-15), label

    def test_mixed_stokes(self):
        s = density_to_stokes(RHO_MIXED)
        assert s.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-15)

    def test_stokes_s0_scaling(self):
        # raw powers: conversion normalizes by s0
        rho = stokes_to_density(StokesVector(2, 0, 0, 2))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_stokes_nonpositive_s0_rejected(self):
        with pytest.raises(ValueError):
            stokes_to_density(StokesVector(0, 0, 0, 0))
        with pytest.raises(ValueError):
            stokes_to_density(StokesVector(-1, 0, 0, 0))

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vec = rng.normal(size=3)
            r = rng.uniform(0, 1)
            vec *= r / np.linalg.norm(vec)
            s = StokesVector(1.0, *vec)
            back = density_to_stokes(stokes_to_density(s))
            assert np.allclose(back.as_array(), s.as_array(), atol=1e-12)

    def test_unphysical_stokes_gives_indefinite_rho(self):
        rho = stokes_to_density(StokesVector(1, 0.9, 0.9, 0.9))
        assert not rho.is_physical()

    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = jones_to_density(JonesVector(*z))
            assert purity(rho) == pytest.approx(1, abs=1e-12)


class TestStokesVector:
    def test_dop(self):
        s = StokesVector(2, 0.6, 0, 0.8)
        assert s.degree_of_polarization() == pytest.approx(0.5, abs=1e-15)

    def test_physicality(self):
        assert StokesVector(1, 0, 0, 1).is_physical()
        assert not StokesVector(1, 1, 1, 0).is_physical()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StokesVector(1, np.inf, 0, 0)


class TestFidelityAndPurity:
    def test_identical_states(self):
        rho = jones_to_density(cardinal_state("D"))
        assert fidelity(rho, rho) == pytest.approx(1, abs=1e-12)

    def test_orthogonal_states(self):
        a = jones_to_density(cardinal_state("H"))
        b = jones_to_density(cardinal_state("V"))
        assert fidelity(a, b) == pytest.approx(0, abs=1e-12)

    def test_h_vs_d(self):
        # |<H|D>|^2 = 1/2
        a = jones_to_density(cardinal_state("H"))
        b = jones_to_density(cardinal_state("D"))
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_vs_pure(self):
        a = jones_to_density(cardinal_state("H"))
        assert fidelity(RHO_MIXED, a) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = random_density(rng), random_density(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a, b = random_density(rng), random_density(rng)
            u = random_unitary(rng)
            ua = DensityMatrix(u @ a.matrix @ u.conj().T)
            ub = DensityMatrix(u @ b.matrix @ u.conj().T)
            assert fidelity(ua, ub) == pytest.approx(fidelity(a, b),
                                                     abs=1e-10)

    def test_closed_form_cross_check(self):
        # for qubits F = tr(rho sigma) + 2 sqrt(det rho det sigma)
        rng = np.random.default_rng(15)
        for _ in range(100):
            a, b = random_density(rng), random_density(rng)
            want = (np.trace(a.matrix @ b.matrix).real
                    + 2 * np.sqrt(np.linalg.det(a.matrix).real
                                  * np.linalg.det(b.matrix).real))
            assert fidelity(a, b) == pytest.approx(want, abs=1e-10)

    def test_nonphysical_input_rejected(self):
        bad = DensityMatrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))
        with pytest.raises(ValueError):
            fidelity(bad, RHO_MIXED)
        with pytest.raises(ValueError):
            fidelity(RHO_MIXED, bad)

    def test_purity_values(self):
        assert purity(jones_to_density(cardinal_state("R"))) == pytest.approx(
            1, abs=1e-15)
        assert purity(RHO_MIXED) == pytest.approx(0.5, abs=1e-15)
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert purity(rho) == pytest.approx(0.625, abs=1e-15)

    def test_purity_bounds(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = purity(random_density(rng))
            assert 0.5 - 1e-12 <= p <= 1 + 1e-12
