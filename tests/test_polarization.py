"""State representations, conversions and metrics."""

import itertools
import math

import numpy as np
import pytest

from rpdcsim.polarization import (
    CARDINAL_LABELS,
    HERMITICITY_TOL,
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


def random_pure(rng):
    """Rank-one projector of a random Jones vector, and the vector."""
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    return jones_to_density(JonesVector(*z)), z / np.linalg.norm(z)


def random_hermitian(rng):
    """Hermitian trace-one matrix, indefinite about half the time."""
    x = rng.normal(size=3) * rng.uniform(0.0, 2.0) / np.sqrt(3)
    return stokes_to_density(StokesVector(1.0, *x))


def eigh_fidelity(a, b):
    """Uhlmann fidelity through two eigendecompositions: the oracle."""
    vals, vecs = np.linalg.eigh(a.matrix)
    sa = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(sa @ b.matrix @ sa)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def array_rejects(m):
    """The construction checks as whole-array numpy expressions: the oracle."""
    m = np.array(m, dtype=complex)
    with np.errstate(over="ignore"):
        return (m.shape != (2, 2) or not np.all(np.isfinite(m))
                or np.max(np.abs(m - m.conj().T)) >= HERMITICITY_TOL
                or abs(m.trace() - 1) >= 1e-12)


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

    def test_fields_are_python_numbers(self):
        # numpy scalars would print as np.float64(...) in a repr
        assert repr(cardinal_state("D")) == (
            "JonesVector(e_h=0.7071067811865475, e_v=0.7071067811865475)")
        assert repr(JonesVector(3, 4).normalized()) == (
            "JonesVector(e_h=0.6, e_v=0.8)")

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

    def test_equal_states_compare_and_hash_alike(self):
        # the same state from the constructor, from Stokes and from Jones
        mixed = stokes_to_density(StokesVector(2.0, 0.0, 0.0, 0.0))
        assert mixed == RHO_MIXED and hash(mixed) == hash(RHO_MIXED)
        assert mixed == DensityMatrix(np.eye(2) / 2)
        h = jones_to_density(cardinal_state("H"))
        for same in (stokes_to_density(StokesVector(1, 0, 0, 1)),
                     stokes_to_density(StokesVector(1, -0.0, -0.0, 1)),
                     DensityMatrix(np.diag([1.0, 0.0]))):
            assert same == h and hash(same) == hash(h)
        assert len({h, mixed, RHO_MIXED}) == 2
        v = jones_to_density(cardinal_state("V"))
        assert v != h and v != mixed
        assert len({density_to_stokes(rho) for rho in (h, mixed, v)}) == 3

    def test_matrix_is_a_copy(self):
        m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        rho = DensityMatrix(m)
        m[0, 0] = 7.0
        assert rho.matrix[0, 0] == 0.5

    def test_eigenvalues_match_eigvalsh(self):
        rng = np.random.default_rng(21)
        states = [random_density(rng) for _ in range(300)]
        states += [random_hermitian(rng) for _ in range(300)]
        states += [random_pure(rng)[0] for _ in range(300)]
        for rho in states:
            want = np.linalg.eigvalsh(rho.matrix)
            got = rho.eigenvalues()
            assert isinstance(got, np.ndarray) and got[0] <= got[1]
            assert np.abs(got - want).max() <= 2e-15
            assert abs(rho.min_eigenvalue() - want[0]) <= 2e-15

    @pytest.mark.parametrize("tol_factor", [0.5, 1.0])
    def test_hermiticity_threshold(self, tol_factor):
        # each asymmetry just under, at and just over the tolerance: the
        # imaginary part of a diagonal entry counts twice in |m - m^H|
        base = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        edge = tol_factor * HERMITICITY_TOL
        seen = set()
        for eps in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0),
                    0.9 * edge, 1.1 * edge):
            cases = []
            if tol_factor == 0.5:
                for k in (0, 1):
                    m = base.copy()
                    m[k, k] += 1j * eps  # the trace moves by eps < TRACE_TOL
                    cases.append(m)
                    m = m.copy()
                    m[1 - k, 1 - k] -= 1j * eps
                    cases.append(m)
            else:
                for delta in (eps, 1j * eps, -eps, eps * np.exp(0.7j)):
                    for i, j in ((0, 1), (1, 0)):
                        m = base.copy()
                        m[i, j] += delta
                        cases.append(m)
                    m = np.array([[0.5, delta], [0.0, 0.5]])
                    cases.append(m)
            for m in cases:
                rejected = array_rejects(m)
                seen.add(rejected)
                if rejected:
                    with pytest.raises(ValueError, match="Hermitian"):
                        DensityMatrix(m)
                else:
                    DensityMatrix(m)
        assert seen == {False, True}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        # in the real or the imaginary part of each entry alone
        for i in range(2):
            for j in range(2):
                for z in (complex(bad, 0.0), complex(0.0, bad)):
                    m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
                    m[i, j] = z
                    assert array_rejects(m)
                    with pytest.raises(ValueError, match="finite"):
                        DensityMatrix(m)

    def test_trace_threshold(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5 + 1e-12, 0.5 + 1e-12]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5 - 1e-12, 0.5 - 1e-12]))
        rho = DensityMatrix(np.diag([0.5 + 2.5e-13, 0.5 + 2.5e-13]))
        assert not array_rejects(rho.matrix)

    def test_huge_hermitian_entries_accepted(self):
        # finite but with |b| beyond the float range: the checks must not
        # overflow, and the matrix is Hermitian, so it is kept
        m = np.array([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]])
        assert not array_rejects(m)
        assert not DensityMatrix(m).is_physical()
        asym = np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]])
        assert array_rejects(asym)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(asym)


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

    def test_no_entry_is_a_negative_zero(self):
        # equal states must print the same, so no part of rho is -0.0, for
        # components of either signed zero, at and off the poles
        for s1, s2, s3 in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3):
            for s0 in (1.0, 2.0):
                rho = stokes_to_density(StokesVector(s0, s1, s2, s3))
                parts = rho.matrix.view(float).ravel().tolist()
                assert not any(math.copysign(1.0, v) < 0 for v in parts
                               if v == 0), (s0, s1, s2, s3, parts)

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

    def test_stokes_is_trace_with_pauli(self):
        rng = np.random.default_rng(22)
        states = [random_density(rng) for _ in range(200)]
        states += [random_hermitian(rng) for _ in range(200)]
        for rho in states:
            got = density_to_stokes(rho).as_tuple()
            want = [np.trace(rho.matrix @ s).real for s in PAULI_BASIS]
            assert np.abs(np.subtract(got, want)).max() <= 1e-15

    def test_purity_is_trace_of_square(self):
        rng = np.random.default_rng(23)
        states = [random_density(rng) for _ in range(200)]
        states += [random_hermitian(rng) for _ in range(200)]
        for rho in states:
            want = np.trace(rho.matrix @ rho.matrix).real
            assert abs(purity(rho) - want) <= 1e-15

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

    @pytest.mark.parametrize("s0", [0.0, -0.0, -1.0])
    def test_dop_needs_positive_total_power(self, s0):
        with pytest.raises(ValueError, match="s0 > 0"):
            StokesVector(s0, 0.0, 0.0, 0.0).degree_of_polarization()
        assert not StokesVector(s0, 0.0, 0.0, 0.0).is_physical()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StokesVector(1, np.inf, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     np.float64(np.nan), np.float64(-np.inf),
                                     np.float32(np.inf)])
    def test_nonfinite_rejected_in_each_slot(self, bad):
        for slot in range(4):
            parts = [1.0, 0.0, 0.0, 0.0]
            parts[slot] = bad
            with pytest.raises(ValueError, match="finite"):
                StokesVector(*parts)


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
        # against the eigendecomposition form on full-rank pairs; the
        # oracle's own rounding grows as a state nears the sphere
        rng = np.random.default_rng(15)
        for _ in range(2000):
            a, b = random_density(rng), random_density(rng)
            assert abs(fidelity(a, b) - eigh_fidelity(a, b)) <= 2e-13

    def test_pure_and_rank_deficient_pairs(self):
        # F = <psi|sigma|psi> when a = |psi><psi|; rounding leaves det a
        # near 1e-17, whose square root both forms carry, so 2e-8 here
        rng = np.random.default_rng(17)
        for _ in range(2000):
            a, psi = random_pure(rng)
            b = random_density(rng) if rng.uniform() < 0.5 else (
                random_pure(rng)[0])
            want = np.vdot(psi, b.matrix @ psi).real
            for f in (fidelity(a, b), fidelity(b, a)):
                assert abs(f - want) <= 2e-8
                assert abs(f - eigh_fidelity(a, b)) <= 5e-8

    def test_exact_rank_one_pairs(self):
        h, v = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        d = np.full((2, 2), 0.5)
        for a, b, want in ((h, h, 1.0), (h, v, 0.0), (h, d, 0.5),
                           (d, RHO_MIXED.matrix, 0.5)):
            a, b = DensityMatrix(a), DensityMatrix(b)
            assert fidelity(a, b) == want
            assert eigh_fidelity(a, b) == pytest.approx(want, abs=1e-15)

    def test_negative_determinant_clamped(self):
        # inside the PSD floor, det a < 0: clamped, not a math domain error
        a = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert a.is_physical()
        assert fidelity(a, RHO_MIXED) == pytest.approx(0.5, abs=1e-10)
        assert fidelity(RHO_MIXED, a) == pytest.approx(0.5, abs=1e-10)
        assert fidelity(a, a) == 1.0

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
