"""Coupled-mode propagation: analytic law, RK4 oracle, splitting ratios."""

import dataclasses
import math

import numpy as np
import pytest

from rpdcsim.coupling import (
    CouplerParams,
    ModeAmplitudes,
    bend_phase_from_shortening,
    coupler_transfer_matrix,
    cross_coupling_ratio,
    pdc_coupling_length,
    propagate_analytic,
    propagate_numeric,
)


def random_amps(rng):
    return ModeAmplitudes(*(rng.normal(size=2) + 1j * rng.normal(size=2)))


class TestParams:
    def test_negative_length(self):
        with pytest.raises(ValueError):
            CouplerParams.symmetric(0.0, 1.0, -1.0)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            CouplerParams(0.0, np.nan, 1.0, 1.0, 1.0)

    def test_symmetry_flag(self):
        assert CouplerParams.symmetric(1.0, 0.5, 10.0).is_symmetric
        assert not CouplerParams(1.0, 1.1, 0.5, 0.5, 10.0).is_symmetric
        assert not CouplerParams(1.0, 1.0, 0.5, 0.6, 10.0).is_symmetric
        # negative K is reserved for the numeric path
        assert not CouplerParams.symmetric(1.0, -0.5, 10.0).is_symmetric

    def test_nonfinite_amplitudes(self):
        with pytest.raises(ValueError):
            ModeAmplitudes(np.inf, 0.0)

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(CouplerParams)])
    def test_non_finite_field_rejected(self, field):
        good = CouplerParams(0.5, 0.5, 0.2, 0.2, 23.0, 1.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError,
                               match=f"^{field} must be finite, got {bad}$"):
                dataclasses.replace(good, **{field: bad})

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(ModeAmplitudes)])
    def test_non_finite_amplitude_rejected(self, field):
        good = ModeAmplitudes(0.6 + 0.1j, -0.2j)
        for bad in (complex(math.nan, 0.0), complex(0.0, math.inf),
                    complex(-math.inf, 1.0), math.nan, np.inf):
            with pytest.raises(ValueError) as info:
                dataclasses.replace(good, **{field: bad})
            assert str(info.value) == f"{field} must be finite, got {bad}"


class TestAnalytic:
    def test_full_cross(self):
        # K Z = pi/2 moves all power to the other guide
        p = CouplerParams.symmetric(0.7, math.pi / 2 / 23.0, 23.0)
        out = propagate_analytic(p, ModeAmplitudes(1, 0))
        assert abs(out.a1) < 1e-12
        assert abs(out.a2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_length_identity(self):
        p = CouplerParams.symmetric(0.9, 1.3, 0.0)
        out = propagate_analytic(p, ModeAmplitudes(0.6, 0.8j))
        assert out.a1 == pytest.approx(0.6, abs=1e-15)
        assert out.a2 == pytest.approx(0.8j, abs=1e-15)

    def test_balanced_splitter(self):
        p = CouplerParams.symmetric(0.0, 1.0, math.pi / 4)
        out = propagate_analytic(p, ModeAmplitudes(1, 0))
        assert abs(out.a1) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.a2) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_bend_phase_adds_to_argument(self):
        phi = 0.37
        a = propagate_analytic(
            CouplerParams.symmetric(0.4, 1.0, 2.0, phi), ModeAmplitudes(1, 0))
        b = propagate_analytic(
            CouplerParams.symmetric(0.4, 1.0, 2.0 + phi), ModeAmplitudes(1, 0))
        # same coupling argument, different beta phase only
        assert abs(a.a1) == pytest.approx(abs(b.a1), abs=1e-12)
        assert abs(a.a2) == pytest.approx(abs(b.a2), abs=1e-12)

    def test_power_conserved_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = CouplerParams.symmetric(rng.uniform(0, 5), rng.uniform(0, 2),
                                        rng.uniform(0, 50),
                                        rng.uniform(0, 2 * math.pi))
            amps = random_amps(rng)
            out = propagate_analytic(p, amps)
            assert out.power == pytest.approx(amps.power, rel=1e-12, abs=0)

    def test_composition(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            beta, k = rng.uniform(0, 5), rng.uniform(0, 2)
            z1, z2 = rng.uniform(0, 25, size=2)
            f1, f2 = rng.uniform(0, 1, size=2)
            amps = random_amps(rng)
            step1 = propagate_analytic(
                CouplerParams.symmetric(beta, k, z1, f1), amps)
            both = propagate_analytic(
                CouplerParams.symmetric(beta, k, z2, f2), step1)
            direct = propagate_analytic(
                CouplerParams.symmetric(beta, k, z1 + z2, f1 + f2), amps)
            assert np.allclose(both.as_array(), direct.as_array(), atol=1e-12)

    def test_refuses_asymmetric(self):
        amps = ModeAmplitudes(1, 0)
        with pytest.raises(ValueError, match="propagate_numeric"):
            propagate_analytic(CouplerParams(1.0, 1.2, 0.5, 0.5, 5.0), amps)
        with pytest.raises(ValueError, match="propagate_numeric"):
            propagate_analytic(CouplerParams(1.0, 1.0, 0.5, 0.4, 5.0), amps)

    def test_transfer_matrix_unitary(self):
        m = coupler_transfer_matrix(CouplerParams.symmetric(1.0, 0.8, 7.0, 0.2))
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14)


class TestNumeric:
    def test_matches_analytic(self):
        # oracle equivalence across the symmetric parameter space
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = CouplerParams.symmetric(rng.uniform(0, 2), rng.uniform(0, 2),
                                        rng.uniform(0, 50),
                                        rng.uniform(0, 2 * math.pi))
            amps = random_amps(rng)
            ana = propagate_analytic(p, amps).as_array()
            num = propagate_numeric(p, amps).as_array()
            assert np.max(np.abs(ana - num)) < 1e-9

    def test_uncoupled_phases_only(self):
        p = CouplerParams(1.3, 0.7, 0.0, 0.0, 11.0)
        out = propagate_numeric(p, ModeAmplitudes(0.6, 0.8))
        assert out.a1 == pytest.approx(0.6 * np.exp(-1j * 1.3 * 11.0),
                                       abs=1e-9)
        assert out.a2 == pytest.approx(0.8 * np.exp(-1j * 0.7 * 11.0),
                                       abs=1e-9)

    def test_detuned_rabi_ceiling(self):
        # delta_beta = 2K caps the transfer at K^2/(K^2+delta^2) = 1/2
        k, b1 = 0.8, 1.0
        b2 = b1 + 2 * k
        omega = math.sqrt(k ** 2 + ((b1 - b2) / 2) ** 2)
        p = CouplerParams(b1, b2, k, k, math.pi / (2 * omega))
        out = propagate_numeric(p, ModeAmplitudes(1, 0))
        assert abs(out.a2) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_detuned_rabi_curve(self):
        # |a2(z)|^2 = K^2/Omega^2 sin^2(Omega z), Omega^2 = K^2 + delta^2
        k, b1, b2 = 0.8, 1.0, 2.6
        omega = math.sqrt(k ** 2 + ((b1 - b2) / 2) ** 2)
        for z in np.linspace(0.1, 8.0, 13):
            p = CouplerParams(b1, b2, k, k, z)
            got = abs(propagate_numeric(p, ModeAmplitudes(1, 0)).a2) ** 2
            want = k ** 2 / omega ** 2 * math.sin(omega * z) ** 2
            assert got == pytest.approx(want, abs=1e-9)

    def test_power_drift_bounded(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            p = CouplerParams.symmetric(rng.uniform(0, 5), rng.uniform(0, 2),
                                        100.0)
            amps = random_amps(rng)
            out = propagate_numeric(p, amps)
            assert abs(out.power - amps.power) / amps.power < 1e-9

    def test_convergence_order(self):
        p = CouplerParams.symmetric(1.1, 1.3, 10.0, 0.4)
        amps = ModeAmplitudes(1, 0)
        ana = propagate_analytic(p, amps).as_array()
        e_coarse = np.max(np.abs(
            propagate_numeric(p, amps, 0.05).as_array() - ana))
        e_fine = np.max(np.abs(
            propagate_numeric(p, amps, 0.025).as_array() - ana))
        assert e_coarse / e_fine >= 14.0

    def test_bad_step(self):
        p = CouplerParams.symmetric(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            propagate_numeric(p, ModeAmplitudes(1, 0), step_mm=0.0)


class TestCrossCouplingRatio:
    def test_quarter_period(self):
        t, r = cross_coupling_ratio(math.pi / (2 * 23.0), 23.0)
        assert t == pytest.approx(1.0, abs=1e-15)
        assert r == pytest.approx(0.0, abs=1e-7)

    def test_zero_length_bar_state(self):
        assert cross_coupling_ratio(1.0, 0.0) == (0.0, 1.0)

    def test_pythagorean(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            t, r = cross_coupling_ratio(rng.uniform(0, 3),
                                        rng.uniform(0, 60),
                                        rng.uniform(0, 2 * math.pi))
            assert 0.0 <= t <= 1.0 and 0.0 <= r <= 1.0
            assert t * t + r * r == pytest.approx(1.0, abs=1e-15)

    def test_sine_shape_along_length(self):
        k = 0.11
        for z in np.linspace(0, 40, 81):
            t, _ = cross_coupling_ratio(k, z)
            assert t == pytest.approx(abs(math.sin(k * z)), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            cross_coupling_ratio(-0.1, 1.0)
        with pytest.raises(ValueError):
            cross_coupling_ratio(0.1, -1.0)
        for args, message in [
                ((math.nan, 1.0), "k must be finite, got nan"),
                ((math.inf, 1.0), "k must be finite, got inf"),
                ((-math.inf, 1.0), "k must be finite, got -inf"),
                ((0.1, math.inf), "length_mm must be finite, got inf"),
                ((0.1, 1.0, math.nan),
                 "bend_phase_rad must be finite, got nan"),
                ((1e300, 1e300), "phase overflows: k 1e+300, length_mm "
                                 "1e+300, bend_phase_rad 0.0")]:
            with pytest.raises(ValueError) as info:
                cross_coupling_ratio(*args)
            assert str(info.value) == message


class TestPdcLength:
    def test_reference_length(self):
        # delta K = pi/57 rad/mm puts the straight PDC at 28.5 mm
        assert pdc_coupling_length(math.pi / 57, 0.0) == 28.5
        got = pdc_coupling_length(math.pi / 19, 2 * math.pi / 57)
        assert got == pytest.approx(28.5, abs=1e-12)

    def test_direct_formula(self):
        assert pdc_coupling_length(2.0, 1.0) == pytest.approx(math.pi / 2,
                                                              abs=1e-15)

    def test_halving_delta_doubles_length(self):
        l1 = pdc_coupling_length(1.2, 0.4)
        l2 = pdc_coupling_length(0.8, 0.4)
        assert l2 == pytest.approx(2 * l1, rel=1e-13, abs=0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="slow"):
            pdc_coupling_length(1.0, 1.0)
        with pytest.raises(ValueError, match="slow"):
            pdc_coupling_length(0.5, 1.0)
        with pytest.raises(ValueError):
            pdc_coupling_length(1.0, -0.1)

    def test_non_finite_named(self):
        for args, message in [
                ((math.nan, 0.0), "k_slow must be finite, got nan"),
                ((math.inf, 0.0), "k_slow must be finite, got inf"),
                ((1.0, math.nan), "k_fast must be finite, got nan"),
                ((1.0, math.inf), "k_fast must be finite, got inf"),
                ((0.0, math.inf), "k_fast must be finite, got inf"),
                ((math.inf, math.inf), "k_slow must be finite, got inf"),
                ((1e-320, 0.0), "length overflows: k_slow 1e-320, "
                                "k_fast 0.0")]:
            with pytest.raises(ValueError) as info:
                pdc_coupling_length(*args)
            assert str(info.value) == message


class TestBendPhase:
    def test_reference_shortening(self):
        # oracle: solve sin(dk l_eff + phi) = sin(dk l_straight) on the
        # rising quarter-wave, i.e. phi = asin(sin(dk l_s)) - dk l_eff
        dk = math.pi / 57
        oracle = math.asin(math.sin(dk * 28.5)) - dk * 23.0
        got = bend_phase_from_shortening(28.5, 23.0, dk)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.3031361332411204, abs=1e-12)

    def test_no_shortening(self):
        assert bend_phase_from_shortening(28.5, 28.5, 0.1) == 0.0

    def test_direct_formula(self):
        assert bend_phase_from_shortening(10.0, 5.0, 0.1) == pytest.approx(
            0.5, abs=1e-15)

    def test_ordering(self):
        with pytest.raises(ValueError):
            bend_phase_from_shortening(10.0, 11.0, 0.1)
        with pytest.raises(ValueError):
            bend_phase_from_shortening(10.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            bend_phase_from_shortening(10.0, 5.0, 0.0)
        for args, message in [
                ((10.0, 5.0, math.nan), "delta_k must be finite, got nan"),
                ((math.inf, 5.0, 1.0),
                 "l_straight_mm must be finite, got inf"),
                ((5.0, math.inf, 1.0),
                 "l_effective_mm must be finite, got inf"),
                ((10.0, 5.0, -math.inf), "delta_k must be finite, got -inf"),
                ((1e300, 5.0, 1e300),
                 "phase overflows: l_straight_mm 1e+300, l_effective_mm 5.0, "
                 "delta_k 1e+300")]:
            with pytest.raises(ValueError) as info:
                bend_phase_from_shortening(*args)
            assert str(info.value) == message
