"""State reconstruction: projection model, linear inversion, MLE, file I/O."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from rpdcsim import tomography
from rpdcsim.device import (
    RpdcDevice,
    axis_port_powers,
    load_device,
    make_pdc_device,
    port_transfer_matrices,
)
from rpdcsim.polarization import (
    DensityMatrix,
    RHO_MIXED,
    StokesVector,
    cardinal_state,
    density_to_stokes,
    fidelity,
    jones_to_density,
    purity,
    stokes_to_density,
)
from rpdcsim.tomography import (
    BASES,
    BASIS_STATES,
    MeasurementRecord,
    MleDivergenceError,
    NoiseConfig,
    cardinal_density,
    linear_reconstruct,
    load_measurement_csv,
    measure_records,
    mle_reconstruct,
    povm_effects,
    project_probabilities,
    result_to_dict,
    run_tomography_experiment,
    save_measurement_csv,
    waveplate_settings,
    _effects,
    _waveplate_operator,
)

DATA = Path(__file__).resolve().parent.parent / "data"

IDEAL_0 = make_pdc_device(0.0, math.pi / 19, 2 * math.pi / 57, 23.0, 5.5,
                          1.0, math.pi)
IDEAL_45 = make_pdc_device(45.0, math.pi / 19, 2 * math.pi / 57, 23.0, 5.5,
                           1.0, math.pi)


def shipped_device():
    return load_device("data/device_45deg.json")


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_device(rng) -> RpdcDevice:
    """A lossy device with every field drawn at random, slow k >= fast k."""
    k_fast, k_more = rng.uniform(0.0, 0.5, size=2)
    return RpdcDevice(rng.uniform(0.0, 180.0), k_fast + k_more, k_fast,
                      rng.uniform(0.0, 40.0), *rng.uniform(-4, 4, 2),
                      rng.uniform(0.05, 1.0), rng.uniform(0.0, 2 * math.pi))


def born_records(rho: DensityMatrix):
    """Records straight from the Born rule, bypassing the device model."""
    recs = []
    for basis in BASES:
        b0, b1 = BASIS_STATES[basis]
        p0 = float(np.real(np.trace(
            rho.matrix @ jones_to_density(cardinal_state(b0)).matrix)))
        p1 = float(np.real(np.trace(
            rho.matrix @ jones_to_density(cardinal_state(b1)).matrix)))
        recs.append(MeasurementRecord(basis, p0, p1))
    return tuple(recs)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def _bisect(f, lo, hi):
    """Root of an increasing f on (lo, hi), narrowed to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def bisection_mle(pairs):
    """Boundary MLE of Bloch (s1, s2, s3) from (a_i, b_i), nested bisection.

    Each axis solves -a/(1+x) + b/(1-x) + 2 lam x = 0, increasing in x;
    sum x_i(lam)^2 decreases in lam and crosses 1 below hypot(a_i + b_i)/2.
    """
    def axis(a, b, lam):
        return _bisect(lambda x: b / (1 - x) - a / (1 + x) + 2 * lam * x,
                       -1.0, 1.0)

    def shortfall(lam):
        return 1.0 - sum(axis(a, b, lam) ** 2 for a, b in pairs)

    lam = _bisect(shortfall, 0.0,
                  0.5 * math.hypot(*(a + b for a, b in pairs)))
    return np.array([axis(a, b, lam) for a, b in pairs])


def meets_kkt(pairs, x) -> bool:
    """-grad NLL(x) = 2 lambda x with lambda > 0, for x on the sphere."""
    grad = np.array([-a / (1 + v) + b / (1 - v) for (a, b), v in zip(pairs, x)])
    two_lam = -(grad @ x)
    return bool(two_lam > 0.0 and
                np.abs(grad + two_lam * x).max() < 1e-6 * np.abs(grad).max())


def reference_nll(records, s1, s2, s3):
    """Independent negative log-likelihood over Bloch coordinates."""
    by = {r.basis: r for r in records}
    ws = (by["HV"].weights + by["DA"].weights + by["RL"].weights)
    qs = np.stack([0.5 * (1 + s3), 0.5 * (1 - s3), 0.5 * (1 + s1),
                   0.5 * (1 - s1), 0.5 * (1 + s2), 0.5 * (1 - s2)])
    w = np.asarray(ws).reshape(6, *([1] * (qs.ndim - 1)))
    return (-w * np.log(np.maximum(qs, 1e-300))).sum(axis=0)


class TestWaveplates:
    def test_each_basis_maps_to_hv(self):
        for basis in BASES:
            w = _waveplate_operator(*waveplate_settings(basis))
            b0, b1 = (cardinal_state(s).as_array()
                      for s in BASIS_STATES[basis])
            assert abs(w[1] @ b0) ** 2 == pytest.approx(0.0, abs=1e-15)
            assert abs(w[0] @ b1) ** 2 == pytest.approx(0.0, abs=1e-15)
            assert abs(w[0] @ b0) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self):
        for basis in BASES:
            for alpha in (0.0, 45.0, 160.0):
                w = _waveplate_operator(*waveplate_settings(basis, alpha))
                assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)

    def test_alpha_shifts_hwp_only(self):
        q0, h0 = waveplate_settings("DA")
        qa, ha = waveplate_settings("DA", 30.0)
        assert qa == q0
        assert ha == pytest.approx(h0 + 15.0, abs=1e-12)

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            waveplate_settings("XY")


class TestProjection:
    def test_cardinal_routing_alpha_zero(self):
        cases = {"HV": ("H", "V"), "DA": ("D", "A"), "RL": ("R", "L")}
        for basis, (lab0, lab1) in cases.items():
            settings = waveplate_settings(basis, 0.0)
            p0, p1 = project_probabilities(cardinal_density(lab0), IDEAL_0,
                                           settings)
            assert p0 == pytest.approx(1.0, abs=1e-12)
            assert p1 == pytest.approx(0.0, abs=1e-12)
            p0, p1 = project_probabilities(cardinal_density(lab1), IDEAL_0,
                                           settings)
            assert p0 == pytest.approx(0.0, abs=1e-12)

    def test_mixed_state_splits_evenly(self):
        for basis in BASES:
            p0, p1 = project_probabilities(RHO_MIXED, IDEAL_45,
                                           waveplate_settings(basis, 45.0))
            assert p0 == pytest.approx(0.5, abs=1e-12)
            assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_born_rule_through_ideal_device(self):
        # a lossless on-design device realizes exact projective outcomes
        rng = np.random.default_rng(51)
        projectors = {b: tuple(jones_to_density(cardinal_state(s)).matrix
                               for s in BASIS_STATES[b]) for b in BASES}
        for _ in range(200):
            rho = random_density(rng)
            for basis in BASES:
                p0, p1 = project_probabilities(
                    rho, IDEAL_45, waveplate_settings(basis, 45.0))
                q0 = float(np.real(np.trace(rho.matrix
                                            @ projectors[basis][0])))
                q1 = float(np.real(np.trace(rho.matrix
                                            @ projectors[basis][1])))
                assert p0 == pytest.approx(q0, abs=1e-12)
                assert p1 == pytest.approx(q1, abs=1e-12)

    def test_loss_scales_total(self):
        dev = make_pdc_device(45.0, math.pi / 19, 2 * math.pi / 57, 23.0,
                              5.5, 0.8, math.pi)
        p0, p1 = project_probabilities(cardinal_density("D"), dev,
                                       waveplate_settings("HV", 45.0))
        assert p0 + p1 == pytest.approx(0.64, abs=1e-12)


class TestEffects:
    DEVICES = ("data/device_0deg.json", "data/device_45deg.json",
               "data/device_45deg_ideal.json")

    def test_hermitian_psd_and_complete(self):
        for path in self.DEVICES:
            dev = load_device(path)
            t2 = dev.amplitude_transmittance ** 2
            effects = povm_effects(dev)
            assert effects.shape == (3, 2, 2, 2)
            for e0, e1 in effects:
                for e in (e0, e1):
                    assert np.abs(e - e.conj().T).max() < 1e-15
                    assert np.linalg.eigvalsh(e).min() >= -1e-15
                assert np.abs(e0 + e1 - t2 * np.eye(2)).max() < 1e-14

    def test_projection_is_trace_with_effect(self):
        rng = np.random.default_rng(56)
        dev = shipped_device()
        effects = povm_effects(dev)
        for _ in range(50):
            rho = random_density(rng)
            for basis, (e0, e1) in zip(BASES, effects):
                p = project_probabilities(
                    rho, dev, waveplate_settings(basis, dev.alpha_deg))
                want = [np.trace(e @ rho.matrix).real for e in (e0, e1)]
                assert p == pytest.approx(want, abs=1e-15)

    def test_each_device_its_own_effects(self):
        dev = shipped_device()
        effects = povm_effects(dev)
        longer = dev.with_length(dev.length_mm + 1.0)
        assert np.abs(povm_effects(longer) - effects).max() > 1e-3
        assert np.array_equal(povm_effects(dev), effects)
        # the longer device's records follow its own effects
        rec = measure_records(cardinal_density("H"), longer)[0]
        want = [np.trace(e @ cardinal_density("H").matrix).real
                for e in povm_effects(longer)[0]]
        assert (rec.p0, rec.p1) == pytest.approx(want, abs=1e-15)

    def test_closed_form_on_random_devices(self):
        # the plates turn each basis pair onto the device axes, where both
        # ports are diagonal, so retardance and coupler phases cancel:
        # the closed form E_T = P_t_slow Pi_0 + P_t_fast Pi_1 (E_R likewise
        # with P_r) against the Jones effects (J W)^dag (J W)
        rng = np.random.default_rng(20)
        for _ in range(300):
            dev = random_device(rng)
            j = port_transfer_matrices(dev)
            for basis, got in zip(BASES, povm_effects(dev)):
                want = _effects(j, waveplate_settings(basis, dev.alpha_deg))
                assert np.abs(got - want).max() < 1e-14


class TestMeasureRecords:
    def test_equals_jones_projection_at_the_basis_settings(self):
        # random devices and states, a third of them outside the Bloch ball
        # so that the clamp at 0 runs; the Jones path is the oracle
        rng = np.random.default_rng(26)
        clamped = 0
        for i in range(1000):
            dev = random_device(rng)
            bloch = rng.normal(size=3)
            radius = rng.uniform(0.0, 1.0) if i % 3 else rng.uniform(1.0, 3.0)
            rho = stokes_to_density(StokesVector(
                1.0, *(radius * bloch / np.linalg.norm(bloch))))
            for rec in measure_records(rho, dev):
                want = project_probabilities(
                    rho, dev, waveplate_settings(rec.basis, dev.alpha_deg))
                assert (rec.p0, rec.p1) == pytest.approx(want, rel=0,
                                                         abs=1e-15)
                clamped += (rec.p0 == 0.0) + (rec.p1 == 0.0)
        assert clamped > 10

    @pytest.mark.parametrize("path", TestEffects.DEVICES)
    @pytest.mark.parametrize("label", ["H", "V", "D", "A", "R", "L"])
    def test_cardinal_states_exact(self, path, label):
        # q = <s0|rho|s0> is 0, 1/2 or 1 exactly for a cardinal state, so
        # each record is q P_slow + (1 - q) P_fast to the last bit
        dev = load_device(path)
        p = axis_port_powers(dev)
        rho = cardinal_density(label)
        for rec in measure_records(rho, dev):
            s0 = cardinal_density(BASIS_STATES[rec.basis][0]).matrix
            q = float(np.trace(s0 @ rho.matrix).real)
            assert q in (0.0, 0.5, 1.0)
            assert rec.p0 == q * p.t_slow + (1 - q) * p.t_fast
            assert rec.p1 == q * p.r_slow + (1 - q) * p.r_fast

    def test_noiseless_defaults(self):
        recs = measure_records(cardinal_density("H"), IDEAL_0)
        assert tuple(r.basis for r in recs) == BASES
        assert all(r.counts is None for r in recs)
        assert recs[0].p0 == pytest.approx(1.0, abs=1e-12)

    def test_device_rotation_invisible(self):
        # the hwp offset tracks alpha, so statistics match the alpha=0 device
        rng = np.random.default_rng(52)
        for _ in range(20):
            rho = random_density(rng)
            alpha = rng.uniform(0.0, 180.0)
            d0 = make_pdc_device(0.0, 0.2, 0.12, 23.0, 5.5, 0.9, 2.7)
            da = make_pdc_device(alpha, 0.2, 0.12, 23.0, 5.5, 0.9, 2.7)
            for r0, ra in zip(measure_records(rho, d0),
                              measure_records(rho, da)):
                assert ra.p0 == pytest.approx(r0.p0, abs=1e-12)
                assert ra.p1 == pytest.approx(r0.p1, abs=1e-12)

    def test_poisson_counts(self):
        noise = NoiseConfig(counts_per_basis=5000, seed=7)
        recs = measure_records(cardinal_density("D"), IDEAL_45, noise)
        for r in recs:
            assert r.counts is not None
            n0, n1 = r.counts
            assert r.p0 == pytest.approx(n0 / (n0 + n1), abs=1e-15)
            assert r.weights == (float(n0), float(n1))

    def test_poisson_deterministic(self):
        noise = NoiseConfig(counts_per_basis=2000, seed=11)
        a = measure_records(cardinal_density("R"), IDEAL_45, noise)
        b = measure_records(cardinal_density("R"), IDEAL_45, noise)
        assert a == b
        c = measure_records(cardinal_density("R"), IDEAL_45,
                            NoiseConfig(counts_per_basis=2000, seed=12))
        assert a != c

    def test_zero_total_counts(self):
        noise = NoiseConfig(counts_per_basis=1e-9, seed=0)
        with pytest.raises(ValueError, match="zero total counts"):
            measure_records(cardinal_density("H"), IDEAL_0, noise)

    @pytest.mark.parametrize("path", ["device_0deg.json",
                                      "device_45deg.json"])
    def test_counts_follow_one_generator(self, path):
        # oracle: one generator seeded by the noise seed, one poisson call
        # on the six noiseless means in HV, DA, RL order, p0 before p1
        dev = load_device(DATA / path)
        rng = np.random.default_rng(61)
        for seed in (0, 1, 17, 2 ** 31 - 1, 2 ** 70):
            state = random_density(rng)
            rate = float(10 ** rng.uniform(1.5, 4.0))
            p = np.array([(r.p0, r.p1) for r in measure_records(state, dev)])
            expect = np.random.default_rng(seed).poisson(rate * p.ravel())
            recs = measure_records(state, dev, NoiseConfig(rate, seed))
            assert [r.basis for r in recs] == list(BASES)
            assert [n for r in recs for n in r.counts] == expect.tolist()

    def test_counts_match_their_means(self):
        # per-outcome mean count over many seeds within 5 standard errors of
        # rate * power: a draw reused across outcomes or a wrong mean fails
        dev = shipped_device()
        state = stokes_to_density(StokesVector(1.0, 0.3, -0.5, 0.6))
        rate, n_seeds = 400.0, 2000
        mean = rate * np.array([(r.p0, r.p1)
                                for r in measure_records(state, dev)]).ravel()
        counts = np.array([[n for r in measure_records(
            state, dev, NoiseConfig(rate, seed)) for n in r.counts]
            for seed in range(n_seeds)])
        assert (mean > 10).all()
        err = np.sqrt(mean / n_seeds)
        assert (np.abs(counts.mean(axis=0) - mean) < 5 * err).all()
        # distinct outcomes are independent draws, not one number reused
        corr = np.corrcoef(counts.T) - np.eye(6)
        assert np.abs(corr).max() < 5 / math.sqrt(n_seeds)


class TestLinearReconstruct:
    def test_pure_h(self):
        recs = (MeasurementRecord("HV", 1.0, 0.0),
                MeasurementRecord("DA", 0.5, 0.5),
                MeasurementRecord("RL", 0.5, 0.5))
        res = linear_reconstruct(recs)
        assert np.allclose(res.rho.matrix, [[1, 0], [0, 0]], atol=1e-15)
        assert res.stokes.as_tuple() == (1.0, 0.0, 0.0, 1.0)
        assert res.converged and res.iterations == 0

    def test_worked_example(self):
        recs = (MeasurementRecord("HV", 0.6, 0.4),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.5, 0.5))
        res = linear_reconstruct(recs)
        assert res.stokes.as_tuple() == pytest.approx((1.0, 0.8, 0.0, 0.2),
                                                      abs=1e-15)
        assert np.allclose(res.rho.matrix, [[0.6, 0.4], [0.4, 0.4]],
                           atol=1e-15)
        assert res.physical

    def test_unnormalized_powers(self):
        # only ratios matter; doubled powers give the same state
        recs = (MeasurementRecord("HV", 1.2, 0.8),
                MeasurementRecord("DA", 1.8, 0.2),
                MeasurementRecord("RL", 1.0, 1.0))
        res = linear_reconstruct(recs)
        assert np.allclose(res.rho.matrix, [[0.6, 0.4], [0.4, 0.4]],
                           atol=1e-15)

    def test_inverts_born_rule(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            rho = random_density(rng)
            res = linear_reconstruct(born_records(rho))
            assert np.abs(res.rho.matrix - rho.matrix).max() < 1e-12

    def test_unphysical_flagged_not_repaired(self):
        recs = (MeasurementRecord("HV", 0.95, 0.05),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.8, 0.2))
        res = linear_reconstruct(recs)
        assert not res.physical
        assert res.stokes.as_tuple() == pytest.approx((1.0, 0.8, 0.6, 0.9),
                                                      abs=1e-15)
        assert res.rho.min_eigenvalue() < -1e-3

    def test_log_likelihood_worked_example(self):
        recs = (MeasurementRecord("HV", 0.6, 0.4),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.5, 0.5))
        want = sum(p * math.log(p) for p in (0.6, 0.4, 0.9, 0.1, 0.5, 0.5))
        assert linear_reconstruct(recs).log_likelihood == pytest.approx(
            want, abs=1e-15)

    @pytest.mark.parametrize("label", ["D", "H", "R"])
    def test_noiseless_pure_log_likelihood_finite(self, label):
        # one outcome weight of each pure record is below rounding (DA is
        # (1.0, 2.8e-17) for D); the two unbiased bases give -2 log 2
        dev = load_device(DATA / "device_45deg_ideal.json")
        recs = measure_records(cardinal_density(label), dev)
        ll = linear_reconstruct(recs).log_likelihood
        assert ll == pytest.approx(-2 * math.log(2), abs=1e-12)
        assert ll == pytest.approx(mle_reconstruct(recs).log_likelihood,
                                   abs=1e-12)

    def test_zero_weight_basis_adds_no_term(self):
        # DA has counts (0, 0), so its frequencies are 0/0: linear inversion
        # takes its powers and leaves its log-likelihood term out
        recs = (MeasurementRecord("HV", 0.6, 0.4, counts=(60, 40)),
                MeasurementRecord("DA", 0.5, 0.5, counts=(0, 0)),
                MeasurementRecord("RL", 0.7, 0.3, counts=(70, 30)))
        want = sum(w * math.log(w / 100) for w in (60, 40, 70, 30))
        assert linear_reconstruct(recs).log_likelihood == pytest.approx(
            want, rel=1e-15, abs=0.0)

    def test_missing_basis(self):
        with pytest.raises(ValueError, match="missing record.*RL"):
            linear_reconstruct((MeasurementRecord("HV", 1.0, 0.0),
                                MeasurementRecord("DA", 0.5, 0.5)))

    def test_duplicate_basis(self):
        with pytest.raises(ValueError, match="duplicate"):
            linear_reconstruct((MeasurementRecord("HV", 1.0, 0.0),
                                MeasurementRecord("HV", 0.5, 0.5),
                                MeasurementRecord("DA", 0.5, 0.5),
                                MeasurementRecord("RL", 0.5, 0.5)))


class TestMleReconstruct:
    def test_noiseless_pure_state(self):
        recs = measure_records(cardinal_density("D"), IDEAL_45)
        res = mle_reconstruct(recs)
        assert res.converged
        assert purity(res.rho) >= 1.0 - 1e-9
        assert fidelity(res.rho, cardinal_density("D")) >= 1.0 - 1e-9

    def test_matches_physical_linear_solution(self):
        # interior optimum: MLE and raw inversion agree
        recs = (MeasurementRecord("HV", 0.6, 0.4),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.5, 0.5))
        lin = linear_reconstruct(recs)
        res = mle_reconstruct(recs)
        assert trace_distance(res.rho, lin.rho) < 1e-6

    def test_unphysical_records_projected_to_ball(self):
        recs = (MeasurementRecord("HV", 0.95, 0.05),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.8, 0.2))
        res = mle_reconstruct(recs)
        assert res.physical
        assert res.rho.min_eigenvalue() >= -1e-10
        s = res.stokes
        assert s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 <= 1.0 + 1e-9

        # two-stage grid search over the Bloch ball as likelihood oracle
        ax = np.arange(-1.0, 1.0 + 1e-9, 0.02)
        g1, g2, g3 = np.meshgrid(ax, ax, ax, indexing="ij")
        nll = reference_nll(recs, g1, g2, g3)
        nll[g1 ** 2 + g2 ** 2 + g3 ** 2 > 1.0] = np.inf
        i = np.unravel_index(np.argmin(nll), nll.shape)
        c1, c2, c3 = g1[i], g2[i], g3[i]
        g1, g2, g3 = np.meshgrid(np.arange(c1 - 0.03, c1 + 0.03, 0.001),
                                 np.arange(c2 - 0.03, c2 + 0.03, 0.001),
                                 np.arange(c3 - 0.03, c3 + 0.03, 0.001),
                                 indexing="ij")
        nll = reference_nll(recs, g1, g2, g3)
        nll[g1 ** 2 + g2 ** 2 + g3 ** 2 > 1.0] = np.inf
        grid_best = float(nll.min())

        mle_nll = float(reference_nll(recs, s.s1, s.s2, s.s3))
        assert mle_nll == pytest.approx(-res.log_likelihood, abs=1e-9)
        assert mle_nll <= grid_best + 1e-5

    def test_noisy_fuzz_physicality(self):
        rng = np.random.default_rng(54)
        dev = shipped_device()
        for case in range(150):
            rho = random_density(rng)
            noise = NoiseConfig(counts_per_basis=500,
                                seed=int(rng.integers(1 << 30)))
            recs = measure_records(rho, dev, noise)
            res = mle_reconstruct(recs)
            assert res.converged
            m = res.rho.matrix
            assert np.abs(m - m.conj().T).max() < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert res.rho.min_eigenvalue() >= -1e-10

    def test_divergence_carries_best_iterate(self, monkeypatch):
        # the linear estimate lies outside the ball, so the multiplier
        # root-find has to take at least one step
        monkeypatch.setattr(tomography, "_MAX_STEPS", 0)
        recs = (MeasurementRecord("HV", 0.95, 0.05),
                MeasurementRecord("DA", 0.9, 0.1),
                MeasurementRecord("RL", 0.8, 0.2))
        with pytest.raises(MleDivergenceError, match="converge") as exc:
            mle_reconstruct(recs)
        res = exc.value.result
        assert not res.converged
        assert res.physical

    def test_boundary_solutions_meet_kkt(self):
        # records whose per-basis estimate lies outside the ball: the
        # optimum x sits on the sphere with -grad NLL(x) = 2 lambda x,
        # lambda > 0
        rng = np.random.default_rng(55)
        solved = 0
        while solved < 100:
            counts = rng.integers(1, 400, size=(3, 2))
            recs = tuple(MeasurementRecord(b, n0 / (n0 + n1), n1 / (n0 + n1),
                                           counts=(n0, n1))
                         for b, (n0, n1) in zip(BASES, counts))
            by = {r.basis: r.weights for r in recs}
            pairs = (by["DA"], by["RL"], by["HV"])
            if sum(((a - b) / (a + b)) ** 2 for a, b in pairs) <= 1.0:
                continue
            res = mle_reconstruct(recs)
            assert res.converged and res.iterations > 0
            x = np.array(res.stokes.as_tuple()[1:])
            assert abs(x @ x - 1.0) < 1e-9
            assert meets_kkt(pairs, x)
            solved += 1

    def test_fuzz_over_the_float_range(self):
        # the rows at the float range, then 2,500 sets of counts from 0 to
        # 399 and 2,500 of powers log-uniform over [1e-320, 1.7e308] with
        # 10 % exact zeros. Each set converges into the ball, onto the
        # sphere when it takes steps, or raises a ValueError that names a
        # basis or the scale; never MleDivergenceError
        rng = np.random.default_rng(59)
        sets = [(("HV", 1e308, 1e305), ("DA", 1e-300, 1e-320),
                 ("RL", 1e308, 1e308))]
        powers = np.exp(rng.uniform(math.log(1e-320), math.log(1.7e308),
                                    size=(2500, 3, 2)))
        zero = rng.random(size=powers.shape) < 0.1
        zero[..., 1] &= ~zero[..., 0]  # a record needs p0 + p1 > 0
        powers[zero] = 0.0
        for pw in powers.tolist():
            sets.append(tuple((b, *p) for b, p in zip(BASES, pw)))
        # the weights of a record with counts are the counts
        for counts in rng.integers(0, 400, size=(2500, 3, 2)).tolist():
            sets.append(tuple((b, 0.5, 0.5, tuple(c))
                              for b, c in zip(BASES, counts)))
        for rows in sets:
            recs = tuple(MeasurementRecord(*row) for row in rows)
            try:
                res = mle_reconstruct(recs)
            except ValueError as exc:
                assert re.match(r"basis (HV|DA|RL):|.* lost in the scale",
                                str(exc))
                continue
            x = np.array(res.stokes.as_tuple()[1:])
            assert res.converged and res.physical
            assert x @ x <= 1.0 + 1e-9
            if res.iterations:
                assert abs(x @ x - 1.0) < 1e-9
                if recs[0].counts is not None:
                    by = {r.basis: r.weights for r in recs}
                    assert meets_kkt((by["DA"], by["RL"], by["HV"]), x)

    def test_boundary_extreme_weights_converge(self):
        # one-sided counts and weights hundreds of decades apart put the
        # multiplier next to where an axis leaves +-1, or far below the
        # bracket's upper end
        cases = (
            (("HV", 25, 45), ("DA", 0, 863786), ("RL", 13, 14)),
            (("HV", 782155, 0), ("DA", 4, 15), ("RL", 0, 5.71396e-12)),
            (("HV", 4.4850686190076586e-253, 1e-17), ("DA", 45.0, 46.0),
             ("RL", 7.842881436393489e-210, 0.0)),
            (("HV", 5.745228873611274e-249, 0.0),
             ("DA", 2.1808305078142976e-219, 0.0),
             ("RL", 2.209882583045127e-237, 0.0)),
            # r^2 - 1 is under the stop tolerance, so no multiplier step is
            # taken; DA's x rounds to 1, so 1 - |x| lost its smaller weight
            # and the log-likelihood read -inf
            (("HV", 1.0, 1.0 + 1e-7), ("DA", 1e20, 1.0), ("RL", 1.0, 1.0)),
        )
        for case in cases:
            recs = tuple(MeasurementRecord(b, float(p0), float(p1))
                         for b, p0, p1 in case)
            res = mle_reconstruct(recs)
            s = res.stokes
            assert res.converged and res.physical
            assert abs(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 - 1.0) < 1e-9
            assert math.isfinite(res.log_likelihood)
            # no worse than the per-basis estimate pulled onto the sphere
            x = np.array([(p0 - p1) / (p0 + p1) for _, p0, p1 in
                          sorted(case, key=lambda c: "DA RL HV".index(c[0]))])
            x /= np.linalg.norm(x)
            assert -res.log_likelihood <= reference_nll(recs, *x) + 1e-9

    def test_boundary_matches_nested_bisection(self):
        # the converged iterate is the exact MLE, not a lowest-NLL pick
        # among iterates that rounding can move by about 1e-7
        rng = np.random.default_rng(57)
        cases = [((54, 329), (298, 30), (284, 173))]  # HV, DA, RL
        while len(cases) < 300:
            counts = [tuple(int(n) for n in c)
                      for c in rng.integers(1, 400, size=(3, 2))]
            if sum(((a - b) / (a + b)) ** 2 for a, b in counts) > 1.0:
                cases.append(tuple(counts))
        for counts in cases:
            recs = tuple(MeasurementRecord(b, n0 / (n0 + n1), n1 / (n0 + n1),
                                           counts=(n0, n1))
                         for b, (n0, n1) in zip(BASES, counts))
            hv, da, rl = (tuple(map(float, c)) for c in counts)
            res = mle_reconstruct(recs)
            got = np.array(res.stokes.as_tuple()[1:])
            assert np.abs(got - bisection_mle((da, rl, hv))).max() < 1e-11

    def test_result_stokes_is_the_solution(self):
        # the reported Stokes vector is (1, *x) itself, not read back from
        # rho; rho is built from it, and reading it back agrees to 1e-15
        interior = ((60, 40), (13, 87), (71, 29))  # HV, DA, RL
        boundary = ((54, 329), (298, 30), (284, 173))
        for counts in (interior, boundary):
            recs = tuple(MeasurementRecord(b, n0 / (n0 + n1), n1 / (n0 + n1),
                                           counts=(n0, n1))
                         for b, (n0, n1) in zip(BASES, counts))
            res = mle_reconstruct(recs)
            hv, da, rl = ((float(n0), float(n1)) for n0, n1 in counts)
            if counts is interior:
                assert res.iterations == 0
                want = tuple((a - b) / (a + b) for a, b in (da, rl, hv))
            else:
                assert res.iterations > 0
                want = bisection_mle((da, rl, hv))
                assert sum(v * v for v in res.stokes.as_tuple()[1:]) == (
                    pytest.approx(1.0, abs=1e-12))
            s = res.stokes.as_tuple()
            assert s[0] == 1.0
            assert np.abs(np.subtract(s[1:], want)).max() <= (
                0.0 if counts is interior else 1e-11)
            assert np.array_equal(res.rho.matrix,
                                  stokes_to_density(res.stokes).matrix)
            back = density_to_stokes(res.rho).as_tuple()
            assert np.abs(np.subtract(back, s)).max() <= 1e-15

    def test_weights_near_float_range(self):
        # basis sums near 1e308 overflowed the multiplier's bracket, and the
        # solve returned s3 = -1 marked converged; HV's equal weights, the
        # largest by far, put s3 at 0. The weights divided by 1e308 give
        # the same state
        big = ((1e308, 1e308), (1e308, 1.0), (1.0, 1e-320))
        small = ((1.0, 1.0), (1.0, 1e-308), (1e-308, 0.0))
        res, ref = (mle_reconstruct(tuple(
            MeasurementRecord(b, p0, p1) for b, (p0, p1) in zip(BASES, w)))
            for w in (big, small))
        assert res.converged and res.physical
        assert res.stokes.s1 == pytest.approx(1.0, abs=1e-12)
        assert abs(res.stokes.s3) < 1e-12
        assert np.abs(np.subtract(res.stokes.as_tuple(),
                                  ref.stokes.as_tuple())).max() < 1e-15
        assert math.isfinite(res.log_likelihood)

    def test_log_likelihood_below_float_range_is_minus_inf(self):
        # the log-likelihood of these weights is finite but below
        # -sys.float_info.max, so it reads -inf, as for an outcome of
        # positive weight and zero probability; the state is still solved
        res = mle_reconstruct((MeasurementRecord("HV", 1.7e308, 1.7e308),
                               MeasurementRecord("DA", 1.7e308, 0.1e308),
                               MeasurementRecord("RL", 1.0, 0.0)))
        assert res.converged and res.physical
        assert sum(v * v for v in res.stokes.as_tuple()[1:]) == (
            pytest.approx(1.0, abs=1e-12))
        assert res.log_likelihood == -math.inf

    def test_weights_the_scale_rounds_to_zero(self):
        # inside the ball x_i is each basis's own ratio and takes no scale.
        # On the sphere the scale that keeps HV's and DA's sums below
        # 2**1000 leaves RL's weights of 1e-310 subnormal, and the state is
        # solved; it rounds weights of 1e-320 to 0, and RL's x_i is lost
        def solve(rl):
            return mle_reconstruct((MeasurementRecord("HV", 1e305, 1e305),
                                    MeasurementRecord("DA", 1.0, 1.0),
                                    MeasurementRecord("RL", *rl)))
        assert solve((1e-310, 0.0)).stokes.as_tuple() == (1.0, 0.0, 1.0, 0.0)
        assert solve((1e-310, 3e-310)).stokes.as_tuple() == (
            1.0, 0.0, -0.5, 0.0)
        pairs = ((1e305, 1.0), (1e-310, 3e-310), (1e305, 1.0))
        res = mle_reconstruct(tuple(
            MeasurementRecord(b, *w) for b, w in zip(("DA", "RL", "HV"), pairs)))
        assert res.converged
        got = np.array(res.stokes.as_tuple()[1:])
        assert np.abs(got - bisection_mle(pairs)).max() < 1e-12
        with pytest.raises(ValueError, match="outcome weights are lost "
                                             "in the scale"):
            mle_reconstruct((MeasurementRecord("HV", 1e305, 1.0),
                             MeasurementRecord("DA", 1e305, 1.0),
                             MeasurementRecord("RL", 1e-320, 3e-320)))

    def test_weights_at_the_float_range_converge(self):
        # HV's and RL's weights near 1e308 once scaled DA's into subnormals,
        # and the multiplier with them, until the step cap. The same rows
        # 1e8 times lighter in HV and RL give the same state
        def solve(big):
            return mle_reconstruct((
                MeasurementRecord("HV", big, big * 1e-3),
                MeasurementRecord("DA", 1e-300, 1e-320),
                MeasurementRecord("RL", big, big)))
        res, ref = solve(1e308), solve(1e300)
        assert res.converged and res.physical and res.iterations <= 30
        assert np.abs(np.subtract(res.stokes.as_tuple(),
                                  ref.stokes.as_tuple())).max() < 1e-12

    def test_frequency_below_float_range(self):
        # HV's frequency 1e-30/1e300 underflows to 0; its log is taken as
        # log 1e-30 - log 1e300, and the MLE is the interior state (0, 0, 1)
        recs = (MeasurementRecord("HV", 1e300, 1e-30),
                MeasurementRecord("DA", 1.0, 1.0),
                MeasurementRecord("RL", 1.0, 1.0))
        want = 1e-30 * (math.log(1e-30) - math.log(1e300)) - 4 * math.log(2)
        res = mle_reconstruct(recs)
        assert res.stokes.as_tuple() == (1.0, 0.0, 0.0, 1.0)
        for ll in (res.log_likelihood, linear_reconstruct(recs).log_likelihood):
            assert ll == pytest.approx(want, rel=1e-15, abs=0)

    def test_larger_frequency_rounding_to_one_keeps_its_term(self):
        # DA's frequency 1e20/(1e20 + 1) rounds to 1, yet its term
        # 1e20 log(1e20/(1e20 + 1)) is -1. The value is the exact
        # log-likelihood of these frequencies, from a 60-digit evaluation.
        # Linear inversion reads it from the weights; the MLE, which takes
        # no step here, from its boundary coordinates (2 - u, u, 2)
        recs = (MeasurementRecord("HV", 1.0, 1.0 + 1e-7),
                MeasurementRecord("DA", 1e20, 1.0),
                MeasurementRecord("RL", 1.0, 1.0))
        want = -49.824290651435410514498999345937293745007213108550
        for ll in (linear_reconstruct(recs).log_likelihood,
                   mle_reconstruct(recs).log_likelihood):
            assert ll == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_frequency_below_normal_range_keeps_both_terms(self):
        # each basis's smaller frequency 3e-23/1e300 is subnormal, held to
        # about 1 %, and the larger outcome's term 1e300 log1p(-3e-323) =
        # -3e-23 is 0.13 % of the total; both terms are taken from 3e-23 and
        # 1e300. The value is exact, from a 60-digit evaluation
        recs = tuple(MeasurementRecord(b, 1e300, 3e-23) for b in BASES)
        want = -6.692727354735677879608418e-20
        assert linear_reconstruct(recs).log_likelihood == pytest.approx(
            want, rel=1e-15, abs=0.0)

    def test_basis_sum_past_the_float_range(self):
        # HV's sum 1.9e308 overflows; taken in quarters, its frequencies are
        # 1/1.9 and 0.9/1.9, so s3 = 0.1/1.9 and the log-likelihood is
        # finite, from powers or from counts of the same weights. Linear
        # inversion takes counts only: these powers overflow its s0, so it
        # rejects them by basis and powers
        want = (1e308 * math.log(1 / 1.9) + 9e307 * math.log(0.9 / 1.9)
                - 4 * math.log(2))
        powers = (MeasurementRecord("HV", 1e308, 9e307),
                  MeasurementRecord("DA", 1.0, 1.0),
                  MeasurementRecord("RL", 1.0, 1.0))
        counts = tuple(MeasurementRecord(r.basis, 0.5, 0.5,
                                         counts=tuple(map(int, r.weights)))
                       for r in powers)
        assert counts[0].weights == (1e308, 9e307)
        res = mle_reconstruct(powers)
        assert res.converged and res.iterations == 0
        assert res.stokes.as_tuple()[:3] == (1.0, 0.0, 0.0)
        assert res.stokes.s3 == pytest.approx(1 / 19, rel=1e-15, abs=0)
        for ll in (res.log_likelihood, mle_reconstruct(counts).log_likelihood,
                   linear_reconstruct(counts).log_likelihood):
            assert ll == pytest.approx(want, rel=1e-15, abs=0)
        with pytest.raises(ValueError, match=r"^basis HV: powers 1e\+308 and "
                                             r"9e\+307 sum past the float "
                                             "range"):
            linear_reconstruct(powers)

    def test_weights_scaled_by_a_power_of_four_solve_alike(self):
        # a boundary solve scales its weights by a power of four: the state
        # and step count equal those of weights 4**500 times smaller, and the
        # log-likelihood is 4**500 times theirs
        rng = np.random.default_rng(58)
        steps = []
        for _ in range(200):
            w = rng.uniform(1.0, 1000.0, size=(3, 2))
            small, big = (tuple(
                MeasurementRecord(b, float(p0) * f, float(p1) * f)
                for b, (p0, p1) in zip(BASES, w))
                for f in (1.0, 4.0 ** 500))
            a, b = mle_reconstruct(small), mle_reconstruct(big)
            assert b.stokes.as_tuple() == a.stokes.as_tuple()
            assert b.iterations == a.iterations
            assert b.log_likelihood == a.log_likelihood * 4.0 ** 500
            steps.append(a.iterations)
        assert 0 in steps and max(steps) > 0

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e3])
    def test_weights_far_apart_take_few_steps(self, scale):
        # DA carries far less weight than HV and RL, so the multiplier's
        # root sits hundreds of decades below the bracket's upper end; the
        # lower end, from the bound on the slope, keeps the search short
        pairs = ((1e-300, 1e-320), (scale, scale), (scale, scale * 1e-3))
        res = mle_reconstruct(tuple(
            MeasurementRecord(b, *w) for b, w in zip(("DA", "RL", "HV"), pairs)))
        assert res.converged and res.iterations <= 30
        got = np.array(res.stokes.as_tuple()[1:])
        assert np.abs(got - bisection_mle(pairs)).max() < 1e-12

    def test_small_axes_not_left_at_the_tolerance(self):
        # HV's weights are 180 decades above the others, so s3 rounds to -1
        # and |sum x_i^2 - 1| <= 1e-12 holds once s1 and s2 fall below 1e-6.
        # Newton creeping up the multiplier from below stopped there; the
        # exact MLE has them far below rounding
        res = mle_reconstruct((
            MeasurementRecord("HV", 6.027377866964878e-186,
                              2.2237003436011214e+218),
            MeasurementRecord("DA", 5.124219047716273e-142, 1.3513e-320),
            MeasurementRecord("RL", 1.7313101060374698e+38,
                              1.4832419462583852e-141)))
        s = res.stokes
        assert res.converged and res.physical
        assert s.s3 == pytest.approx(-1.0, abs=1e-15)
        assert abs(s.s1) < 1e-15 and abs(s.s2) < 1e-15

    # warm starts for the per-axis solve: the restart value 1, inside, and
    # at or below the end, which restarts from 1
    WARM_STARTS = (1.0, 0.5, 0.1, 1e-300, 0.0, -1.0)

    def test_axis_root_to_full_relative_precision(self):
        # weights (1 - 1e-30, 1e-30) put x within 3.3e-30 of 1, so x rounds
        # to 1; u holds that distance. The literal is the root of
        # u (1 - 0.2 (1 - u)(2 - u)) = 2e-30 to 20 digits, from a
        # 50-digit solve
        want = 3.3333333333333337345e-30
        for u0 in self.WARM_STARTS:
            u = tomography._axis_root(1e-30, 1.0, 0.1, u0)
            assert abs(u - want) <= 2 * math.ulp(want), (u0, u)

    @pytest.mark.parametrize("w, lam", [(0.5, 0.0), (3.0, 0.2), (3.0, 7.0),
                                        (1e-200, 1e-190), (2.0, 1e300)])
    def test_axis_root_equal_weights_sit_at_the_centre(self, w, lam):
        for u0 in self.WARM_STARTS:
            assert tomography._axis_root(w, 2.0 * w, lam, u0) == 1.0

    def test_axis_root_zero_weight(self):
        # u = 0 (the end) while lam <= n/4; past that, the root of
        # n = 2 lam (1 - u)(2 - u): (3 - sqrt(19/3))/2 for n = 4, lam = 1.5
        for lam in (0.0, 0.25, 1.0):
            for u0 in self.WARM_STARTS:
                assert tomography._axis_root(0.0, 4.0, lam, u0) == 0.0
        want = 0.24169426078820838
        for u0 in self.WARM_STARTS:
            u = tomography._axis_root(0.0, 4.0, 1.5, u0)
            assert abs(u - want) <= 2 * math.ulp(want), (u0, u)

    def test_zero_weight_basis_rejected(self):
        recs = (MeasurementRecord("HV", 0.6, 0.4, counts=(60, 40)),
                MeasurementRecord("DA", 0.5, 0.5, counts=(0, 0)),
                MeasurementRecord("RL", 0.7, 0.3, counts=(70, 30)))
        with pytest.raises(ValueError, match="basis DA"):
            mle_reconstruct(recs)


class TestExperiment:
    def test_ideal_devices_perfect_fidelity(self):
        for dev in (IDEAL_0, IDEAL_45):
            for label in ("H", "V", "D", "A", "R", "L"):
                f, res = run_tomography_experiment(cardinal_density(label),
                                                   dev)
                assert res.converged
                assert f == pytest.approx(1.0, abs=1e-9)

    def test_mixed_state_recovered(self):
        f, res = run_tomography_experiment(RHO_MIXED, IDEAL_45)
        assert f == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(res.rho, RHO_MIXED) < 1e-6

    def test_shipped_device_fidelities(self):
        # oracle: with noiseless records the likelihood optimum is the
        # state built from the normalized per-basis differences
        dev = shipped_device()
        fids = []
        for label in ("H", "V", "D", "A", "R", "L"):
            true = cardinal_density(label)
            by = {r.basis: r for r in measure_records(true, dev)}
            s1 = (by["DA"].p0 - by["DA"].p1) / (by["DA"].p0 + by["DA"].p1)
            s2 = (by["RL"].p0 - by["RL"].p1) / (by["RL"].p0 + by["RL"].p1)
            s3 = (by["HV"].p0 - by["HV"].p1) / (by["HV"].p0 + by["HV"].p1)
            assert s1 * s1 + s2 * s2 + s3 * s3 <= 1.0
            oracle = stokes_to_density(StokesVector(1.0, s1, s2, s3))
            f, res = run_tomography_experiment(true, dev)
            assert trace_distance(res.rho, oracle) < 1e-7
            assert f == pytest.approx(fidelity(oracle, true), abs=5e-8)
            fids.append(f)
        assert sum(fids) / 6 == pytest.approx(0.9826874075, abs=1e-7)
        assert 0.94 <= sum(fids) / 6 < 1.0

    def test_noisy_fidelity_reasonable(self):
        noise = NoiseConfig(counts_per_basis=20000, seed=5)
        f, _ = run_tomography_experiment(cardinal_density("D"),
                                         shipped_device(), noise)
        assert 0.9 < f < 1.0


class TestRecordValidation:
    def test_bad_basis(self):
        with pytest.raises(ValueError, match="basis"):
            MeasurementRecord("XY", 0.5, 0.5)

    def test_negative_power(self):
        with pytest.raises(ValueError):
            MeasurementRecord("HV", -0.1, 0.5)

    def test_zero_sum(self):
        with pytest.raises(ValueError):
            MeasurementRecord("HV", 0.0, 0.0)

    def test_fractional_counts(self):
        with pytest.raises(ValueError, match="integer"):
            MeasurementRecord("HV", 0.5, 0.5, counts=(10.5, 3))

    @pytest.mark.parametrize("bad", [math.inf, 1e400, math.nan, -math.inf,
                                     np.float64(np.nan), np.float32(np.inf),
                                     10 ** 400])
    def test_nonfinite_counts(self, bad):
        # 10**400 is an integer, but its float weight would overflow
        for counts in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError,
                               match="counts must be non-negative integers"):
                MeasurementRecord("HV", 0.5, 0.5, counts=counts)

    def test_integral_counts_normalized_to_int(self):
        rec = MeasurementRecord("HV", 0.5, 0.5,
                                counts=(np.int64(3), np.float64(4.0)))
        assert rec.counts == (3, 4)
        assert all(type(n) is int for n in rec.counts)

    def test_numpy_powers_stored_as_python_floats(self):
        # numpy scalars once carried into the boundary MLE, which warned
        # "overflow encountered in scalar divide" and returned an np.float64
        # log-likelihood; the state is that of the Python floats
        powers = {"HV": (3.4127503867887232e-99, 2.300741728215294e-96),
                  "DA": (1.3856552090387099e+31, 6.163913470021019e-117),
                  "RL": (9.40209535036258e-145, 7.926642226838364e+99)}
        recs = [MeasurementRecord(b, *map(np.float64, p))
                for b, p in powers.items()]
        assert all(type(r.p0) is float and type(r.p1) is float for r in recs)
        got = mle_reconstruct(recs)
        want = mle_reconstruct([MeasurementRecord(b, *p)
                                for b, p in powers.items()])
        assert got == want
        assert type(got.log_likelihood) is float
        assert got.iterations > 0

    def test_weights_fall_back_to_powers(self):
        r = MeasurementRecord("HV", 0.7, 0.3)
        assert r.weights == (0.7, 0.3)

    def test_noise_config_rate(self):
        with pytest.raises(ValueError):
            NoiseConfig(counts_per_basis=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_noise_config_rate_finite(self, rate):
        with pytest.raises(ValueError, match="finite"):
            NoiseConfig(counts_per_basis=rate)

    def test_noise_config_rate_within_the_poisson_limit(self):
        limit = tomography.MAX_COUNTS_PER_BASIS
        for rate in (math.nextafter(limit, math.inf), 1e300):
            with pytest.raises(ValueError, match="counts_per_basis .*1e[+]18"):
                NoiseConfig(counts_per_basis=rate)
        # at the limit, a state sent whole to one port draws its count at
        # a mean of the limit; numpy takes means at least twice that
        recs = measure_records(cardinal_density("H"), IDEAL_0,
                               NoiseConfig(counts_per_basis=limit, seed=3))
        assert max(r.p0 for r in recs) == pytest.approx(1.0, abs=1e-12)
        assert max(max(r.counts) for r in recs) == pytest.approx(
            limit, rel=1e-6, abs=0)
        assert mle_reconstruct(recs).converged
        np.random.default_rng(0).poisson(2.0 * limit)

    @pytest.mark.parametrize("seed", [-1, 1.5, 5.0, None, "3", True, False,
                                      np.float64(2.0), np.int64(-2)])
    def test_noise_config_seed(self, seed):
        # numpy would take None (fresh OS entropy, not reproducible) and "3"
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            NoiseConfig(counts_per_basis=100.0, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7),
                                      2 ** 70])
    def test_noise_config_seed_accepted(self, seed):
        noise = NoiseConfig(counts_per_basis=100.0, seed=seed)
        recs = measure_records(cardinal_density("D"), IDEAL_45, noise)
        assert recs == measure_records(cardinal_density("D"), IDEAL_45,
                                       NoiseConfig(100.0, int(seed)))


class TestMeasurementCsv:
    def test_round_trip_powers(self, tmp_path):
        recs = measure_records(cardinal_density("D"), shipped_device())
        p = tmp_path / "m.csv"
        save_measurement_csv(recs, p)
        assert load_measurement_csv(p) == recs

    def test_round_trip_counts(self, tmp_path):
        noise = NoiseConfig(counts_per_basis=3000, seed=2)
        recs = measure_records(cardinal_density("R"), IDEAL_45, noise)
        p = tmp_path / "m.csv"
        save_measurement_csv(recs, p)
        loaded = load_measurement_csv(p)
        assert loaded == recs
        assert all(r.counts is not None for r in loaded)

    def test_comment_and_header(self, tmp_path):
        p = tmp_path / "m.csv"
        save_measurement_csv(measure_records(cardinal_density("H"), IDEAL_0),
                             p, header_comment="run 1")
        text = p.read_text()
        assert text.startswith("# run 1\n")
        assert text.splitlines()[1] == "basis,p0,p1"
        assert len(load_measurement_csv(p)) == 3

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("basis,power0,power1\nHV,1,0\n")
        with pytest.raises(ValueError, match=r"m\.csv:1"):
            load_measurement_csv(p)

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("basis,p0,p1\nHV,1.0\nDA,0.5,0.5\n")
        with pytest.raises(ValueError, match=r"m\.csv:2"):
            load_measurement_csv(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("basis,p0,p1\nHV,one,0\n")
        with pytest.raises(ValueError, match=r"m\.csv:2"):
            load_measurement_csv(p)

    def test_bad_basis_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("basis,p0,p1\nXY,1.0,0.0\n")
        with pytest.raises(ValueError, match=r"m\.csv:2.*basis"):
            load_measurement_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="empty"):
            load_measurement_csv(p)


class TestResultDict:
    def test_row_major_pairs(self):
        recs = born_records(cardinal_density("R"))
        res = linear_reconstruct(recs)
        d = result_to_dict(res, fidelity_value=0.5)
        # rho_R = [[.5, .5i], [-.5i, .5]] conjugate ordering: row-major pairs
        want = [[0.5, 0.0], [0.0, -0.5], [0.0, 0.5], [0.5, 0.0]]
        assert np.allclose(d["rho"], want, atol=1e-12)
        assert d["stokes"] == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=1e-12)
        assert d["fidelity"] == 0.5
        assert d["converged"] is True and d["iterations"] == 0

    def test_fidelity_none(self):
        res = linear_reconstruct(born_records(RHO_MIXED))
        assert result_to_dict(res)["fidelity"] is None
