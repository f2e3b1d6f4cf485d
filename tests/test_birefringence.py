"""Rotated retarders, axis calibration, crossed-polarizer axis finding."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from rpdcsim.birefringence import (
    AxisCalibration,
    AxisUnobservableError,
    RotatedRetarder,
    _pchip_slopes,
    axis_from_offset,
    crossed_polarizer_transmission,
    find_axis,
    fit_axis,
    load_axis_calibration,
    retardance_from_physics,
    retarder_jones,
)

SHIPPED_CALIBRATION = (Path(__file__).resolve().parent.parent / "data"
                       / "axis_calibration_synthetic.csv")


def synthetic_alpha(theta_deg):
    """Generating curve for the synthetic calibration used in tests."""
    return theta_deg - 10 * np.sin(np.deg2rad(2 * theta_deg))


def synthetic_calibration(step=5.0):
    thetas = np.arange(0.0, 176.0, step)
    return AxisCalibration(tuple(zip(thetas, synthetic_alpha(thetas))))


class TestRotatedRetarder:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            RotatedRetarder(alpha_deg=180.0, retardance_rad=1.0)
        with pytest.raises(ValueError):
            RotatedRetarder(alpha_deg=-1.0, retardance_rad=1.0)

    def test_negative_retardance(self):
        with pytest.raises(ValueError):
            RotatedRetarder(alpha_deg=0.0, retardance_rad=-0.1)

    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            RotatedRetarder(0.0, 1.0, amplitude_transmittance=0.0)
        with pytest.raises(ValueError):
            RotatedRetarder(0.0, 1.0, amplitude_transmittance=1.5)

    def test_slow_axis(self):
        assert RotatedRetarder(30.0, 1.0).slow_axis_deg == 120.0
        assert RotatedRetarder(120.0, 1.0).slow_axis_deg == 30.0


class TestRetardanceFromPhysics:
    def test_stressed_guide_value(self):
        # delta_n 1e-4, L 19.64 mm, lambda 780 nm
        got = retardance_from_physics(1e-4, 19.64, 780.0)
        assert got == pytest.approx(15.820738388847062, abs=1e-12)

    def test_zero_birefringence(self):
        assert retardance_from_physics(0.0, 19.64, 780.0) == 0.0

    def test_full_wave(self):
        got = retardance_from_physics(1e-5, 78.0, 780.0)
        assert got == pytest.approx(2 * math.pi, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            retardance_from_physics(-1e-5, 1.0, 780.0)
        with pytest.raises(ValueError):
            retardance_from_physics(1e-5, 0.0, 780.0)
        with pytest.raises(ValueError):
            retardance_from_physics(1e-5, 1.0, -780.0)


class TestAxisCalibration:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            AxisCalibration(((0.0, 0.0),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            AxisCalibration(((0.0, 0.0), (0.0, 5.0)))
        with pytest.raises(ValueError):
            AxisCalibration(((10.0, 5.0), (5.0, 10.0)))

    def test_ranges(self):
        with pytest.raises(ValueError):
            AxisCalibration(((0.0, 0.0), (181.0, 90.0)))
        with pytest.raises(ValueError):
            AxisCalibration(((0.0, 0.0), (170.0, 180.0)))

    def test_two_point_linear(self):
        cal = AxisCalibration(((0.0, 0.0), (160.0, 160.0)))
        assert axis_from_offset(cal, 80.0) == pytest.approx(80.0, abs=1e-12)
        cal = AxisCalibration(((20.0, 30.0), (120.0, 80.0)))
        assert list(_pchip_slopes(cal.thetas, cal.alphas)) == [0.5, 0.5]
        for t in np.linspace(20.0, 120.0, 41):
            assert axis_from_offset(cal, t) == pytest.approx(
                30.0 + 0.5 * (t - 20.0), abs=1e-12)

    def test_one_interpolator_per_table(self):
        cal = synthetic_calibration()
        assert cal._interpolator is cal._interpolator
        assert axis_from_offset(cal, 0.0) == 0.0
        # a copy with other samples builds its own curve from them
        shifted = dataclasses.replace(
            cal, samples=tuple((t, a + 1.0) for t, a in cal.samples))
        assert shifted._interpolator is not cal._interpolator
        assert axis_from_offset(shifted, 0.0) == 1.0
        assert axis_from_offset(cal, 0.0) == 0.0

    def test_exact_at_samples(self):
        cal = synthetic_calibration()
        for t, a in cal.samples:
            assert axis_from_offset(cal, t) == pytest.approx(a, abs=1e-12)

    def test_no_extrapolation(self):
        cal = synthetic_calibration()
        with pytest.raises(ValueError):
            axis_from_offset(cal, 176.0)
        with pytest.raises(ValueError):
            axis_from_offset(cal, -0.5)
        with pytest.raises(ValueError):
            axis_from_offset(cal, 200.0)

    def test_tracks_generating_curve(self):
        # oracle: the curve that generated the table, bounded by the
        # interpolation error measured on a dense grid
        cal = synthetic_calibration()
        dense = np.linspace(0.0, 175.0, 70001)
        interp_vals = np.array([axis_from_offset(cal, t) for t in dense])
        dense_max_err = np.max(np.abs(interp_vals - synthetic_alpha(dense)))
        assert dense_max_err < 0.005

        rng = np.random.default_rng(21)
        for t in rng.uniform(0.0, 175.0, size=500):
            got = axis_from_offset(cal, t)
            assert abs(got - synthetic_alpha(t)) <= dense_max_err + 1e-12

    def test_monotone_when_samples_monotone(self):
        cal = synthetic_calibration()
        grid = np.linspace(0.0, 175.0, 2000)
        vals = [axis_from_offset(cal, t) for t in grid]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def random_table(rng):
    """2 to 29 nodes at irregular thetas; alphas rising, falling, stepped
    (flat segments and sign changes) or random."""
    n = int(rng.integers(2, 30))
    x = np.sort(rng.choice(np.arange(0.0, 180.0, 0.25), n, replace=False))
    x += rng.uniform(0.0, 0.2, n)
    kind = rng.integers(4)
    y = (rng.choice([10.0, 45.0, 90.0, 170.0], n) if kind == 0
         else rng.uniform(0.0, 180.0, n))
    if kind == 1:
        y.sort()
    elif kind == 2:
        y[::-1].sort()
    return AxisCalibration(tuple(zip(x, y)))


def lookups(cal, thetas):
    return np.array([axis_from_offset(cal, t) for t in thetas])


class TestPchip:
    """The Fritsch-Carlson monotone cubic behind axis_from_offset."""

    def test_every_node_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            cal = random_table(rng)
            for t, a in cal.samples:
                assert axis_from_offset(cal, t) == a

    def test_last_node_returns_last_alpha(self):
        cal = load_axis_calibration(SHIPPED_CALIBRATION)
        theta, alpha = cal.samples[-1]
        assert axis_from_offset(cal, theta) == alpha
        rising = AxisCalibration(((0.0, 5.0), (30.0, 60.0), (90.0, 170.0)))
        assert axis_from_offset(rising, 90.0) == 170.0

    def test_monotone_table_gives_monotone_curve(self):
        # shape preservation: on each interval the curve stays between its
        # two nodes and moves one way, to rounding (values below 180 carry
        # an ulp of 2.8e-14)
        rng = np.random.default_rng(32)
        for _ in range(60):
            x = random_table(rng).thetas
            # sorted draws with replacement: rising, with flat segments
            y = np.sort(rng.choice(np.arange(0.0, 180.0, 7.5), len(x)))
            for alphas in (y, y[::-1]):
                cal = AxisCalibration(tuple(zip(x, alphas)))
                grid = np.linspace(x[0], x[-1], 1001)
                vals = lookups(cal, grid)
                sign = 1.0 if alphas[-1] >= alphas[0] else -1.0
                assert np.all(sign * np.diff(vals) >= -1e-12)
                k = np.minimum(np.searchsorted(x, grid, side="right") - 1,
                               len(x) - 2)
                lo = np.minimum(alphas[k], alphas[k + 1])
                hi = np.maximum(alphas[k], alphas[k + 1])
                assert np.all((vals >= lo - 1e-12) & (vals <= hi + 1e-12))

    def test_first_derivative_continuous_at_nodes(self):
        # one-sided difference quotients with step e differ from the node
        # slope by at most (e/2) max|f''|; a Hermite cubic whose end slopes
        # are at most 3 times a neighbouring secant has
        # |f''| <= 24 max|m| / min(h), and rounding adds about 1e-7 at e = 1e-6
        rng = np.random.default_rng(33)
        e = 1e-6
        for _ in range(200):
            cal = random_table(rng)
            x, y = cal.thetas, cal.alphas
            h = np.diff(x)
            bound = e * 24 * np.max(np.abs(np.diff(y) / h)) / h.min() + 1e-7
            slopes = _pchip_slopes(x, y)
            for t, d in zip(x[1:-1], slopes[1:-1]):
                f0 = axis_from_offset(cal, t)
                right = (axis_from_offset(cal, t + e) - f0) / e
                left = (f0 - axis_from_offset(cal, t - e)) / e
                assert abs(right - left) <= bound
                assert abs(right - d) <= bound and abs(left - d) <= bound

    def test_three_nodes_by_hand(self):
        # nodes (0, 0), (10, 20), (30, 30): h = (10, 20), secants m = (2, 1/2)
        cal = AxisCalibration(((0.0, 0.0), (10.0, 20.0), (30.0, 30.0)))
        # interior: w1 = 2*20 + 10 = 50, w2 = 20 + 2*10 = 40,
        #   1/d1 = (50/2 + 40/(1/2))/90 = 105/90, so d1 = 6/7
        # left end: ((2*10 + 20)*2 - 10*(1/2))/30 = 5/2, same sign as m0
        # right end: ((2*20 + 10)*(1/2) - 20*2)/30 = -1/2, sign opposite
        #   to its secant 1/2, so 0
        d = _pchip_slopes(cal.thetas, cal.alphas)
        assert d == pytest.approx([2.5, 6 / 7, 0.0], rel=1e-15, abs=0)
        # midpoints, s = 1/2: (y0 + y1)/2 + h (d0 - d1)/8
        assert axis_from_offset(cal, 5.0) == pytest.approx(
            10 + 10 * (2.5 - 6 / 7) / 8, rel=1e-14)
        assert axis_from_offset(cal, 20.0) == pytest.approx(
            25 + 20 * (6 / 7) / 8, rel=1e-14)

    def test_end_slope_capped_at_three_secants(self):
        # nodes (0, 50), (1, 51), (2, 0): the three-point end estimate
        # ((2 + 1)*1 - 1*(-51))/2 = 27 exceeds 3 m0 = 3 where the secants
        # change sign, so the left slope is 3
        cal = AxisCalibration(((0.0, 50.0), (1.0, 51.0), (2.0, 0.0)))
        assert _pchip_slopes(cal.thetas, cal.alphas)[0] == 3.0

    def test_flat_segment_and_sign_change_give_zero_slope(self):
        flat = AxisCalibration(((0.0, 10.0), (10.0, 20.0), (20.0, 20.0),
                                (30.0, 40.0)))
        assert list(_pchip_slopes(flat.thetas, flat.alphas)[1:3]) == [0, 0]
        vals = lookups(flat, np.linspace(10.0, 20.0, 101))
        assert np.max(np.abs(vals - 20.0)) <= 1e-13
        peak = AxisCalibration(((0.0, 10.0), (10.0, 30.0), (30.0, 20.0)))
        assert _pchip_slopes(peak.thetas, peak.alphas)[1] == 0.0
        assert lookups(peak, np.linspace(0.0, 30.0, 3001)).max() == 30.0

    def test_lookup_is_the_array_hermite_bit_for_bit(self):
        # oracle: the Hermite basis form on numpy arrays, its interval found
        # by np.searchsorted; the lookup is a Python float with the same bits
        def oracle(cal, t):
            x, y = cal.thetas, cal.alphas
            d = _pchip_slopes(x, y)
            k = min(int(np.searchsorted(x, t, side="right")) - 1, len(x) - 2)
            h = x[k + 1] - x[k]
            s = (t - x[k]) / h
            u = 1.0 - s
            return float(y[k] * (1 + 2 * s) * u * u
                         + y[k + 1] * s * s * (3 - 2 * s)
                         + h * s * u * (d[k] * u - d[k + 1] * s))

        rng = np.random.default_rng(35)
        cals = [load_axis_calibration(SHIPPED_CALIBRATION)]
        cals += [random_table(rng) for _ in range(100)]
        for cal in cals:
            lo, hi = cal.samples[0][0], cal.samples[-1][0]
            thetas = [lo, hi, *(t for t, _ in cal.samples),
                      *rng.uniform(lo, hi, 40).tolist()]
            for t in thetas:
                got = axis_from_offset(cal, t)
                assert type(got) is float
                assert got == oracle(cal, t), (cal, t)

    def test_overflowing_slopes_rejected(self):
        cal = AxisCalibration(((0.0, 0.0), (5e-324, 10.0), (1.0, 20.0)))
        # nothing is cached from a failed build: every call raises
        for theta in (0.5, 0.5, 1.0):
            with pytest.raises(ValueError, match="too close"):
                axis_from_offset(cal, theta)


class TestPchipScipyOracle:
    """scipy's PchipInterpolator as an independent oracle, when installed."""

    def test_matches_scipy(self):
        # to 1e-12 of the table's largest |alpha|: scipy evaluates a
        # power-form cubic, so near alpha = 0 both carry the same absolute
        # rounding, about 1e-14 degrees
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(34)
        cals = [load_axis_calibration(SHIPPED_CALIBRATION)]
        cals += [random_table(rng) for _ in range(200)]
        for i, cal in enumerate(cals):
            x, y = cal.thetas, cal.alphas
            oracle = interpolate.PchipInterpolator(x, y, extrapolate=False)
            grid = np.linspace(x[0], x[-1], 10001 if i == 0 else 501)
            grid = np.concatenate([grid, x])
            err = np.max(np.abs(lookups(cal, grid) - oracle(grid)))
            assert err <= 1e-12 * np.max(np.abs(y))


class TestCalibrationCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("theta_deg,alpha_deg\n0,0\n45,38.2\n90,90\n")
        cal = load_axis_calibration(p)
        assert cal.samples == ((0.0, 0.0), (45.0, 38.2), (90.0, 90.0))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("theta,alpha\n0,0\n90,90\n")
        with pytest.raises(ValueError, match="1"):
            load_axis_calibration(p)

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("theta_deg,alpha_deg\n0,0\n45,oops\n")
        with pytest.raises(ValueError, match="3"):
            load_axis_calibration(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("theta_deg,alpha_deg\n0,0,0\n")
        with pytest.raises(ValueError, match="2"):
            load_axis_calibration(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_axis_calibration(p)


class TestRetarderJones:
    def test_half_wave_at_zero(self):
        j = retarder_jones(RotatedRetarder(0.0, math.pi))
        assert np.allclose(j, [[-1j, 0], [0, 1j]], atol=1e-15)

    def test_half_wave_at_45_flips_h_to_v(self):
        j = retarder_jones(RotatedRetarder(45.0, math.pi))
        out = j @ np.array([1, 0], dtype=complex)
        assert abs(out[0]) < 1e-12
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_retardance_is_identity(self):
        for alpha in (0.0, 33.0, 121.5):
            j = retarder_jones(RotatedRetarder(alpha, 0.0,
                                               amplitude_transmittance=0.7))
            assert np.allclose(j, 0.7 * np.eye(2), atol=1e-15)

    def test_unitary_up_to_transmittance(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            r = RotatedRetarder(rng.uniform(0, 180),
                                rng.uniform(0, 4 * math.pi),
                                rng.uniform(0.1, 1.0))
            j = retarder_jones(r)
            gram = j.conj().T @ j
            t2 = r.amplitude_transmittance ** 2
            assert np.max(np.abs(gram - t2 * np.eye(2))) < 1e-12


class TestCrossedPolarizers:
    def test_minimum_on_axis(self):
        r = RotatedRetarder(37.0, 2.1, 0.9)
        assert crossed_polarizer_transmission(r, 37.0) == pytest.approx(
            0.0, abs=1e-15)
        assert crossed_polarizer_transmission(r, 127.0) == pytest.approx(
            0.0, abs=1e-15)

    def test_maximum_45_from_minimum(self):
        r = RotatedRetarder(60.0, math.pi)
        assert crossed_polarizer_transmission(r, 15.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_retardance_blocks_everything(self):
        r = RotatedRetarder(25.0, 0.0)
        for p in np.linspace(0, 180, 37):
            assert crossed_polarizer_transmission(r, p) == pytest.approx(
                0.0, abs=1e-15)

    def test_closed_form(self):
        # t^2 sin^2(2(alpha-p)) sin^2(delta/2)
        rng = np.random.default_rng(23)
        for _ in range(300):
            alpha = rng.uniform(0, 180)
            delta = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0.2, 1.0)
            p = rng.uniform(-90, 270)
            got = crossed_polarizer_transmission(
                RotatedRetarder(alpha, delta, t), p)
            want = (t ** 2 * math.sin(math.radians(2 * (alpha - p))) ** 2
                    * math.sin(delta / 2) ** 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_period_90_for_half_wave(self):
        r = RotatedRetarder(12.0, math.pi)
        for p in np.linspace(0, 90, 181):
            assert crossed_polarizer_transmission(r, p) == pytest.approx(
                crossed_polarizer_transmission(r, p + 90), abs=1e-12)


class TestFindAxis:
    def test_half_wave_at_45(self):
        got = find_axis(RotatedRetarder(45.0, math.pi))
        assert abs(got - 45.0) < 0.01

    def test_partial_wave_at_30(self):
        r = RotatedRetarder(30.0, 1.2)
        got = find_axis(r)
        # independent oracle: dense 0.001 degree scan of the transmission
        grid = np.arange(0.0, 90.0, 0.001)
        vals = [crossed_polarizer_transmission(r, p) for p in grid]
        oracle = grid[int(np.argmin(vals))]
        assert abs(got - oracle) < 0.005
        assert abs(got - 30.0) < 0.01

    def test_axis_at_zero_mod_90(self):
        got = find_axis(RotatedRetarder(0.0, math.pi))
        assert min(got, 90.0 - got) < 0.01

    def test_recovery_across_retardances(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            alpha = rng.uniform(0, 180)
            delta = rng.uniform(0.3, 2 * math.pi - 0.3)
            got = find_axis(RotatedRetarder(alpha, delta,
                                            rng.uniform(0.3, 1.0)))
            diff = abs(got - alpha) % 90.0
            assert min(diff, 90.0 - diff) < 0.01

    def test_full_wave_unobservable(self):
        with pytest.raises(AxisUnobservableError):
            find_axis(RotatedRetarder(10.0, 2 * math.pi))
        with pytest.raises(AxisUnobservableError):
            find_axis(RotatedRetarder(10.0, 0.0))


def closed_form_trace(alpha, delta, t, angles):
    """T(p) = t^2 sin^2(2(alpha - p)) sin^2(delta/2), computed directly."""
    return [t ** 2 * math.sin(math.radians(2 * (alpha - p))) ** 2
            * math.sin(delta / 2) ** 2 for p in angles]


def axis_error(found, alpha):
    d = abs(found - alpha) % 90.0
    return min(d, 90.0 - d)


class TestFitAxis:
    ORTHOGONAL = [11.25 * k for k in range(8)]

    @pytest.mark.parametrize("grid", ["orthogonal", "irregular"])
    def test_clean_traces_match_closed_form(self, grid):
        rng = np.random.default_rng(25)
        for _ in range(200):
            alpha = rng.uniform(0, 180)
            delta = rng.uniform(0.3, 2 * math.pi - 0.3)
            t = rng.uniform(0.2, 1.0)
            angles = (self.ORTHOGONAL if grid == "orthogonal"
                      else rng.uniform(-90, 270, size=13))
            found, contrast = fit_axis(
                angles, closed_form_trace(alpha, delta, t, angles))
            assert 0.0 <= found < 90.0
            assert axis_error(found, alpha) < 1e-10
            assert contrast == pytest.approx(
                t ** 2 * math.sin(delta / 2) ** 2, abs=1e-13)

    def test_matches_least_squares_oracle(self):
        # oracle: numpy's least-squares solve on the design matrix
        # [1, cos 4p, sin 4p], not the centred normal equations of the fit;
        # random grids of 3 to 256 angles, Gaussian noise of a tenth of C
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(3, 257))
            angles = rng.uniform(-90, 270, size=n)
            alpha = rng.uniform(0, 180)
            delta = rng.uniform(0.5, 2 * math.pi - 0.5)
            t = rng.uniform(0.5, 1.0)
            c = t ** 2 * math.sin(delta / 2) ** 2
            powers = (np.array(closed_form_trace(alpha, delta, t, angles))
                      + rng.normal(0.0, 0.1 * c, n))
            four_p = np.radians(4.0 * angles)
            design = np.column_stack([np.ones(n), np.cos(four_p),
                                      np.sin(four_p)])
            (_, c1, c2), *_ = np.linalg.lstsq(design, powers, rcond=None)
            found, contrast = fit_axis(angles, powers)
            assert axis_error(
                found, math.degrees(math.atan2(-c2, -c1)) / 4.0) < 1e-12
            assert contrast == pytest.approx(2.0 * math.hypot(c1, c2),
                                             abs=1e-12)

    def test_find_axis_is_the_fit_of_its_samples(self):
        r = RotatedRetarder(118.0, 1.9, 0.9)
        trace = [crossed_polarizer_transmission(r, p) for p in self.ORTHOGONAL]
        assert find_axis(r) == fit_axis(self.ORTHOGONAL, trace)[0]
        assert axis_error(find_axis(r), 118.0) < 1e-12

    def test_flat_trace_unobservable(self):
        with pytest.raises(AxisUnobservableError):
            fit_axis(self.ORTHOGONAL, [0.3] * 8)
        with pytest.raises(AxisUnobservableError):
            fit_axis(self.ORTHOGONAL, [0.0] * 8)

    def test_noisy_trace_error_bound_shrinks_with_n(self):
        # N angles spread evenly over 90 degrees with Gaussian power noise
        # sigma: the fitted axis has standard error sigma/(C sqrt(2N)) rad
        rng = np.random.default_rng(26)
        sigma, alpha, delta, t, trials = 0.01, 33.0, 2.0, 0.9, 300
        c = t ** 2 * math.sin(delta / 2) ** 2
        rms = {}
        for n in (16, 256):
            angles = np.arange(n) * 90.0 / n
            clean = np.array(closed_form_trace(alpha, delta, t, angles))
            errs = np.radians([axis_error(fit_axis(
                angles, clean + rng.normal(0.0, sigma, n))[0], alpha)
                for _ in range(trials)])
            bound = sigma / (c * math.sqrt(2 * n))
            rms[n] = math.sqrt(np.mean(errs ** 2))
            # the RMS of 300 draws has a relative spread of 1/sqrt(600),
            # about 4 %, so 20 % is 5 spreads; a single draw 5 standard
            # errors out has odds below 1e-6
            assert 0.8 * bound < rms[n] < 1.2 * bound
            assert errs.max() < 5 * bound
        assert rms[256] < rms[16] / 2

    def test_bad_input(self):
        with pytest.raises(ValueError, match="one length"):
            fit_axis([0, 10, 20], [0.1, 0.2])
        with pytest.raises(ValueError, match="finite"):
            fit_axis([0, 10, 20], [0.1, math.nan, 0.2])
        with pytest.raises(ValueError, match="one length"):
            fit_axis([0, 10], [0.1, 0.2])
        with pytest.raises(ValueError, match="distinct mod 90"):
            fit_axis([5, 95, 185, 30], [0.1, 0.1, 0.1, 0.4])
        # finite powers whose sums overflow: no NaN axis or contrast
        for powers in ([1e308, 0.0, 1e308], [1e308, -1e308, 1e308]):
            with pytest.raises(ValueError, match="overflows the float range"):
                fit_axis([0, 30, 60], powers)
