"""Composed RPDC behavior: routing, extinction, axis checks, sweeps, files."""

import collections
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rpdcsim.birefringence import RotatedRetarder, retarder_jones
from rpdcsim.coupling import CouplerParams
from rpdcsim.device import (
    RpdcDevice,
    SweepPoint,
    _axis_powers,
    axis_port_powers,
    device_from_dict,
    device_to_dict,
    extinction_db,
    extinction_ratios,
    load_device,
    make_pdc_device,
    port_transfer_matrices,
    save_device,
    simulate_axis_check,
    sweep_coupling_length,
)
from rpdcsim.polarization import (
    JonesVector,
    cardinal_state,
    density_to_stokes,
    jones_to_density,
    rotation_deg,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def ideal_device(alpha=45.0, retardance=math.pi, t=1.0):
    # quarter-wave slow / half-wave fast arguments at 23 + 5.5 mm
    return make_pdc_device(alpha, math.pi / 19, 2 * math.pi / 57, 23.0, 5.5,
                           t, retardance)


def port_fields(dev, v):
    """Lab-frame fields leaving ports T and R for input Jones vector v."""
    return port_transfer_matrices(dev) @ v.as_array()


def power(field):
    return float(np.vdot(field, field).real)


def shipped_device():
    return load_device("data/device_45deg.json")


# the device's error for a length of 1e308 mm on a 10 rad/mm slow axis
SLOW_OVERFLOW = ("phase k_slow_rad_per_mm * length_mm + bend_phase_slow_rad "
                 "overflows: k_slow_rad_per_mm 10.0, length_mm 1e+308, "
                 "bend_phase_slow_rad 0.0")


def random_device(rng):
    return make_pdc_device(rng.uniform(0, 180), rng.uniform(0.1, 0.3),
                           rng.uniform(0.0, 0.1), rng.uniform(0, 40),
                           rng.uniform(0, 8), rng.uniform(0.2, 1.0),
                           rng.uniform(0, 2 * math.pi))


class TestConstruction:
    def test_one_length(self):
        # one physical device: both couplers read its single length, also
        # after with_length, which checks the new length
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0, 5.5)
        for d, z in ((dev, 23.0), (dev.with_length(17.0), 17.0)):
            assert d.length_mm == z
            assert d.coupler_slow.length_mm == d.coupler_fast.length_mm == z
        with pytest.raises(ValueError, match="length_mm"):
            dev.with_length(-1.0)

    def test_coupling_ordering(self):
        with pytest.raises(ValueError, match="slow"):
            RpdcDevice(0.0, 0.1, 0.2, 23.0)

    @pytest.mark.parametrize("k_slow, k_fast", [(0.2, -0.1), (-0.1, -0.2)])
    def test_negative_coupling_rejected(self, k_slow, k_fast):
        with pytest.raises(ValueError, match="k_fast_rad_per_mm >= 0"):
            RpdcDevice(0.0, k_slow, k_fast, 23.0)

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(RpdcDevice)])
    def test_non_finite_field_rejected(self, field):
        good = make_pdc_device(45.0, 0.2, 0.1, 23.0, 5.5, 0.9, 2.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                dataclasses.replace(good, **{field: bad})

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            make_pdc_device(180.0, 0.2, 0.1, 23.0)

    @pytest.mark.parametrize("changes", [
        {"alpha_deg": 180.0}, {"alpha_deg": -1.0}, {"retardance_rad": -0.1},
        {"amplitude_transmittance": 0.0}, {"amplitude_transmittance": 1.2},
        {"retardance_rad": -0.1, "amplitude_transmittance": 1.2},
    ])
    def test_retarder_rules_match_rotated_retarder(self, changes):
        # the straight section is a rotated retarder: the same values are
        # out of range for both, with the same message, checked in one order
        with pytest.raises(ValueError) as want:
            dataclasses.replace(RotatedRetarder(45.0, 2.5, 0.9), **changes)
        with pytest.raises(ValueError) as got:
            dataclasses.replace(make_pdc_device(45.0, 0.2, 0.1, 23.0, 5.5,
                                                0.9, 2.5), **changes)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(next(iter(changes)))

    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            make_pdc_device(45.0, 0.2, 0.1, 23.0,
                            amplitude_transmittance=1.2)

    def test_negative_bend(self):
        with pytest.raises(ValueError):
            make_pdc_device(45.0, 0.2, 0.1, 23.0, bend_length_mm=-1.0)

    @pytest.mark.parametrize("changes, field", [
        ({"k_slow_rad_per_mm": 1e300, "k_fast_rad_per_mm": 1e300,
          "length_mm": 1e10}, "k_slow_rad_per_mm"),
        ({"k_slow_rad_per_mm": 1.7e308, "bend_phase_slow_rad": 1.7e308,
          "length_mm": 1.0}, "k_slow_rad_per_mm"),
        ({"k_slow_rad_per_mm": 1.7e308, "k_fast_rad_per_mm": 1.7e308,
          "bend_phase_slow_rad": -1.7e308, "bend_phase_fast_rad": 1.7e308,
          "length_mm": 1.0}, "k_fast_rad_per_mm"),
    ])
    def test_overflowing_phase_named(self, changes, field):
        # every field is finite and in range, but k * length + bend phase
        # is not; the message names the fields and their values
        good = make_pdc_device(45.0, 0.2, 0.1, 23.0, 5.5, 0.9, 2.5)
        with pytest.raises(ValueError, match=f"phase {field} ") as exc:
            dataclasses.replace(good, **changes)
        assert repr(changes[field]) in str(exc.value)
        # a length whose phase stays finite keeps the device valid
        dataclasses.replace(good, **dict(changes, length_mm=0.0))

    def test_transmittance_whose_square_underflows(self):
        with pytest.raises(ValueError,
                           match="amplitude_transmittance squared underflows "
                                 "to 0, got 1e-320"):
            make_pdc_device(45.0, 0.2, 0.1, 23.0,
                            amplitude_transmittance=1e-320)
        # a subnormal square keeps too few digits: at t = 1e-161 tomography
        # of A through data/device_45deg.json once gave fidelity 0.909,
        # where the shipped transmittance gives 0.975 (loss does not
        # change fidelity)
        for t in (3e-162, 1e-161, 1.49e-154):
            with pytest.raises(ValueError,
                               match=f"squared underflows to .*, got {t}$"):
                make_pdc_device(45.0, 0.2, 0.1, 23.0,
                                amplitude_transmittance=t)
        # a transmittance whose square is a normal float is kept
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0,
                              amplitude_transmittance=1.5e-154)
        assert dev.amplitude_transmittance ** 2 >= sys.float_info.min

    def test_bend_phases_scale_with_k(self):
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0, bend_length_mm=5.5)
        assert dev.coupler_slow.bend_phase_rad == pytest.approx(1.1,
                                                                abs=1e-15)
        assert dev.coupler_fast.bend_phase_rad == pytest.approx(0.55,
                                                                abs=1e-15)


class TestTransfer:
    def test_zero_length_bar_passthrough(self):
        dev = make_pdc_device(30.0, 0.2, 0.1, 0.0)
        v = cardinal_state("D")
        out_t, out_r = port_fields(dev, v)
        assert power(out_t) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(out_r, v.as_array(), atol=1e-12)

    def test_degenerate_coupler_polarization_insensitive(self):
        k = 0.15
        dev = RpdcDevice(0.0, k, k, 10.0)
        want_t = math.sin(k * 10.0) ** 2
        for label in ("H", "V", "D", "R"):
            out_t, out_r = port_fields(dev, cardinal_state(label))
            assert power(out_t) == pytest.approx(want_t, abs=1e-12)
            assert power(out_r) == pytest.approx(1 - want_t, abs=1e-12)

    def test_ideal_routing_d_and_a(self):
        # slow axis at 45: D crosses fully, A stays in the bar port
        dev = ideal_device()
        d_t, d_r = port_fields(dev, cardinal_state("D"))
        assert power(d_t) == pytest.approx(1.0, abs=1e-12)
        assert power(d_r) == pytest.approx(0.0, abs=1e-12)
        a_t, a_r = port_fields(dev, cardinal_state("A"))
        assert power(a_t) == pytest.approx(0.0, abs=1e-12)
        assert power(a_r) == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            dev = random_device(rng)
            v = JonesVector(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            out_t, out_r = port_fields(dev, v)
            want = dev.amplitude_transmittance ** 2 * v.power
            assert power(out_t) + power(out_r) == pytest.approx(
                want, rel=1e-10, abs=0)

    def test_frame_covariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            alpha = rng.uniform(0, 180)
            dev = make_pdc_device(alpha, 0.2, 0.1, 23.0, 5.5, 0.9, 2.5)
            dev0 = make_pdc_device(0.0, 0.2, 0.1, 23.0, 5.5, 0.9, 2.5)
            v = JonesVector(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            out_t, out_r = port_fields(dev, v)
            rot = rotation_deg(alpha)
            vin0 = JonesVector.from_array(rotation_deg(-alpha) @ v.as_array())
            out0_t, out0_r = port_fields(dev0, vin0)
            assert np.allclose(out_t, rot @ out0_t, atol=1e-12)
            assert np.allclose(out_r, rot @ out0_r, atol=1e-12)

    def test_retarder_coupler_commutation(self):
        # the residual retarder and the per-port coupler action are
        # simultaneously diagonal on the device axes, so composition
        # order cannot matter; also pins the slow axis to alpha
        dev = make_pdc_device(27.0, 0.2, 0.1, 17.0, 3.0, 1.0, 1.9)
        j_t, j_r = port_transfer_matrices(dev)
        bare = make_pdc_device(27.0, 0.2, 0.1, 17.0, 3.0, 1.0, 0.0)
        c_t, c_r = port_transfer_matrices(bare)
        # slow axis at 27 deg = fast axis of the same retarder at 117
        w = retarder_jones(RotatedRetarder(117.0, 1.9))
        for j, c in ((j_t, c_t), (j_r, c_r)):
            assert np.allclose(j, c @ w, atol=1e-12)
            assert np.allclose(j, w @ c, atol=1e-12)


class TestExtinction:
    def test_db_value(self):
        assert extinction_db(0.01, 1.0) == 20.0
        assert extinction_db(1.0, 0.01) == 20.0

    def test_db_clamp(self):
        assert extinction_db(0.0, 1.0) == 150.0
        assert extinction_db(0.0, 0.0) == 0.0

    def test_db_domain(self):
        with pytest.raises(ValueError):
            extinction_db(-0.1, 1.0)
        for args, message in [
                ((math.nan, 1.0), "p_num must be finite, got nan"),
                ((math.inf, 1.0), "p_num must be finite, got inf"),
                ((1.0, math.inf), "p_den must be finite, got inf"),
                ((-math.inf, 1.0), "p_num must be finite, got -inf")]:
            with pytest.raises(ValueError) as info:
                extinction_db(*args)
            assert str(info.value) == message

    def test_db_past_the_float_range_of_the_ratio(self):
        # 1e300 / 1e-15 overflows, but its 3,150 dB does not
        assert extinction_db(1e300, 0.0) == 3150.0
        assert extinction_db(0.0, 1e300) == 3150.0
        assert extinction_db(1e300, 1e-10) == 3100.0

    def test_ideal_device_clamp_limited(self):
        er_t, er_r = extinction_ratios(ideal_device())
        assert er_t >= 100.0 and er_r >= 100.0
        assert er_t == pytest.approx(150.0, abs=1e-9)
        assert er_r == pytest.approx(150.0, abs=1e-9)

    def test_shipped_device_values(self):
        er_t, er_r = extinction_ratios(shipped_device())
        assert er_t == pytest.approx(16.0, abs=1e-9)
        assert er_r == pytest.approx(20.0, abs=1e-9)

    def test_transmittance_invariance(self):
        # loss cancels in the port-power ratios (all ports above clamp)
        lossy = extinction_ratios(make_pdc_device(45.0, 0.2, 0.1, 17.0, 3.0,
                                                  amplitude_transmittance=0.5))
        clean = extinction_ratios(make_pdc_device(45.0, 0.2, 0.1, 17.0, 3.0))
        assert lossy == pytest.approx(clean, abs=1e-12)

    def test_design_point_without_bends(self):
        # straight device at L = pi/(2 dk) with K_F L = pi
        dev = make_pdc_device(45.0, math.pi / 19, 2 * math.pi / 57, 28.5)
        p = axis_port_powers(dev)
        assert all(type(v) is float for v in dataclasses.astuple(p))
        assert p.t_slow == pytest.approx(1.0, abs=1e-12)
        assert p.t_fast == pytest.approx(0.0, abs=1e-12)
        er_t, er_r = extinction_ratios(dev)
        assert er_t >= 100.0 and er_r >= 100.0


class TestAxisCheck:
    def test_45_degree_mapping(self):
        dev = ideal_device()
        want = {"H": "V", "V": "H", "D": "D", "A": "A"}
        for label, expected in want.items():
            r = simulate_axis_check(dev, label)
            assert r.expected_label == expected
            assert r.visibility == pytest.approx(1.0, abs=1e-12)
            d = abs(r.orientation_deg - r.expected_angle_deg) % 180.0
            assert min(d, 180.0 - d) < 1e-6
            assert abs(r.ellipticity_deg) < 1e-6

    def test_shipped_device_visibility(self):
        dev = shipped_device()
        r_h = simulate_axis_check(dev, "H")
        assert r_h.expected_label == "V"
        assert r_h.visibility == pytest.approx(0.9991351502732795, abs=1e-12)
        assert r_h.visibility >= 0.98
        r_d = simulate_axis_check(dev, "D")
        assert r_d.expected_label == "D"
        assert r_d.visibility == pytest.approx(1.0, abs=1e-12)

    def test_zero_alpha_identity(self):
        dev = make_pdc_device(0.0, 0.2, 0.1, 23.0, retardance_rad=math.pi)
        for label in ("H", "V"):
            r = simulate_axis_check(dev, label)
            assert r.expected_label == label
            assert r.visibility == pytest.approx(1.0, abs=1e-12)

    def test_quarter_wave_region_makes_circular(self):
        # H through a quarter-wave region with slow axis at 45 gives R
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0,
                              retardance_rad=math.pi / 2)
        r = simulate_axis_check(dev, "H")
        assert r.ellipticity_deg == pytest.approx(45.0, abs=1e-9)
        assert r.stokes.s2 == pytest.approx(1.0, abs=1e-12)

    def test_visibility_matches_two_projections(self):
        # oracle: the output field, built from the equivalent retarder
        # (fast axis 90 degrees from the device's slow axis), projected on
        # the expected linear state e and on e + 90
        rng = np.random.default_rng(15)
        devices = [ideal_device(), shipped_device(),
                   *(random_device(rng) for _ in range(100))]
        for dev in devices:
            region = retarder_jones(RotatedRetarder(
                (dev.alpha_deg + 90.0) % 180.0, dev.retardance_rad,
                dev.amplitude_transmittance))
            for label, theta_in in (("H", 0.0), ("V", 90.0), ("D", 45.0),
                                    ("A", 135.0)):
                out = region @ cardinal_state(label).as_array()
                e = math.radians(2.0 * dev.alpha_deg - theta_in)
                p_expect = abs(np.vdot([math.cos(e), math.sin(e)], out)) ** 2
                p_block = abs(np.vdot([-math.sin(e), math.cos(e)], out)) ** 2
                want = (p_expect - p_block) / (p_expect + p_block)
                r = simulate_axis_check(dev, label)
                assert abs(r.visibility - want) <= 1e-12, (dev, label)
                # the field itself, global phase included: the visibility
                # and Stokes vector cannot see a sign flipped on the field
                assert r.jones.as_array() == pytest.approx(
                    out, rel=0, abs=3e-15), (dev, label)

    def test_stokes_is_that_of_the_output_projector(self):
        # oracle: the Stokes vector of the projector of the output field
        rng = np.random.default_rng(16)
        devices = [ideal_device(), shipped_device(),
                   *(random_device(rng) for _ in range(100))]
        for dev in devices:
            for label in "HVDA":
                r = simulate_axis_check(dev, label)
                want = density_to_stokes(jones_to_density(r.jones))
                assert np.abs(np.subtract(r.stokes.as_tuple(),
                                          want.as_tuple())).max() <= 1e-15

    def test_bad_label(self):
        with pytest.raises(ValueError):
            simulate_axis_check(ideal_device(), "R")

    def test_repeat_and_derived_devices_agree_with_fresh_ones(self):
        # a check depends only on the device's fields: repeat calls on one
        # device agree, and a device derived from it gives what a device
        # built fresh from the same fields gives, bit for bit
        def checks(dev):
            return [repr(simulate_axis_check(dev, label)) for label in "HVDA"]

        rng = np.random.default_rng(47)
        for _ in range(50):
            dev = random_device(rng)
            first = checks(dev)
            assert checks(dev) == first
            derived = (
                dev.with_length(dev.length_mm + 1.0),
                dataclasses.replace(dev, alpha_deg=(dev.alpha_deg + 30.0)
                                    % 180.0),
                dataclasses.replace(dev, retardance_rad=dev.retardance_rad
                                    + 0.5))
            for i, other in enumerate(derived):
                got = checks(other)
                assert got == checks(RpdcDevice(*dataclasses.astuple(other)))
                # a new length leaves the region as it was; a new axis or
                # retardance changes it
                assert (got == first) == (i == 0)
            assert checks(dev) == first


class TestSweep:
    def test_zero_length_row(self):
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0)
        (pt,) = sweep_coupling_length(dev, [0.0])
        assert pt.p_t_slow == pytest.approx(0.0, abs=1e-15)
        assert pt.p_t_fast == pytest.approx(0.0, abs=1e-15)
        assert pt.p_r_slow == pytest.approx(1.0, abs=1e-15)

    def test_zero_length_with_bends(self):
        dev = make_pdc_device(45.0, 0.2, 0.1, 23.0, bend_length_mm=5.5)
        (pt,) = sweep_coupling_length(dev, [0.0])
        assert pt.p_t_slow == pytest.approx(math.sin(0.2 * 5.5) ** 2,
                                            abs=1e-12)
        assert pt.p_t_fast == pytest.approx(math.sin(0.1 * 5.5) ** 2,
                                            abs=1e-12)

    def test_perfect_point(self):
        (pt,) = sweep_coupling_length(ideal_device(), [23.0])
        assert pt.p_t_slow == pytest.approx(1.0, abs=1e-12)
        assert pt.p_t_fast == pytest.approx(0.0, abs=1e-12)

    def test_traces_are_sin_squared(self):
        dev = ideal_device()
        ks = math.pi / 19
        kf = 2 * math.pi / 57
        for pt in sweep_coupling_length(dev, np.linspace(0, 30, 61)):
            z = pt.length_mm
            assert pt.p_t_slow == pytest.approx(
                math.sin(ks * (z + 5.5)) ** 2, abs=1e-12)
            assert pt.p_t_fast == pytest.approx(
                math.sin(kf * (z + 5.5)) ** 2, abs=1e-12)

    def test_max_separation_at_shortened_length(self):
        # grid oracle for the first maximal slow/fast separation
        dev = ideal_device()
        zs = np.arange(20.0, 26.0, 0.002)
        pts = sweep_coupling_length(dev, zs)
        sep = np.array([p.p_t_slow - p.p_t_fast for p in pts])
        assert zs[int(np.argmax(sep))] == pytest.approx(23.0, abs=0.003)
        assert sep.max() == pytest.approx(1.0, abs=1e-6)

    def test_loss_divided_out(self):
        lossy = ideal_device(t=0.5)
        (pt,) = sweep_coupling_length(lossy, [23.0])
        assert pt.p_t_slow == pytest.approx(1.0, abs=1e-12)

    def test_any_iterable_of_lengths(self):
        dev = random_device(np.random.default_rng(48))
        lengths = [0.0, 2.5, 23.0, 31.75, 1e6]
        want = sweep_coupling_length(dev, lengths)
        assert all(type(v) is float for pt in want for v in pt)
        for given in (tuple(lengths), np.array(lengths),
                      (z for z in lengths)):
            got = sweep_coupling_length(dev, given)
            assert [tuple(pt) for pt in got] == [tuple(pt) for pt in want]
            assert all(type(v) is float for pt in got for v in pt)
        assert sweep_coupling_length(dev, []) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError) as info:
            sweep_coupling_length(ideal_device(), [-1.0])
        assert str(info.value) == "length_mm must be >= 0, got -1.0"

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_bad_length_rejected(self, z):
        with pytest.raises(ValueError) as info:
            sweep_coupling_length(ideal_device(), [1.0, z])
        assert str(info.value) == f"length_mm must be finite, got {z}"

    def test_overflowing_length_named(self):
        dev = make_pdc_device(45.0, 10.0, 0.1, 1.0)
        with pytest.raises(ValueError) as info:
            sweep_coupling_length(dev, [1.0, 1e308, 2.0])
        assert str(info.value) == SLOW_OVERFLOW

    @pytest.mark.parametrize("lengths, message", [
        ([-1.0, 1e308], "length_mm must be >= 0, got -1.0"),
        ([1.0, 1e308, -1.0], SLOW_OVERFLOW),
        ([2.0, math.nan, 1e308], "length_mm must be finite, got nan"),
    ], ids=["negative-first", "overflow-first", "nan-first"])
    def test_first_bad_length_in_input_order_named(self, lengths, message):
        # 1e308 overflows the phase of the 10 rad/mm slow axis
        dev = make_pdc_device(45.0, 10.0, 0.1, 1.0)
        with pytest.raises(ValueError) as info:
            sweep_coupling_length(dev, lengths)
        assert str(info.value) == message

    def test_rejects_exactly_what_the_device_rejects(self):
        # oracle: the device's own rules. A sweep over [z] raises exactly
        # when dev.with_length(z) does, with its message; a list raises the
        # message of its first such length. Devices and lengths span the
        # float range, so phases overflow on the slow axis, on the fast
        # axis alone, or not at all
        rng = np.random.default_rng(49)

        def magnitude():
            return float(rng.choice([0.0, 10.0 ** rng.uniform(-3, 2),
                                     10.0 ** rng.uniform(2, 308),
                                     sys.float_info.max * rng.uniform()]))

        def device():
            while True:
                k_fast = magnitude()
                k_slow = k_fast * float(1.0 + rng.choice([0.0, rng.uniform()]))
                # slow then fast; a fast bend far above the slow one lets
                # the fast phase alone overflow
                bends = (magnitude() * float(rng.choice([-1.0, 1.0])),
                         magnitude())
                try:
                    return RpdcDevice(rng.uniform(0, 180), k_slow, k_fast,
                                      rng.uniform(0, 40), *bends,
                                      rng.uniform(0.2, 1.0),
                                      rng.uniform(0, 2 * math.pi))
                except ValueError:
                    continue

        def edge(k, phi):
            # a length about where k z + phi leaves the float range
            z = (sys.float_info.max - phi) / k if k > 0 else 1.0
            return z * float(rng.choice([1.0 + rng.uniform(-1e-15, 1e-15),
                                         2.0 ** rng.uniform(-2, 2)]))

        def lengths(dev):
            return [edge(dev.k_slow_rad_per_mm, dev.bend_phase_slow_rad),
                    edge(dev.k_fast_rad_per_mm, dev.bend_phase_fast_rad),
                    *(float(rng.choice([-magnitude(), math.nan, math.inf,
                                        -math.inf, 0.0, -0.0, magnitude()]))
                      for _ in range(4))]

        def error(call, *args):
            try:
                call(*args)
            except ValueError as exc:
                return str(exc)
            return None

        seen = collections.Counter()
        for _ in range(400):
            dev = device()
            zs = lengths(dev)
            rng.shuffle(zs)
            wants = [error(dev.with_length, z) for z in zs]
            for z, want in zip(zs, wants):
                assert error(sweep_coupling_length, dev, [z]) == want, (dev, z)
                # the rule broken: the overflowing axis, or the length's rule
                seen[want and want.split(" * ")[0].split(", got")[0]] += 1
            first = next((w for w in wants if w is not None), None)
            assert error(sweep_coupling_length, dev, zs) == first, (dev, zs)
            good = [z for z, w in zip(zs, wants) if w is None]
            for pt in sweep_coupling_length(dev, good):
                assert all(math.isfinite(v) for v in pt), (dev, pt)
        assert set(seen) == {
            None, "length_mm must be finite", "length_mm must be >= 0",
            "phase k_slow_rad_per_mm", "phase k_fast_rad_per_mm"}
        assert min(seen.values()) >= 20, seen

    def test_points_are_immutable_rows(self):
        rng = np.random.default_rng(45)
        dev = random_device(rng)
        lengths = rng.uniform(0, 40, size=50)
        points = sweep_coupling_length(dev, lengths)
        assert SweepPoint._fields == ("length_mm", "p_t_slow", "p_t_fast",
                                      "p_r_slow", "p_r_fast")
        for z, pt in zip(lengths, points):
            assert type(pt) is SweepPoint
            assert all(type(v) is float for v in pt)
            assert tuple(pt) == (float(z), *_axis_powers(dev, float(z)))
            assert pt.length_mm == pt[0] and pt.p_r_fast == pt[4]
        with pytest.raises(AttributeError):
            points[0].p_t_slow = 0.5

    def test_matches_full_jones_model(self):
        # oracle: the port matrices of the device rebuilt at each length,
        # fed unit slow- and fast-axis inputs, with the loss divided out
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(300):
            dev = random_device(rng)
            a = math.radians(dev.alpha_deg)
            axes = (np.array([math.cos(a), math.sin(a)]),
                    np.array([-math.sin(a), math.cos(a)]))
            t2 = dev.amplitude_transmittance ** 2
            for pt in sweep_coupling_length(dev, rng.uniform(0, 40, size=3)):
                ports = port_transfer_matrices(dev.with_length(pt.length_mm))
                want = [power(j @ v) / t2 for j in ports for v in axes]
                got = [pt.p_t_slow, pt.p_t_fast, pt.p_r_slow, pt.p_r_fast]
                worst = max(worst, np.abs(np.subtract(got, want)).max())
        assert worst < 1e-14


class TestDeviceFiles:
    def test_round_trip(self, tmp_path):
        dev = make_pdc_device(45.0, 0.21, 0.11, 23.0, 5.5, 0.77, 3.1)
        p = tmp_path / "dev.json"
        save_device(dev, p)
        assert load_device(p) == dev

    def test_each_key_lands_on_its_field(self):
        # a round trip cannot catch two fields read in swapped order
        for path in sorted(DATA.glob("device_*.json")):
            data = json.loads(path.read_text())
            dev = load_device(path)
            for key, value in data.items():
                field = ("amplitude_transmittance" if key == "transmittance"
                         else key)
                assert getattr(dev, field) == value, (path.name, key)
            for c, axis in ((dev.coupler_slow, "slow"),
                            (dev.coupler_fast, "fast")):
                assert c.k12 == data[f"k_{axis}_rad_per_mm"]
                assert c.bend_phase_rad == data[f"bend_phase_{axis}_rad"]
                assert c.length_mm == data["length_mm"]

    def test_shipped_files_load(self):
        for name in ("data/device_45deg.json", "data/device_45deg_ideal.json",
                     "data/device_0deg.json"):
            dev = load_device(name)
            assert 0 <= dev.alpha_deg < 180

    def test_missing_field(self):
        d = device_to_dict(make_pdc_device(45.0, 0.2, 0.1, 23.0))
        del d["retardance_rad"]
        with pytest.raises(ValueError, match="retardance_rad"):
            device_from_dict(d)

    def test_unknown_field(self):
        d = device_to_dict(make_pdc_device(45.0, 0.2, 0.1, 23.0))
        d["wavelength_nm"] = 780
        with pytest.raises(ValueError, match="wavelength_nm"):
            device_from_dict(d)

    def test_non_numeric_field(self):
        d = device_to_dict(make_pdc_device(45.0, 0.2, 0.1, 23.0))
        d["length_mm"] = "23"
        with pytest.raises(ValueError, match="length_mm"):
            device_from_dict(d)
        d["length_mm"] = True
        with pytest.raises(ValueError, match="length_mm"):
            device_from_dict(d)
        d["length_mm"] = 10 ** 400
        with pytest.raises(ValueError, match="length_mm"):
            device_from_dict(d)

    def test_invalid_values_rejected(self):
        d = device_to_dict(make_pdc_device(45.0, 0.2, 0.1, 23.0))
        d["alpha_deg"] = 200.0
        with pytest.raises(ValueError):
            device_from_dict(d)

    def test_not_json(self, tmp_path):
        p = tmp_path / "dev.json"
        p.write_text("not json {")
        with pytest.raises(ValueError, match="JSON"):
            load_device(p)

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "dev.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="object"):
            load_device(p)

    def test_couplers_are_zero_beta(self):
        # a device holds the file's eight numbers and nothing else, so its
        # couplers are always the zero-beta symmetric kind a file describes
        names = [f.name for f in dataclasses.fields(RpdcDevice)]
        assert len(names) == 8 and not any("beta" in n for n in names)
        dev = make_pdc_device(30.0, 0.21, 0.11, 23.0, 5.5, 0.77, 3.1)
        assert dev.coupler_slow == CouplerParams.symmetric(
            0.0, 0.21, 23.0, dev.bend_phase_slow_rad)
        assert dev.coupler_fast == CouplerParams.symmetric(
            0.0, 0.11, 23.0, dev.bend_phase_fast_rad)
        assert list(device_to_dict(dev).values()) == [
            getattr(dev, n) for n in names]
