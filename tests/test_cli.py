"""Harness integration: artifacts, headers, determinism, exit codes."""

import collections
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rpdcsim
from rpdcsim.cli import _expand_range, _read_seed, main
from rpdcsim.device import extinction_ratios, load_device, make_pdc_device
from rpdcsim.tomography import (
    NoiseConfig,
    cardinal_density,
    load_measurement_csv,
    measure_records,
    mle_reconstruct,
    save_measurement_csv,
)

from test_tomography import bisection_mle

DATA = Path(__file__).resolve().parent.parent / "data"
SHIPPED_DEVICE = str(DATA / "device_45deg.json")
IDEAL_0_DEVICE = str(DATA / "device_0deg.json")
IDEAL_45_DEVICE = str(DATA / "device_45deg_ideal.json")
CALIBRATION = str(DATA / "axis_calibration_synthetic.csv")

META_RE = re.compile(r"^# config_sha256=[0-9a-f]{64} seed=(-?\d+)$")
SRC = str(Path(rpdcsim.__file__).resolve().parent.parent)


def run_python(args, cwd, timeout=60):
    """A fresh interpreter that imports rpdcsim from this checkout."""
    return subprocess.run([sys.executable, *args], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


def read_rows(path: Path):
    lines = path.read_text().splitlines()
    assert META_RE.match(lines[0]), lines[0]
    return lines[1], [line.split(",") for line in lines[2:]]


class TestAxisCal:
    def test_two_point_linear(self, tmp_path):
        cal = tmp_path / "cal.csv"
        cal.write_text("theta_deg,alpha_deg\n0,0\n160,160\n")
        assert main(["axis-cal", "--calibration", str(cal),
                     "--thetas", "90", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "axis_cal.csv")
        assert header == "theta_deg,alpha_deg"
        assert rows == [["90.0", "90.0"]]

    def test_synthetic_nodes_exact(self, tmp_path):
        assert main(["axis-cal", "--calibration", CALIBRATION,
                     "--thetas", "0,45,90,135", "--out",
                     str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "axis_cal.csv")
        for theta_s, alpha_s in rows:
            theta = float(theta_s)
            want = theta - 10.0 * math.sin(math.radians(2.0 * theta))
            assert float(alpha_s) == pytest.approx(want, abs=1e-9)

    def test_off_node_within_interpolation_bound(self, tmp_path):
        assert main(["axis-cal", "--calibration", CALIBRATION,
                     "--thetas", "2.5:172.5:2.5", "--out",
                     str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "axis_cal.csv")
        assert len(rows) == 69
        for theta_s, alpha_s in rows:
            theta = float(theta_s)
            want = theta - 10.0 * math.sin(math.radians(2.0 * theta))
            assert float(alpha_s) == pytest.approx(want, abs=0.005)

    def test_query_outside_range(self, tmp_path, capsys):
        code = main(["axis-cal", "--calibration", CALIBRATION,
                     "--thetas", "179", "--out", str(tmp_path)])
        assert code == 2
        assert "179" in capsys.readouterr().err

    def test_malformed_csv_line_number(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text("theta_deg,alpha_deg\n0,0\nten,10\n160,160\n")
        code = main(["axis-cal", "--calibration", str(cal),
                     "--thetas", "90", "--out", str(tmp_path)])
        assert code == 2
        assert "cal.csv:3" in capsys.readouterr().err

    def test_missing_calibration(self, tmp_path):
        assert main(["axis-cal", "--thetas", "90",
                     "--out", str(tmp_path)]) == 2

    def test_near_equal_thetas_print_one_error_line(self, tmp_path):
        # the slope overflow is an input error; numpy's divide-by-zero
        # warning on the way to it must not reach stderr as well
        cal = tmp_path / "cal.csv"
        cal.write_text("theta_deg,alpha_deg\n0,0\n1e-300,1\n2e-300,2\n")
        proc = run_python(["-m", "rpdcsim", "axis-cal", "--calibration",
                           str(cal), "--thetas", "0", "--out",
                           str(tmp_path)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: calibration slopes overflow: thetas are too close "
            "together"], proc.stderr


class TestCouplerSweep:
    def test_zero_length_only(self, tmp_path):
        assert main(["coupler-sweep", "--device", SHIPPED_DEVICE,
                     "--lengths", "0", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "coupler_sweep.csv")
        assert header == "length_mm,p_cross_slow,p_cross_fast"
        assert len(rows) == 1
        dev = load_device(SHIPPED_DEVICE)
        want_s = math.sin(dev.coupler_slow.bend_phase_rad) ** 2
        want_f = math.sin(dev.coupler_fast.bend_phase_rad) ** 2
        assert float(rows[0][1]) == pytest.approx(want_s, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(want_f, abs=1e-12)

    def test_length_column_and_separation_peak(self, tmp_path):
        # on-design parameters: bends worth 5.5 mm shift the peak to 23
        assert main(["coupler-sweep", "--device", IDEAL_45_DEVICE,
                     "--lengths", "20:26:0.1", "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "coupler_sweep.csv")
        lengths = [float(r[0]) for r in rows]
        assert lengths == sorted(lengths)
        sep = [float(r[1]) - float(r[2]) for r in rows]
        assert lengths[sep.index(max(sep))] == pytest.approx(23.0, abs=0.051)

    def test_empty_range_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": SHIPPED_DEVICE,
                                   "lengths_mm": []}))
        assert main(["coupler-sweep", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_unordered_range(self, tmp_path):
        assert main(["coupler-sweep", "--device", SHIPPED_DEVICE,
                     "--lengths", "5,3,9", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("source", ["flag", "config", "config-under-flag",
                                        "range-flag"])
    def test_negative_length_names_lengths_mm(self, tmp_path, capsys,
                                              source):
        # the length, not the device file, is at fault, so the message
        # names the setting and value and does not start with the file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lengths_mm": [-1, 2]}))
        extra = {"flag": ["--lengths=-1,2"],
                 "config": ["--config", str(cfg)],
                 "config-under-flag": ["--config", str(cfg), "--lengths",
                                       "1,2"],
                 "range-flag": ["--lengths=-1:2:1"]}[source]
        assert main(["coupler-sweep", "--device", SHIPPED_DEVICE, "--out",
                     str(tmp_path)] + extra) == 2
        err = capsys.readouterr().err
        assert err == "error: lengths_mm: lengths must be >= 0, got -1.0\n"
        assert not err.startswith(f"error: {SHIPPED_DEVICE}")
        assert not (tmp_path / "coupler_sweep.csv").exists()


class TestExtinction:
    def test_shipped_device_values(self, tmp_path):
        assert main(["extinction", "--device", SHIPPED_DEVICE,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "extinction.json").read_text())
        assert payload["er_t_db"] == 16.0
        assert payload["er_r_db"] == 20.0
        assert META_RE.match("# config_sha256="
                             f"{payload['meta']['config_sha256']} "
                             f"seed={payload['meta']['seed']}")

    def test_ideal_device_clamped(self, tmp_path):
        assert main(["extinction", "--device", IDEAL_45_DEVICE,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "extinction.json").read_text())
        assert payload["er_t_db"] >= 100.0
        assert payload["er_r_db"] >= 100.0

    def test_short_device_matches_direct_computation(self, tmp_path):
        dev = load_device(SHIPPED_DEVICE).with_length(23.0 * 0.95)
        fields = json.loads(Path(SHIPPED_DEVICE).read_text())
        fields["length_mm"] = 23.0 * 0.95
        short = tmp_path / "short.json"
        short.write_text(json.dumps(fields))
        assert main(["extinction", "--device", str(short),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "extinction.json").read_text())
        er_t, er_r = extinction_ratios(dev)
        assert payload["er_t_db"] == round(er_t, 2)
        assert payload["er_r_db"] == round(er_r, 2)
        assert payload["er_t_db"] < 100.0

    def test_missing_device_file(self, tmp_path):
        assert main(["extinction", "--device",
                     str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


class TestTomography:
    def test_ideal_devices_unit_fidelity(self, tmp_path):
        fids = {}
        for name, device in (("d0", IDEAL_0_DEVICE),
                             ("d45", IDEAL_45_DEVICE)):
            out = tmp_path / name
            assert main(["tomography", "--device", device,
                         "--out", str(out)]) == 0
            header, rows = read_rows(out / "fidelities.csv")
            assert header == "state,fidelity,converged,iterations"
            assert [r[0] for r in rows] == ["H", "V", "D", "A", "R", "L"]
            assert all(r[2] == "True" for r in rows)
            for r in rows:
                assert float(r[1]) == pytest.approx(1.0, abs=1e-9)
            fids[name] = [float(r[1]) for r in rows]
        for a, b in zip(fids["d0"], fids["d45"]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_per_state_json_artifacts(self, tmp_path):
        assert main(["tomography", "--device", IDEAL_0_DEVICE,
                     "--out", str(tmp_path)]) == 0
        for label in ("H", "V", "D", "A", "R", "L"):
            payload = json.loads(
                (tmp_path / f"tomography_{label}.json").read_text())
            assert len(payload["rho"]) == 4
            assert all(len(pair) == 2 for pair in payload["rho"])
            assert payload["converged"] is True
            assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
            assert "config_sha256" in payload["meta"]

    def test_shipped_device_average_bracket(self, tmp_path):
        assert main(["tomography", "--device", SHIPPED_DEVICE,
                     "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "fidelities.csv")
        avg = sum(float(r[1]) for r in rows) / len(rows)
        assert 0.94 <= avg < 1.0

    def test_records_mode_matches_library(self, tmp_path):
        recs = measure_records(cardinal_density("D"),
                               load_device(SHIPPED_DEVICE))
        rec_csv = tmp_path / "records.csv"
        save_measurement_csv(recs, rec_csv)
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(
            (tmp_path / "tomography_records.json").read_text())
        assert payload["fidelity"] is None
        assert payload["converged"] is True
        want = mle_reconstruct(recs)
        got = [complex(re_, im_) for re_, im_ in payload["rho"]]
        flat = want.rho.matrix.ravel()
        assert max(abs(g - w) for g, w in zip(got, flat)) < 1e-12

    def test_records_count_beyond_float_range_exits_2(self, tmp_path,
                                                      capsys):
        # a 400-digit count parses as an int but has no float weight
        rec_csv = tmp_path / "records.csv"
        rec_csv.write_text("basis,p0,p1,n0,n1\n"
                           f"HV,0.5,0.5,{10 ** 400},1\n"
                           "DA,0.5,0.5,5,5\nRL,0.5,0.5,5,5\n")
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == 2
        assert "non-negative integers" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, code", [
        # inside the Bloch ball RL's own ratio stands. On the sphere the
        # scale for HV's and DA's huge weights leaves RL's of 1e-310
        # subnormal, and the state is solved; it rounds 1e-320 to 0
        ("HV,1e305,1e305\nDA,1,1\nRL,1e-310,0\n", 0),
        ("HV,1e305,1\nDA,1e305,1\nRL,1e-310,3e-310\n", 0),
        ("HV,1e305,1\nDA,1e305,1\nRL,1e-320,3e-320\n", 2),
    ])
    def test_records_weights_far_apart(self, tmp_path, capsys, rows, code):
        rec_csv = tmp_path / "records.csv"
        rec_csv.write_text("basis,p0,p1\n" + rows)
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == code
        if code == 0:
            payload = json.loads(
                (tmp_path / "tomography_records.json").read_text())
            assert payload["converged"] is True
            if "1e305,1e305" in rows:
                assert payload["stokes"] == [1.0, 0.0, 1.0, 0.0]
            else:
                want = bisection_mle(((1e305, 1.0), (1e-310, 3e-310),
                                      (1e305, 1.0)))
                assert np.abs(np.subtract(payload["stokes"][1:],
                                          want)).max() < 1e-12
        else:
            err = capsys.readouterr().err
            assert err.startswith("error: a basis") and err.count("\n") == 1
            assert "lost in the scale" in err

    def test_records_mle_that_does_not_converge_never_exits_1(self, tmp_path,
                                                             capsys):
        # these rows once ran the multiplier search out of steps (exit 1,
        # later exit 2): a scale worked out from the weights solves them
        rec_csv = tmp_path / "records.csv"
        rec_csv.write_text("basis,p0,p1\nHV,1e308,1e305\n"
                           "DA,1e-300,1e-320\nRL,1e308,1e308\n")
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == 0
        artifact = tmp_path / "tomography_records.json"
        assert json.loads(artifact.read_text())["converged"] is True

    def test_records_frequency_below_float_range(self, tmp_path):
        # HV's frequency 1e-30/1e300 underflows to 0; its log once raised
        # "math domain error" (exit 2). The MLE is the interior state
        rec_csv = tmp_path / "records.csv"
        rec_csv.write_text("basis,p0,p1\nHV,1e300,1e-30\nDA,1,1\nRL,1,1\n")
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(
            (tmp_path / "tomography_records.json").read_text())
        assert payload["stokes"] == [1.0, 0.0, 0.0, 1.0]
        assert payload["converged"] is True
        assert math.isfinite(mle_reconstruct(
            load_measurement_csv(rec_csv)).log_likelihood)

    def test_noise_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": SHIPPED_DEVICE,
                                   "noise": {"counts_per_basis": 2000}}))
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        assert main(["tomography", "--config", str(cfg), "--seed", "1",
                     "--out", str(a)]) == 0
        assert main(["tomography", "--config", str(cfg), "--seed", "1",
                     "--out", str(b)]) == 0
        assert main(["tomography", "--config", str(cfg), "--seed", "2",
                     "--out", str(c)]) == 0
        fa = (a / "fidelities.csv").read_bytes()
        assert fa == (b / "fidelities.csv").read_bytes()
        assert fa != (c / "fidelities.csv").read_bytes()

    def test_states_and_seeds_share_no_count_stream(self, tmp_path,
                                                    monkeypatch):
        # state V at one seed and state H at the next once drew the same
        # counts: each (seed, state) pair must seed its own generator
        seeds = []
        run = rpdcsim.cli.run_tomography_experiment

        def recording_run(true_state, device, noise):
            seeds.append(noise.seed)
            return run(true_state, device, noise)

        monkeypatch.setattr(rpdcsim.cli, "run_tomography_experiment",
                            recording_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": SHIPPED_DEVICE,
                                   "noise": {"counts_per_basis": 2000}}))
        for seed in range(4):
            assert main(["tomography", "--config", str(cfg), "--seed",
                         str(seed), "--out", str(tmp_path / "out")]) == 0
        assert len(seeds) == len(set(seeds)) == 24
        assert seeds[:6] == [0, 1, 2, 3, 4, 5]


class TestRanges:
    # non-finite, vanishing or overflowing ranges, and ends so large that
    # the step repeats points: each must exit 2 at once
    BAD_SPECS = ("0:10:nan", "0:inf:1", "nan:1:0.1", "0:1:1e-12",
                 "0:1e308:1e-300", "1e20:1e20:1")

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_range_exits_2(self, tmp_path, spec):
        start, stop, step = (float(v) for v in spec.split(":"))
        rng = {"start": start, "stop": stop, "step": step}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas_deg": rng, "lengths_mm": rng}))
        calls = (["axis-cal", "--calibration", CALIBRATION, "--thetas", spec],
                 ["coupler-sweep", "--device", SHIPPED_DEVICE,
                  "--lengths", spec],
                 ["axis-cal", "--calibration", CALIBRATION,
                  "--config", str(cfg)],
                 ["coupler-sweep", "--device", SHIPPED_DEVICE,
                  "--config", str(cfg)])
        for argv in calls:
            proc = run_python(["-m", "rpdcsim", *argv, "--out",
                               str(tmp_path)], tmp_path, timeout=20)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert "error:" in proc.stderr

    def test_values_match_stepping_loop(self):
        def stepped(start, stop, step):
            out = []
            while start + len(out) * step <= stop + 1e-12:
                out.append(start + len(out) * step)
            return tuple(out)

        rng = np.random.default_rng(71)
        specs = [(0.0, 28.5, 0.25), (2.5, 172.5, 2.5), (0.0, 1.0, 0.1),
                 (0.0, 0.3, 0.1), (20.0, 26.0, 0.1), (5.0, 5.0, 1.0),
                 (0.0, 0.1, 1e-6)]
        for _ in range(300):
            start = float(rng.uniform(-50, 50))
            step = float(10 ** rng.uniform(-3, 1))
            # stops on, near and between grid points
            k = int(rng.integers(0, 500))
            stop = start + k * step + float(rng.choice([0.0, 1e-13, -1e-13,
                                                        0.5 * step]))
            specs.append((start, max(stop, start), step))
        for spec in specs:
            got = _expand_range(dict(zip(("start", "stop", "step"), spec)),
                                "x")
            assert got == stepped(*spec), spec

    def test_point_cap(self):
        assert len(_expand_range({"start": 0, "stop": 999999, "step": 1},
                                 "x")) == 10 ** 6
        with pytest.raises(ValueError, match="more than"):
            _expand_range({"start": 0, "stop": 1000000, "step": 1}, "x")

    @pytest.mark.parametrize("spec", [
        (0.0, 1.0, 1e-12), (0.0, 1e308, 1e-300), (-1e308, 1e308, 1.0),
        (0.0, 2e6 + 1.0, 1.0), (1.0, 1.0, 1e-22), (0.0, 1.5e6, 1.0)])
    def test_far_over_the_cap_rejects_at_once(self, spec):
        # a few ulp past the cap the span alone decides: no point is stepped
        # to, so the rejection takes microseconds where stepping to the cap
        # takes about half a second
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than"):
            _expand_range(dict(zip(("start", "stop", "step"), spec)), "x")
        assert time.perf_counter() - start < 0.05

    def test_huge_ends_few_points(self):
        # stop - start overflows, but the span is taken in halves, so the
        # stepping decides: start + 2 * step overflows past the limit
        assert _expand_range({"start": -1.7e308, "stop": 1.7e308,
                              "step": 1.7e308}, "x") == (-1.7e308, 0.0)

    def test_non_numeric_range_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas_deg": {"start": [0], "stop": 1,
                                                  "step": 0.5}}))
        assert main(["axis-cal", "--calibration", CALIBRATION,
                     "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestFindAxis:
    def test_recovery(self, tmp_path):
        assert main(["find-axis", "--alpha", "118", "--retardance", "1.9",
                     "--transmittance", "0.9", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "find_axis.json").read_text())
        assert payload["alpha_deg"] == 118.0
        assert payload["recovered_alpha_mod_90_deg"] == pytest.approx(
            28.0, abs=0.01)

    def test_unobservable_axis(self, tmp_path, capsys):
        code = main(["find-axis", "--alpha", "20", "--retardance",
                     repr(2 * math.pi), "--out", str(tmp_path)])
        assert code == 2
        assert "waves" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--alpha", "alpha_deg"), ("--retardance", "retardance_rad"),
        ("--transmittance", "amplitude_transmittance")])
    def test_non_finite_argument_named(self, tmp_path, capsys, flag, field):
        for bad in ("nan", "inf"):
            args = {"--alpha": "30", "--retardance": "1.9",
                    "--transmittance": "0.9", flag: bad}
            code = main(["find-axis", *itertools.chain(*args.items()),
                         "--out", str(tmp_path)])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: {field} must be finite, got {bad}\n")
        assert not (tmp_path / "find_axis.json").exists()


class TestHarnessContracts:
    def test_all_artifacts_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "device": SHIPPED_DEVICE,
            "calibration": CALIBRATION,
            "lengths_mm": {"start": 0, "stop": 25, "step": 0.5},
            "thetas_deg": [0, 30, 60, 90, 120, 150],
            "noise": {"counts_per_basis": 5000},
            "seed": 11,
        }))
        outs = (tmp_path / "r1", tmp_path / "r2")
        for out in outs:
            for cmd in (["axis-cal"], ["coupler-sweep"], ["extinction"],
                        ["tomography"],
                        ["find-axis", "--alpha", "30", "--retardance", "2"]):
                assert main(cmd + ["--config", str(cfg),
                                   "--out", str(out)]) == 0
        names = [p.name for p in sorted(outs[0].iterdir())]
        assert "fidelities.csv" in names and "extinction.json" in names
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": SHIPPED_DEVICE, "seed": 1}))
        assert main(["extinction", "--config", str(cfg), "--seed", "42",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "extinction.json").read_text())
        assert payload["meta"]["seed"] == 42

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"device": SHIPPED_DEVICE, "devices": []}))
        assert main(["extinction", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "devices" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["extinction", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        import rpdcsim.cli as cli_module
        monkeypatch.setattr(cli_module, "extinction_ratios",
                            lambda dev: 1 / 0)
        assert main(["extinction", "--device", SHIPPED_DEVICE,
                     "--out", str(tmp_path)]) == 1

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rpdcsim", "extinction",
             "--device", SHIPPED_DEVICE, "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "extinction.json").exists()
        assert "wrote" in proc.stdout

    def test_hash_covers_records_file(self, tmp_path):
        hashes = []
        for name, da in (("a", (90, 10)), ("b", (50, 50))):
            rec_csv = tmp_path / f"{name}.csv"
            rec_csv.write_text("basis,p0,p1,n0,n1\n" + "".join(
                f"{b},{n0 / (n0 + n1)!r},{n1 / (n0 + n1)!r},{n0},{n1}\n"
                for b, (n0, n1) in (("HV", (60, 40)), ("DA", da),
                                    ("RL", (70, 30)))))
            for run in ("r1", "r2"):
                assert main(["tomography", "--records", str(rec_csv),
                             "--out", str(tmp_path / name / run)]) == 0
            first, rerun = ((tmp_path / name / run / "tomography_records"
                             ".json").read_bytes() for run in ("r1", "r2"))
            assert first == rerun
            hashes.append(json.loads(first)["meta"]["config_sha256"])
        assert hashes[0] != hashes[1]

    def test_hash_covers_device_bytes_and_find_axis_args(self, tmp_path):
        dev_json = tmp_path / "dev.json"

        def digest(argv, name):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            assert main(argv + ["--out", str(out)]) == 0
            return json.loads((out / name).read_text())["meta"][
                "config_sha256"]

        hashes = []
        for path in (SHIPPED_DEVICE, IDEAL_45_DEVICE):
            dev_json.write_bytes(Path(path).read_bytes())
            hashes.append(digest(["extinction", "--device", str(dev_json)],
                                 "extinction.json"))
        for t in ("1.0", "0.5"):
            hashes.append(digest(["find-axis", "--alpha", "30",
                                  "--retardance", "2", "--transmittance", t],
                                 "find_axis.json"))
        assert len(set(hashes)) == 4

    @pytest.mark.parametrize("argv, name, want", [
        (["extinction", "--device", "data/device_45deg.json"],
         "extinction.json",
         "7bc33e57e7cb60789e571038995ae77f0ff87f6798fc6da6395f230ecec28e12"),
        (["find-axis", "--alpha", "118", "--retardance", "2.3"],
         "find_axis.json",
         "517a92de7258c1330645cf23563a91e0d7e4cd880e472c92218e9ec8571ac3da"),
    ])
    def test_hash_is_pinned(self, tmp_path, monkeypatch, argv, name, want):
        # the hash names a run across versions: the same settings and input
        # bytes must keep the same config_sha256
        monkeypatch.chdir(DATA.parent)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / name).read_text())
        assert payload["meta"]["config_sha256"] == want

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        proc = run_python(["-c", "import sys, rpdcsim; "
                                 "print('scipy' in sys.modules); "
                                 "cal = rpdcsim.load_axis_calibration("
                                 f"{CALIBRATION!r}); "
                                 "rpdcsim.axis_from_offset(cal, 47.5); "
                                 "print('scipy' in sys.modules)"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_axis_cal_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every scipy import fail
        argv = ["axis-cal", "--calibration", CALIBRATION,
                "--thetas", "0:175:2.5", "--out", "blocked"]
        proc = run_python(["-c", "import sys; sys.modules['scipy'] = None; "
                                 "from rpdcsim.cli import main; "
                                 f"sys.exit(main({argv!r}))"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert main(argv[:-1] + [str(tmp_path / "here")]) == 0
        blocked, here = ((tmp_path / d / "axis_cal.csv").read_bytes()
                         for d in ("blocked", "here"))
        assert blocked == here
        assert len(read_rows(tmp_path / "blocked" / "axis_cal.csv")[1]) == 71

    def test_no_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "rpdcsim"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


class TestArtifactWriter:
    """`main` writes a run's artifacts only after the whole run succeeds."""

    # at 3 counts per basis and seed 1 the last state, L, draws no DA
    # counts, after the other five states have been reconstructed
    FAILING = ["tomography", "--device", SHIPPED_DEVICE, "--seed", "1"]

    def rate_config(self, tmp_path, counts):
        cfg = tmp_path / f"rate{counts}.json"
        cfg.write_text(json.dumps({"noise": {"counts_per_basis": counts}}))
        return str(cfg)

    def test_failed_run_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.FAILING + ["--config", self.rate_config(tmp_path, 3),
                                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "zero total counts" in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_failed_run_leaves_an_earlier_run_as_it_was(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.FAILING + ["--config",
                                    self.rate_config(tmp_path, 2000),
                                    "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 7
        assert main(self.FAILING + ["--config", self.rate_config(tmp_path, 3),
                                    "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("argv, text, want", [
        (["coupler-sweep", "--device", SHIPPED_DEVICE, "--lengths", "1:2"],
         None, "lengths_mm: range flag must be start:stop:step, got '1:2'"),
        (["coupler-sweep", "--device", SHIPPED_DEVICE, "--lengths", "a:b:c"],
         None, "lengths_mm: range parts must be numbers, got 'a:b:c'"),
        (["coupler-sweep", "--device", SHIPPED_DEVICE, "--lengths", "1,x"],
         None, "lengths_mm: values must be comma-separated numbers, "
               "got '1,x'"),
        (["coupler-sweep", "--device", SHIPPED_DEVICE, "--config"],
         '{"lengths_mm": {"start": 2, "stop": 1, "step": 0.5}}',
         "lengths_mm: stop 1.0 < start 2.0"),
        (["axis-cal", "--thetas", "0,40", "--calibration"],
         "theta_deg,alpha_deg\n0,10\n90,20\n45,30\n",
         "{path}: calibration thetas must be strictly increasing"),
        (["tomography", "--records"],
         "basis,p0,p1\nHV,nan,1\nDA,1,1\nRL,1,1\n",
         "{path}:2: p0 must be finite, got nan"),
    ], ids=["range-flag-parts", "range-flag-numbers", "list-flag-numbers",
            "config-range-order", "calibration-order", "record-power-nan"])
    def test_input_error_makes_no_directory(self, tmp_path, capsys, argv,
                                            text, want):
        # the last argument names an input file holding `text`, if any
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
            argv = argv + [str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {want.format(path=path)}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        (["axis-cal", "--calibration", CALIBRATION, "--thetas", "0,90"],
         ["axis_cal.csv"]),
        (["coupler-sweep", "--device", IDEAL_45_DEVICE, "--lengths", "0,1"],
         ["coupler_sweep.csv"]),
        (["extinction", "--device", SHIPPED_DEVICE], ["extinction.json"]),
        (["tomography", "--device", SHIPPED_DEVICE],
         [f"tomography_{s}.json" for s in "HVDARL"] + ["fidelities.csv"]),
        (["tomography", "--records",
          str(DATA.parent / "tests" / "inputs" / "records_counts.csv")],
         ["tomography_records.json"]),
        (["find-axis", "--alpha", "30", "--retardance", "2"],
         ["find_axis.json"]),
    ])
    def test_one_wrote_line_per_artifact(self, tmp_path, capsys, argv,
                                         names):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert (capsys.readouterr().out.splitlines()
                == [f"wrote {out / name}" for name in names])
        assert sorted(p.name for p in out.iterdir()) == sorted(names)


class TestConfigFieldTypes:
    """seed and noise.counts_per_basis are typed: a bad value exits 2."""

    def run_config(self, tmp_path, capsys, text, command="tomography"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main([command, "--device", SHIPPED_DEVICE, "--config",
                     str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"seed": 1e400}', '{"seed": -1e400}', '{"seed": NaN}',
        '{"seed": null}', '{"seed": "5"}', '{"seed": true}',
        '{"seed": 2.5}', '{"seed": -1}', '{"seed": [5]}', '{"seed": {}}',
        '{"noise": {"counts_per_basis": [5]}}',
        '{"noise": {"counts_per_basis": {}}}',
        '{"noise": {"counts_per_basis": "5"}}',
        '{"noise": {"counts_per_basis": true}}',
        '{"noise": {"counts_per_basis": 0}}',
        '{"noise": {"counts_per_basis": -3}}',
        '{"noise": {"counts_per_basis": NaN}}',
        '{"noise": {"counts_per_basis": Infinity}}',
        '{"noise": {"counts_per_basis": 1e400}}',
        '{"noise": {"counts_per_basis": ' + "9" * 400 + '}}',
        # finite, but past numpy's Poisson limit
        '{"noise": {"counts_per_basis": 1e300}}',
        '{"noise": {"counts_per_basis": 1.0000000000000002e18}}',
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, text):
        code, err = self.run_config(tmp_path, capsys, text)
        assert code == 2
        assert err.startswith("error:") and "internal" not in err
        assert ("seed" in err) != ("counts_per_basis" in err)

    @pytest.mark.parametrize("text", [
        '{"seed": 5}', '{"seed": 5.0}', '{"seed": 0}',
        '{"seed": ' + str(2 ** 70) + '}',
        '{"noise": {"counts_per_basis": 500}}',
        '{"noise": {"counts_per_basis": 2.5e3}}',
        '{"noise": {"counts_per_basis": 1e18}}',
        '{"noise": {"counts_per_basis": null}}',
    ])
    def test_good_value_exits_0(self, tmp_path, capsys, text):
        assert self.run_config(tmp_path, capsys, text)[0] == 0

    @pytest.mark.parametrize("text, flags, field", [
        ('{"seed": "5"}', ["--seed", "3"], "seed"),
        ('{"device": 7}', ["--device", SHIPPED_DEVICE], "device"),
        ('{"out_dir": null}', ["--out", "out"], "out_dir"),
        ('{"lengths_mm": [2, 1]}', ["--lengths", "1,2"], "lengths_mm"),
    ])
    def test_bad_value_under_flag_override_exits_2(self, tmp_path, capsys,
                                                   monkeypatch, text, flags,
                                                   field):
        # a config value is checked even when a flag overrides it
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["coupler-sweep", "--device", SHIPPED_DEVICE,
                     "--lengths", "1", "--config", str(cfg), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err, err

    @pytest.mark.parametrize("text, want", [
        ("5", 5), ("5.0", 5), ("2.5", None), ("-1", None), ("true", None),
        ('"5"', None), ("null", None), ("1e400", None),
        (str(2 ** 70), 2 ** 70),
    ])
    def test_seed_reader_is_noise_config(self, text, want):
        # the reader turns an integral JSON float into an int and leaves
        # every other decision, and its message, to NoiseConfig
        value = json.loads(text)
        if want is None:
            with pytest.raises(ValueError) as expected:
                NoiseConfig(seed=value)
            with pytest.raises(ValueError) as got:
                _read_seed(value, "seed")
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith("seed must be an integer >= 0")
        else:
            assert NoiseConfig(seed=want).seed == want
            got = _read_seed(value, "seed")
            assert got == want and type(got) is int

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["extinction", "--device", SHIPPED_DEVICE, "--seed",
                     "-1", "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err


class TestConfigFuzz:
    """Single-field changes to a valid config exit 0 or 2, never 1."""

    COMMANDS = (["axis-cal"], ["coupler-sweep"], ["extinction"],
                ["tomography"],
                ["find-axis", "--alpha", "30", "--retardance", "2"])
    BASE = {"device": SHIPPED_DEVICE, "calibration": CALIBRATION,
            "lengths_mm": {"start": 0, "stop": 5, "step": 0.5},
            "thetas_deg": [0, 30, 60], "noise": {"counts_per_basis": 500},
            "out_dir": "out", "seed": 3}
    FIELDS = tuple(BASE) + ("noise.counts_per_basis",)
    POOL = (None, True, False, 0, 1, -1, 7, 2.5, -2.5, 1e-300, 1e300,
            math.inf, -math.inf, math.nan, 2 ** 70, -(2 ** 70), 10 ** 400,
            "", "5", "abc", "nope.json", SHIPPED_DEVICE, IDEAL_0_DEVICE,
            CALIBRATION, [], [5], [1, 2, 3], [3, 2], ["a"], [None], [[1]],
            {}, {"start": 0, "stop": 2, "step": 0.5}, {"start": 0, "stop": 2},
            {"start": "a", "stop": 2, "step": 1},
            {"start": 0, "stop": 2, "step": 0}, {"counts_per_basis": 5},
            {"counts_per_basis": [5]}, {"x": 1}, [1, 10 ** 400],
            {"start": 0, "stop": 10 ** 400, "step": 1}, ["5"], [True, 2])
    DELETE = object()

    def mutations(self, rng):
        """Every command x field x pool value, plus seeded random numbers."""
        randoms = [float(v) for v in rng.normal(size=8) * 10.0 ** rng.integers(
            -3, 6, size=8)] + [int(v) for v in rng.integers(-50, 10 ** 6, 4)]
        for command in self.COMMANDS:
            for field in self.FIELDS:
                for value in self.POOL + tuple(randoms) + (self.DELETE,):
                    yield command, field, value

    def test_single_field_mutations(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cases = list(self.mutations(np.random.default_rng(72)))
        assert len(cases) >= 1000
        cfg = tmp_path / "cfg.json"
        codes = {0: 0, 2: 0}
        start = time.perf_counter()
        for command, field, value in cases:
            raw = json.loads(json.dumps(self.BASE))
            holder, key = ((raw["noise"], "counts_per_basis")
                           if field == "noise.counts_per_basis"
                           else (raw, field))
            if value is self.DELETE:
                del holder[key]
            else:
                holder[key] = value
            cfg.write_text(json.dumps(raw))
            code = main(command + ["--config", str(cfg)])
            err = capsys.readouterr().err
            assert code in codes and "internal error" not in err, (
                command[0], field, value, err)
            codes[code] += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert codes[0] > 100 and codes[2] > 100

    def test_device_field_mutations(self, tmp_path, capsys):
        base = json.loads(Path(SHIPPED_DEVICE).read_text())
        dev = tmp_path / "dev.json"
        codes = {0: 0, 2: 0}
        for field in base:
            for value in self.POOL + (self.DELETE,):
                fields = dict(base)
                if value is self.DELETE:
                    del fields[field]
                else:
                    fields[field] = value
                dev.write_text(json.dumps(fields))
                code = main(["extinction", "--device", str(dev),
                             "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert code in codes and "internal error" not in err, (
                    field, value, err)
                codes[code] += 1
        assert codes[0] > 8 and codes[2] > 100


class TestDeviceFileFuzz:
    """Pairs of device fields set to edge values exit 0 or 2 naming the file.

    The pool holds a zero, a negative, a subnormal, a value whose square
    underflows, values near the float limit and an angle out of range. The
    sweep's last length overflows the phase of a large coupling constant.
    """

    POOL = (0, -1, 1e-320, 1e-161, 1e300, 1.7e308, 180)
    COMMANDS = (["extinction"], ["tomography"],
                ["coupler-sweep", "--lengths", "0,23,1e300"])

    def cases(self, rng):
        """Each field pair takes each pool value in both places, at a seeded
        offset between the two, so 196 devices; each runs every command."""
        fields = json.loads(Path(SHIPPED_DEVICE).read_text())
        n = len(self.POOL)
        for f1, f2 in itertools.combinations(fields, 2):
            shift = int(rng.integers(n))
            for i, value in enumerate(self.POOL):
                device = dict(fields, **{f1: value,
                                         f2: self.POOL[(i + shift) % n]})
                for command in self.COMMANDS:
                    yield command, device

    def test_field_pairs_exit_0_or_2_naming_the_file(self, tmp_path, capsys):
        dev = tmp_path / "dev.json"
        codes = collections.Counter()
        for command, device in self.cases(np.random.default_rng(19)):
            dev.write_text(json.dumps(device))
            code = main(command + ["--device", str(dev), "--out",
                                   str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code in (0, 2), (command[0], device, err)
            assert code == 0 or err.startswith(f"error: {dev}: "), (
                command[0], device, err)
            codes[command[0], code] += 1
        assert sum(codes.values()) == 28 * 7 * 3
        assert min(codes.values()) > 50, codes


class TestMalformedFiles:
    """A malformed input file exits 2 with an error naming it or its field."""

    DEVICE = dict(json.loads(Path(SHIPPED_DEVICE).read_text()),
                  length_mm=10 ** 400)
    # (flag the file is passed as, its bytes, what the error must name)
    CASES = [
        ("--device", b"[" * 200_000, "bad.json"),
        ("--config", b"[" * 200_000, "bad.json"),
        ("--device", json.dumps(DEVICE).encode(), "length_mm"),
        ("--config", b'{"lengths_mm": [1, 1' + b"0" * 400 + b"]}",
         "lengths_mm"),
        ("--config", b'{"lengths_mm": {"start": 0, "stop": 1, "step": 1'
         + b"0" * 400 + b"}}", "step"),
        ("--config", b'{"seed": ' + b"1" * 4301 + b"}", "bad.json"),
        ("--device", b'{"alpha_deg": "\xff"}', "bad.json"),
    ]

    @pytest.mark.parametrize("flag, data, named", CASES, ids=[
        "nested-device", "nested-config", "huge-device-field",
        "huge-list-value", "huge-range-step", "int-digit-limit",
        "device-not-utf8"])
    def test_exits_2_naming_the_input(self, tmp_path, capsys, flag, data,
                                      named):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        argv = ["coupler-sweep", "--device", SHIPPED_DEVICE, "--out",
                str(tmp_path / "out"), flag, str(bad)]
        if flag == "--device":
            argv += ["--lengths", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err

    @pytest.mark.parametrize("k_slow, k_fast", [(0.16, -0.1), (0.1, 0.16)])
    def test_bad_coupling_constants_exit_2(self, tmp_path, capsys, k_slow,
                                           k_fast):
        # a negative k_fast once failed only on first use, with an error
        # that named neither the file nor the field
        fields = dict(json.loads(Path(SHIPPED_DEVICE).read_text()),
                      k_slow_rad_per_mm=k_slow, k_fast_rad_per_mm=k_fast)
        bad = tmp_path / "bad_k.json"
        bad.write_text(json.dumps(fields))
        for command in (["extinction"], ["coupler-sweep", "--lengths", "1"],
                        ["tomography"]):
            assert main(command + ["--device", str(bad), "--out",
                                   str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "bad_k.json" in err, err
            assert f"k_slow {k_slow}" in err and f"k_fast {k_fast}" in err

    @pytest.mark.parametrize("changes, named", [
        ({"k_slow_rad_per_mm": 1e300, "k_fast_rad_per_mm": 1e300,
          "length_mm": 1e10}, "k_slow_rad_per_mm 1e+300"),
        ({"k_slow_rad_per_mm": 1.7e308, "bend_phase_slow_rad": 1.7e308},
         "bend_phase_slow_rad 1.7e+308"),
        ({"transmittance": 1e-320}, "amplitude_transmittance squared"),
        ({"transmittance": 1e-161}, "amplitude_transmittance squared"),
    ], ids=["phase-overflow", "bend-phase-overflow", "power-underflow",
            "power-subnormal"])
    def test_values_past_the_float_range_exit_2(self, tmp_path, capsys,
                                                changes, named):
        # each field is finite and in range, but the phase k L + phi or the
        # power t^2 is not; these once printed "math domain error" or a
        # record error naming neither the file nor a field
        fields = dict(json.loads(Path(SHIPPED_DEVICE).read_text()), **changes)
        bad = tmp_path / "bad_range.json"
        bad.write_text(json.dumps(fields))
        for command in (["extinction"], ["coupler-sweep", "--lengths", "1"],
                        ["tomography"]):
            assert main(command + ["--device", str(bad), "--out",
                                   str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and named in err, err

    def test_sweep_length_past_the_float_range_exits_2(self, tmp_path,
                                                       capsys):
        fields = dict(json.loads(Path(SHIPPED_DEVICE).read_text()),
                      k_slow_rad_per_mm=10.0)
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(fields))
        assert main(["coupler-sweep", "--device", str(dev), "--lengths",
                     "1,1e308", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {dev}: phase k_slow_rad_per_mm * length_mm + "
            "bend_phase_slow_rad overflows: k_slow_rad_per_mm 10.0, length_mm "
            f"1e+308, bend_phase_slow_rad {fields['bend_phase_slow_rad']}\n")
        assert not (tmp_path / "coupler_sweep.csv").exists()

    def test_records_not_utf8(self, tmp_path, capsys):
        rec_csv = tmp_path / "records.csv"
        rec_csv.write_bytes(b"basis,p0,p1\nHV,\xff,0\n")
        assert main(["tomography", "--records", str(rec_csv),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "records.csv" in err, err
