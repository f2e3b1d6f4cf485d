"""Tests of the benchmark's own checkers and parsers.

    python3 -m pytest bench/test_checks.py

Each checker accepts a case worked out by hand and rejects a perturbed
copy of it, so that a checker that could never fail cannot pass silently.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

S = 1.0 / math.sqrt(2.0)


def bloch_rho(x):
    x1, x2, x3 = x
    return 0.5 * np.array([[1 + x3, x1 - 1j * x2], [x1 + 1j * x2, 1 - x3]])


def test_rho_reason():
    assert checks.rho_reason(np.diag([0.75, 0.25])) is None
    assert "Hermitian" in checks.rho_reason(np.array([[0.5, 0.1], [0.0, 0.5]]))
    assert "trace" in checks.rho_reason(np.diag([0.76, 0.25]))
    assert "eigenvalue" in checks.rho_reason(np.diag([1.1, -0.1]))


def test_interior_mle():
    # per-basis estimates (0.8, 0, 0) lie inside the ball
    pairs = [(90.0, 10.0), (50.0, 50.0), (50.0, 50.0)]
    assert not checks.is_boundary(pairs)
    assert checks.mle_reason(pairs, bloch_rho((0.8, 0.0, 0.0))) is None
    assert "interior" in checks.mle_reason(pairs, bloch_rho((-0.8, 0.0, 0.0)))
    assert checks.mle_reason(pairs, bloch_rho((0.8, 1e-9, 0.0))) is not None
    assert np.array_equal(checks.bisection_mle(pairs), [0.8, 0.0, 0.0])


def test_boundary_mle_by_hand():
    # estimates (0.8, 0.8, 0): outside the ball; by symmetry the MLE is
    # (1/sqrt2, 1/sqrt2, 0) with 2 lam = (90/(1+s) - 10/(1-s))/s > 0
    pairs = [(90.0, 10.0), (90.0, 10.0), (50.0, 50.0)]
    assert checks.is_boundary(pairs)
    two_lam = (90.0 / (1 + S) - 10.0 / (1 - S)) / S
    assert two_lam == pytest.approx(26.2742, abs=1e-4)
    assert checks.mle_reason(pairs, bloch_rho((S, S, 0.0))) is None
    assert np.abs(checks.bisection_mle(pairs) - [S, S, 0.0]).max() < 1e-12
    assert checks.mle_match_reason(pairs, bloch_rho((S, S, 0.0))) is None
    assert checks.mle_match_reason(pairs, bloch_rho((S, -S, 0.0))) is not None
    # a flipped component stays on the sphere but breaks stationarity
    assert "multiplier" in checks.mle_reason(pairs, bloch_rho((S, -S, 0.0)))
    # off the sphere, and turned along it by 1e-4 rad
    assert "|r|" in checks.mle_reason(pairs, bloch_rho((0.99 * S, 0.99 * S, 0)))
    c, s = math.cos(S + 1e-4), math.sin(S + 1e-4)
    assert checks.mle_reason(pairs, bloch_rho((c, s, 0.0))) is not None
    assert checks.mle_match_reason(pairs, bloch_rho((c, s, 0.0))) is not None


def test_boundary_one_sided_counts():
    # (40, 0) alone puts s1 on the pole: r^2 = 1 exactly, still interior
    pairs = [(40.0, 0.0), (30.0, 30.0), (30.0, 30.0)]
    assert checks.is_boundary(pairs) is False
    assert checks.mle_match_reason(pairs, bloch_rho((1.0, 0.0, 0.0))) is None
    pairs = [(40.0, 0.0), (60.0, 0.0), (30.0, 30.0)]
    x = checks.bisection_mle(pairs)
    assert checks.kkt_reason(pairs, x) is None
    assert checks.kkt_reason(pairs, [1.0, 0.0, 0.0]) is not None


def test_fidelity_closed_form():
    h = np.diag([1.0, 0.0])
    d = 0.5 * np.ones((2, 2))
    assert checks.closed_form_fidelity(h, d) == pytest.approx(0.5, abs=1e-15)
    # (sqrt(0.45) + sqrt(0.05))^2 = 0.5 + 2 sqrt(0.09 * 0.25) = 0.8
    a, b = np.diag([0.9, 0.1]), 0.5 * np.eye(2)
    assert checks.closed_form_fidelity(a, b) == pytest.approx(0.8, abs=1e-15)
    assert checks.fidelity_reason(0.8, a, b) is None
    assert checks.fidelity_reason(0.8 + 1e-6, a, b) is not None
    assert checks.fidelity_reason(0.8 - 1e-6, a, b) is not None


def test_noiseless_records():
    h = checks.CARDINAL_VECTORS["H"]
    assert checks.noiseless_record_reason("HV", 0.2, 0.05, 0.5) is None
    assert checks.noiseless_record_reason("HV", 0.2, 0.06, 0.5) is not None
    assert checks.noiseless_record_reason("HV", 1.0, 0.0, 1.0, h, True) is None
    assert checks.noiseless_record_reason("DA", 0.5, 0.5, 1.0, h, True) is None
    assert "Born" in checks.noiseless_record_reason("DA", 0.6, 0.4, 1.0, h,
                                                    True)


def test_axis_reason():
    assert checks.axis_reason(28.0, 118.0) is None
    assert checks.axis_reason(89.995, 0.0) is None
    assert checks.axis_reason(28.02, 118.0) is not None
    assert checks.axis_reason(27.98, 28.0) is not None


def test_sweep_reason():
    # K_s = pi/2, K_f = pi/4 per mm, no bend phase, z = 0, 0.5, 1
    z = [0.0, 0.5, 1.0]
    sf = (1.0 - math.cos(math.pi / 4)) / 2.0  # sin^2(pi/8)
    rows = [(0.0, 0.0, 0.0, 1.0, 1.0), (0.5, 0.5, sf, 0.5, 1.0 - sf),
            (1.0, 1.0, 0.5, 0.0, 0.5)]
    args = (math.pi / 2, 0.0, math.pi / 4, 0.0)
    assert checks.sweep_reason(rows, z, *args) is None
    assert checks.sweep_reason([r[:3] for r in rows], z, *args) is None
    shifted = [(zi + 0.25,) + r[1:] for zi, r in zip(z, rows)]
    assert "grid" in checks.sweep_reason(shifted, z, *args)
    # a row whose powers belong to another length
    moved = list(rows)
    moved[1] = (0.5, math.sin(math.pi / 2 * 0.51) ** 2) + rows[1][2:]
    assert "sin^2" in checks.sweep_reason(moved, z, *args)
    assert checks.sweep_reason(rows[:2], z, *args) is not None


def test_extinction_reason():
    # t = 1; slow axis fully crossed (1, 0), fast split (0.5, 0.5)
    args = (1.0, math.pi / 2, 0.0, math.pi / 4, 0.0, 1.0)
    er_t = 10.0 * math.log10(2.0)
    er_r = 10.0 * math.log10(0.5 / 1e-15)
    assert checks.extinction_reason((er_t, er_r), *args) is None
    assert checks.extinction_reason((er_t + 0.01, er_r), *args) is not None
    assert checks.extinction_reason((er_t, er_r - 0.01), *args) is not None
    assert checks.extinction_reason((3.01, 146.99), *args, decimals=2) is None
    assert checks.extinction_reason((3.02, 146.99), *args,
                                    decimals=2) is not None


def test_visibility():
    # half wave: always 1; no retardance, psi = 22.5 deg: 1 - 2 sin^2 45 = 0
    assert checks.visibility_reason(1.0, "H", 17.0, math.pi) is None
    assert checks.visibility_reason(0.0, "D", 22.5, 0.0) is None
    assert checks.visibility_reason(1e-6, "D", 22.5, 0.0) is not None
    assert checks.visibility_reason(1.0, "D", 22.5, 0.0) is not None


def test_calibration_reason():
    nodes = [(t, round(checks.calibration_law(t), 6)) for t in (0.0, 5.0, 10.0)]
    assert nodes[1] == (5.0, 3.263518)
    assert checks.calibration_reason(5.0, 3.263518, nodes) is None
    assert checks.calibration_reason(5.0, 3.263518 + 1e-9, nodes) is not None
    law = checks.calibration_law(2.5)
    assert law == pytest.approx(1.628443, abs=1e-6)
    assert checks.calibration_reason(2.5, law, nodes) is None
    assert "law" in checks.calibration_reason(2.5, law + 0.02, nodes)
    assert "outside" in checks.calibration_reason(2.5, 3.3, nodes)
    assert "outside" in checks.calibration_reason(12.0, 8.0, nodes)


def test_expand_range():
    assert checks.expand_range(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert checks.expand_range(0.1, 0.3, 0.1) == [0.1, 0.2, 0.1 + 2 * 0.1]


def test_tomo_set_reason_rejects_flipped_component():
    counts = {"DA": (90, 10), "RL": (50, 50), "HV": (50, 50)}
    records = [SimpleNamespace(basis=b, counts=c, p0=c[0] / 100, p1=c[1] / 100)
               for b, c in counts.items()]
    sigma = np.diag([0.5, 0.5])

    def result(x):
        rho = bloch_rho(x)
        return SimpleNamespace(
            converged=True, rho=SimpleNamespace(matrix=rho),
            stokes=SimpleNamespace(as_tuple=lambda: (1.0, *x)))

    good = result((0.8, 0.0, 0.0))
    fid = checks.closed_form_fidelity(good.rho.matrix, sigma)
    assert workloads._tomo_set_reason(records, good, fid, sigma) == (None,
                                                                    False)
    reason, _ = workloads._tomo_set_reason(records, result((-0.8, 0.0, 0.0)),
                                           fid, sigma)
    assert "interior" in reason
    reason, _ = workloads._tomo_set_reason(records, good, fid + 1e-6, sigma)
    assert "fidelity" in reason


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        30 |        150 |   scipy.interpolate",
        "import time:        10 |        460 | rpdcsim",
    ])
    assert run.parse_importtime(text) == {"rpdcsim": 0.46, "scipy": 0.15,
                                          "numpy": 0.3}


def test_tracer_wraps_every_binding():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rpdcsim.device as dv
    import rpdcsim.tomography as tomo

    dev = dv.make_pdc_device(45.0, math.pi / 19, 2 * math.pi / 57, 23.0, 5.5)
    original = tomo.port_transfer_matrices
    with Tracer() as tracer:
        tomo.project_probabilities(tomo.cardinal_density("H"), dev,
                                   tomo.waveplate_settings("HV", 45.0))
    assert tomo.port_transfer_matrices is original
    stats = tracer.stats
    assert stats["tomography.project_probabilities"].calls == 1
    # called from tomography under tomography's own binding
    assert stats["device.port_transfer_matrices"].calls == 1
    assert stats["coupling.coupler_transfer_matrix"].calls == 2
    # two wave plates, two rotations each, and two in the port matrices
    assert stats["birefringence.retarder_jones"].calls == 2
    assert stats["polarization.rotation_deg"].calls == 6
    outer = stats["tomography.project_probabilities"]
    inner = sum(stats[n].busy_s for n in ("device.port_transfer_matrices",
                                          "birefringence.retarder_jones"))
    assert outer.self_s == pytest.approx(outer.busy_s - inner, abs=1e-9)
