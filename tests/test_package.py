"""The package root: its public names, its version and the README's code."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rpdcsim

ROOT = Path(__file__).resolve().parent.parent

# every name `from rpdcsim import ...` has offered; none may go missing
PUBLIC_NAMES = [
    "AxisCalibration",
    "AxisCheckResult",
    "AxisUnobservableError",
    "CARDINAL_STATES",
    "CouplerParams",
    "DensityMatrix",
    "JonesVector",
    "MeasurementRecord",
    "MleDivergenceError",
    "ModeAmplitudes",
    "NoiseConfig",
    "PortPowers",
    "RHO_MIXED",
    "RotatedRetarder",
    "RpdcDevice",
    "StokesVector",
    "SweepPoint",
    "TomographyResult",
    "axis_from_offset",
    "axis_port_powers",
    "bend_phase_from_shortening",
    "cardinal_density",
    "cardinal_state",
    "coupler_transfer_matrix",
    "cross_coupling_ratio",
    "crossed_polarizer_transmission",
    "density_to_stokes",
    "extinction_db",
    "extinction_ratios",
    "fidelity",
    "find_axis",
    "fit_axis",
    "jones_to_density",
    "linear_polarizer",
    "linear_reconstruct",
    "load_axis_calibration",
    "load_device",
    "load_measurement_csv",
    "make_pdc_device",
    "measure_records",
    "mle_reconstruct",
    "pdc_coupling_length",
    "port_transfer_matrices",
    "povm_effects",
    "project_probabilities",
    "propagate_analytic",
    "propagate_numeric",
    "purity",
    "retardance_from_physics",
    "retarder_jones",
    "rotated_diagonal",
    "rotation_deg",
    "run_tomography_experiment",
    "save_device",
    "save_measurement_csv",
    "simulate_axis_check",
    "stokes_to_density",
    "sweep_coupling_length",
    "waveplate_settings",
]


def test_public_names_are_pinned():
    assert sorted(rpdcsim.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in rpdcsim.__all__:
        value = getattr(rpdcsim, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rpdcsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rpdcsim.__all__)
    # neither a submodule nor `types`, which __init__ imports to build it
    assert not any(isinstance(v, types.ModuleType)
                   for v in namespace.values())


def test_version_is_written_once():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "rpdcsim.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", rpdcsim.__version__)


def test_readme_python_blocks_run():
    # the later blocks use names the first one imports, so they run in
    # order as one script, from the root where data/ is
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 3
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
