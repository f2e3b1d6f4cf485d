"""Golden artifacts: the README's commands against committed output.

Each command of `GOLDEN_COMMANDS` runs through `main` from the repository
root, as the README gives it, into a temporary directory, and its output
is compared with `tests/golden/`. A key with a file suffix names the one
artifact its command writes; a key without one names a directory that
holds every artifact of its run (the seven files of a `tomography` run,
or the one of `tomography --records`). Headers, keys, seeds, counts,
`converged`, `iterations` and `config_sha256` must match exactly; floats
to 1e-12 relative, since libm's `sin` and `cos` may differ by an ulp
across platforms. The inputs the commands read beyond `data/` are in
`tests/inputs/`.

Noisy runs draw their counts from numpy's `Generator.poisson`, whose
stream numpy does not promise to keep across releases, so the directory
of a noisy run also holds the numpy version that made it, in
`NUMPY_VERSION`, and a failure there names it.

A change that moves an artifact on purpose regenerates the copies, from
the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed files in `CHANGES.md`.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rpdcsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-12
NUMPY_VERSION = "NUMPY_VERSION"
NOISE_CONFIG = "tests/inputs/noise.json"


# golden entry: the README's command for it, without --out; paths are
# relative to the root, since the config hash covers them as given
GOLDEN_COMMANDS = {
    "axis_cal.csv": ["axis-cal", "--calibration",
                     "data/axis_calibration_synthetic.csv",
                     "--thetas", "0:175:2.5"],
    "coupler_sweep.csv": ["coupler-sweep", "--device",
                          "data/device_45deg_ideal.json",
                          "--lengths", "0:28.5:0.25"],
    "extinction.json": ["extinction", "--device", "data/device_45deg.json"],
    "find_axis.json": ["find-axis", "--alpha", "118", "--retardance", "2.3"],
    "tomography_0deg": ["tomography", "--device", "data/device_0deg.json"],
    "tomography_45deg": ["tomography", "--device", "data/device_45deg.json"],
    "tomography_45deg_ideal": ["tomography", "--device",
                               "data/device_45deg_ideal.json"],
    "tomography_45deg_noisy_seed0": ["tomography", "--device",
                                     "data/device_45deg.json",
                                     "--config", NOISE_CONFIG, "--seed", "0"],
    "tomography_45deg_noisy_seed17": ["tomography", "--device",
                                      "data/device_45deg.json", "--config",
                                      NOISE_CONFIG, "--seed", "17"],
    "tomography_records_powers": ["tomography", "--records",
                                  "tests/inputs/records_powers.csv"],
    "tomography_records_counts": ["tomography", "--records",
                                  "tests/inputs/records_counts.csv"],
}


def is_directory_entry(name) -> bool:
    return not Path(name).suffix


def is_noisy(name) -> bool:
    return NOISE_CONFIG in GOLDEN_COMMANDS[name]


def floats_agree(got, want) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def compare_values(got, want, where):
    """JSON values: floats to REL_TOL, keys and everything else exactly."""
    if isinstance(want, float) and type(got) is float:
        assert floats_agree(got, want), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (
            where, list(got), list(want))
        for key in want:
            compare_values(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            compare_values(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def cells_agree(got, want) -> bool:
    """CSV cells: text (a state, True) and integers exactly, floats to
    REL_TOL."""
    if want.isidentifier() or want.lstrip("-").isdigit():
        return got == want
    return floats_agree(float(got), float(want))


def compare_csv(got_text, want_text, name):
    got, want = got_text.splitlines(), want_text.splitlines()
    # the meta line (config_sha256 and seed) and the header, exactly
    assert got[:2] == want[:2], name
    assert len(got) == len(want), name
    for line, (g, w) in enumerate(zip(got[2:], want[2:]), start=3):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), (name, line)
        for g_cell, w_cell in zip(g_cells, w_cells):
            assert cells_agree(g_cell, w_cell), (f"{name}:{line}", g, w)


def compare_artifact(got_path, want_path, name):
    got = got_path.read_text(encoding="utf-8")
    want = want_path.read_text(encoding="utf-8")
    if name.endswith(".csv"):
        compare_csv(got, want, name)
    else:
        got, want = json.loads(got), json.loads(want)
        assert got["meta"] == want["meta"]
        compare_values(got, want, name)


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_artifact_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(GOLDEN_COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    if is_directory_entry(name):
        want = sorted(p for p in (GOLDEN / name).iterdir()
                      if p.name != NUMPY_VERSION)
    else:
        want = [GOLDEN / name]
    try:
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            p.name for p in want]
        for path in want:
            compare_artifact(tmp_path / path.name, path,
                             f"{name}/{path.name}")
    except AssertionError as exc:
        if not is_noisy(name):
            raise
        made_with = (GOLDEN / name / NUMPY_VERSION).read_text().strip()
        raise AssertionError(
            f"{exc}\nthe golden counts were drawn with numpy {made_with}; "
            f"this is numpy {np.__version__}") from exc


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_COMMANDS)
    for name in GOLDEN_COMMANDS:
        entry = GOLDEN / name
        assert entry.is_dir() == is_directory_entry(name), name
        # a noisy run's directory, and only that, records its numpy
        if entry.is_dir():
            assert (entry / NUMPY_VERSION).is_file() == is_noisy(name), name


if __name__ == "__main__":
    # regenerate tests/golden/ from the current code
    if Path.cwd().resolve() != ROOT:
        sys.exit(f"run from the repository root, {ROOT}")
    for name, argv in GOLDEN_COMMANDS.items():
        out = GOLDEN / name if is_directory_entry(name) else GOLDEN
        if main(argv + ["--out", str(out)]) != 0:
            sys.exit(f"failed: {argv}")
        if is_noisy(name):
            (out / NUMPY_VERSION).write_text(np.__version__ + "\n")
