"""Golden artifacts: the README's noiseless commands against committed output.

Each command of `GOLDEN_COMMANDS` runs through `main` from the repository
root, as the README gives it, into a temporary directory, and its artifact
is compared with the copy under `tests/golden/`. Headers, keys, seeds and
`config_sha256` must match exactly; floats to 1e-12 relative, since libm's
`sin` and `cos` may differ by an ulp across platforms. A change that moves
an artifact on purpose regenerates the copies, from the repository root,
with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed files in `CHANGES.md`.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from rpdcsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-12

# artifact: the README's command for it, without --out; paths are relative
# to the root, since the config hash covers them as given
GOLDEN_COMMANDS = {
    "axis_cal.csv": ["axis-cal", "--calibration",
                     "data/axis_calibration_synthetic.csv",
                     "--thetas", "0:175:2.5"],
    "coupler_sweep.csv": ["coupler-sweep", "--device",
                          "data/device_45deg_ideal.json",
                          "--lengths", "0:28.5:0.25"],
    "extinction.json": ["extinction", "--device", "data/device_45deg.json"],
    "find_axis.json": ["find-axis", "--alpha", "118", "--retardance", "2.3"],
}


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


def compare_csv(got_text, want_text, name):
    got, want = got_text.splitlines(), want_text.splitlines()
    # the meta line (config_sha256 and seed) and the header, exactly
    assert got[:2] == want[:2], name
    assert len(got) == len(want), name
    for line, (g, w) in enumerate(zip(got[2:], want[2:]), start=3):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), (name, line)
        for g_cell, w_cell in zip(g_cells, w_cells):
            assert floats_agree(float(g_cell), float(w_cell)), (
                f"{name}:{line}", g, w)


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_artifact_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(GOLDEN_COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = (tmp_path / name).read_text(encoding="utf-8")
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".csv"):
        compare_csv(got, want, name)
    else:
        got, want = json.loads(got), json.loads(want)
        assert got["meta"] == want["meta"]
        compare_values(got, want, name)


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_COMMANDS)


if __name__ == "__main__":
    # regenerate tests/golden/ from the current code
    if Path.cwd().resolve() != ROOT:
        sys.exit(f"run from the repository root, {ROOT}")
    for argv in GOLDEN_COMMANDS.values():
        if main(argv + ["--out", str(GOLDEN)]) != 0:
            sys.exit(f"failed: {argv}")
