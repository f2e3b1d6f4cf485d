"""Command-line harness: scripted runs that emit plot-ready CSV/JSON.

Each subcommand returns its artifacts, file name to body; `main` writes them
only once the run has succeeded, so a run that fails on its input or its
computation exits 2 and writes no file, makes no directory. Every artifact
embeds the effective random seed and a SHA-256 hash of the resolved
configuration: CSV files carry them in a leading `#` comment, JSON files
under a "meta" key. Files are written atomically (temp file plus rename),
each named on stdout, and byte-identically for identical config and seed;
floats are rendered with repr so the shortest round-trip form is stable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from ._files import check_fields, read_json, read_number
from .birefringence import (
    RotatedRetarder,
    axis_from_offset,
    find_axis,
    load_axis_calibration,
)
from .device import extinction_ratios, load_device, sweep_coupling_length
from .polarization import CARDINAL_LABELS
from .tomography import (
    NoiseConfig,
    cardinal_density,
    load_measurement_csv,
    mle_reconstruct,
    result_to_dict,
    run_tomography_experiment,
)

NOISE_FIELDS = ("counts_per_basis",)
RANGE_FIELDS = ("start", "stop", "step")

MAX_RANGE_POINTS = 10 ** 6


def _expand_range(value, name):
    """A sweep range is a non-empty increasing list or a start/stop/step."""
    if isinstance(value, dict):
        check_fields(value, f"{name} range", RANGE_FIELDS, RANGE_FIELDS)
        start, stop, step = (read_number(value[k], f"{name} range {k}")
                             for k in RANGE_FIELDS)
        if step <= 0:
            raise ValueError(f"{name}: step must be > 0, got {step}")
        if stop < start:
            raise ValueError(f"{name}: stop {stop} < start {start}")
        # the points are start + i*step for i = 0, 1, ... while that is
        # <= stop + 1e-12, and no more than MAX_RANGE_POINTS of them
        points, limit = [], stop + 1e-12
        # a span over the cap in steps, by a few ulp for the roundings of the
        # quotient and of cap*step, rejects at once: rounding is monotone, so
        # the first MAX_RANGE_POINTS + 1 points are then all <= limit and the
        # stepping would reach the cap too. Halving both ends keeps the span
        # finite; nearer the cap the stepping decides
        if ((limit / 2 - start / 2) / step >
                MAX_RANGE_POINTS / 2 * (1 + 4 * sys.float_info.epsilon)):
            raise ValueError(f"{name}: range has more than "
                             f"{MAX_RANGE_POINTS} points")
        while (point := start + len(points) * step) <= limit:
            if len(points) == MAX_RANGE_POINTS:
                raise ValueError(f"{name}: range has more than "
                                 f"{MAX_RANGE_POINTS} points")
            # as list values must: ends too large for the step repeat points
            if points and point <= points[-1]:
                raise ValueError(f"{name}: range points must strictly "
                                 f"increase ({points[-1]} then {point})")
            points.append(point)
        return tuple(points)
    if isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"{name}: sweep range must be non-empty")
        vals = [read_number(v, f"{name} sweep value") for v in value]
        for a, b in zip(vals, vals[1:]):
            if b <= a:
                raise ValueError(f"{name}: sweep values must be strictly "
                                 f"increasing ({a} then {b})")
        return tuple(vals)
    raise ValueError(f"{name}: expected a list of values or a "
                     f"start/stop/step object, got {value!r}")


def _parse_values_flag(text, name):
    """Flag syntax: 'a,b,c' explicit values or 'start:stop:step'.

    Returns what a config file would hold, a list or a start/stop/step
    object, for `_expand_range` to check.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: range flag must be start:stop:step, "
                             f"got {text!r}")
        try:
            return dict(zip(RANGE_FIELDS, (float(p) for p in parts)))
        except ValueError:
            raise ValueError(f"{name}: range parts must be numbers, "
                             f"got {text!r}") from None
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"{name}: values must be comma-separated numbers, "
                         f"got {text!r}") from None


def _read_lengths(value, name) -> tuple:
    """Sweep lengths as `_expand_range` reads them, each >= 0."""
    lengths = _expand_range(value, name)
    if lengths[0] < 0:  # the points increase, so the first is the least
        raise ValueError(f"{name}: lengths must be >= 0, got {lengths[0]}")
    return lengths


def _read_path(value, name) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config {name} must be a path string, "
                         f"got {value!r}")
    return value


def _read_seed(value, name) -> int:
    """A seed `NoiseConfig` accepts; a JSON integral float such as 5.0 is 5."""
    if type(value) is float and value.is_integer():
        value = int(value)
    return NoiseConfig(seed=value).seed


def _read_noise(value, name) -> float:
    """The noise object's counts_per_basis, a number NoiseConfig accepts."""
    counts = check_fields(value, f"config {name}",
                          NOISE_FIELDS).get("counts_per_basis")
    if counts is not None:
        counts = NoiseConfig(read_number(
            counts, f"{name} counts_per_basis")).counts_per_basis
    return counts


# config key: (resolved setting, the attribute of the flag that overrides
# it, the parser of the flag's text if it needs one, default, reader). The
# config value and the flag go through the same reader, so a config value
# is checked even when a flag wins
SETTINGS = {
    "device": ("device", "device", None, None, _read_path),
    "calibration": ("calibration", "calibration", None, None, _read_path),
    "lengths_mm": ("lengths_mm", "lengths", _parse_values_flag, None,
                   _read_lengths),
    "thetas_deg": ("thetas_deg", "thetas", _parse_values_flag, None,
                   _expand_range),
    "noise": ("counts_per_basis", None, None, None, _read_noise),
    "out_dir": ("out_dir", "out", None, "out", _read_path),
    "seed": ("seed", "seed", None, 0, _read_seed),
}


def _resolve_config(args) -> SimpleNamespace:
    """The run settings, one per SETTINGS row, after flag overrides."""
    raw = {} if args.config is None else check_fields(
        read_json(args.config), f"{args.config}: config", SETTINGS)
    values = {}
    for key, (field, flag, parse, default, read) in SETTINGS.items():
        value = raw.get(key, default)
        # null leaves a setting with no default unset; the reader of one
        # with a default rejects null
        values[field] = (None if value is None and default is None
                         else read(value, key))
        given = getattr(args, flag, None) if flag else None
        if given is not None:
            values[field] = read(parse(given, key) if parse else given, key)
    return SimpleNamespace(**values)


def _config_digest(cfg, args) -> str:
    # out_dir is deliberately not hashed: the same run written elsewhere
    # should produce byte-identical artifacts. The one data file the
    # subcommand reads is hashed by its bytes
    records = getattr(args, "records", None)
    read = {"axis-cal": cfg.calibration, "find-axis": None,
            "tomography": records or cfg.device}.get(args.command, cfg.device)
    inputs = {} if read is None else {
        read: hashlib.sha256(Path(read).read_bytes()).hexdigest()}
    canonical = dict(vars(cfg), records=records, inputs=inputs,
                     find_axis=[getattr(args, f, None) for f in
                                ("alpha", "retardance", "transmittance")])
    del canonical["out_dir"]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_artifact(path: Path, body, meta: dict) -> None:
    if path.suffix == ".json":
        text = json.dumps({**body, "meta": meta}, indent=2)
    else:
        header, rows = body
        text = "\n".join([f"# config_sha256={meta['config_sha256']} "
                          f"seed={meta['seed']}", header, *rows])
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    os.replace(tmp, path)
    print(f"wrote {path}")


def _require(value, flag, subcommand):
    if value is None:
        raise ValueError(f"{subcommand}: missing {flag} (set it in the "
                         f"config file or pass the flag)")
    return value


def cmd_axis_cal(cfg, args) -> dict:
    cal_path = _require(cfg.calibration, "--calibration", "axis-cal")
    thetas = _require(cfg.thetas_deg, "--thetas", "axis-cal")
    cal = load_axis_calibration(cal_path)
    rows = [f"{theta!r},{axis_from_offset(cal, theta)!r}"
            for theta in thetas]
    return {"axis_cal.csv": ("theta_deg,alpha_deg", rows)}


def cmd_coupler_sweep(cfg, args) -> dict:
    device_path = _require(cfg.device, "--device", "coupler-sweep")
    lengths = _require(cfg.lengths_mm, "--lengths", "coupler-sweep")
    device = load_device(device_path)
    try:
        points = sweep_coupling_length(device, lengths)
    except ValueError as exc:
        # the device's own error, naming its file as load_device does
        raise ValueError(f"{device_path}: {exc}") from None
    rows = [f"{p.length_mm!r},{p.p_t_slow!r},{p.p_t_fast!r}"
            for p in points]
    return {"coupler_sweep.csv": ("length_mm,p_cross_slow,p_cross_fast",
                                  rows)}


def cmd_extinction(cfg, args) -> dict:
    device_path = _require(cfg.device, "--device", "extinction")
    er_t, er_r = extinction_ratios(load_device(device_path))
    return {"extinction.json": {"er_t_db": round(er_t, 2),
                                "er_r_db": round(er_r, 2)}}


def cmd_tomography(cfg, args) -> dict:
    if args.records is not None:
        result = mle_reconstruct(load_measurement_csv(args.records))
        return {"tomography_records.json": result_to_dict(result)}

    device = load_device(_require(cfg.device, "--device", "tomography"))
    artifacts, fid_rows = {}, []
    for idx, label in enumerate(CARDINAL_LABELS):
        # state i at run seed s draws from seed 6 s + i: no shared streams
        noise = NoiseConfig(counts_per_basis=cfg.counts_per_basis,
                            seed=len(CARDINAL_LABELS) * cfg.seed + idx)
        true_state = cardinal_density(label)
        fid, result = run_tomography_experiment(true_state, device, noise)
        artifacts[f"tomography_{label}.json"] = result_to_dict(
            result, fidelity_value=fid)
        fid_rows.append(f"{label},{fid!r},{result.converged},"
                        f"{result.iterations}")
    return {**artifacts, "fidelities.csv": (
        "state,fidelity,converged,iterations", fid_rows)}


def cmd_find_axis(cfg, args) -> dict:
    return {"find_axis.json": {
        "alpha_deg": args.alpha,
        "retardance_rad": args.retardance,
        "amplitude_transmittance": args.transmittance,
        "recovered_alpha_mod_90_deg": find_axis(RotatedRetarder(
            args.alpha, args.retardance, args.transmittance)),
    }}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="JSON config file")
    shared.add_argument("--seed", type=int, metavar="N",
                        help="random seed recorded in artifacts")
    shared.add_argument("--out", metavar="DIR",
                        help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="rpdcsim",
        description="Polarization directional coupler simulations: emits "
                    "plot-ready CSV/JSON artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axis-cal", parents=[shared],
                       help="interpolate a measured axis calibration table")
    p.set_defaults(run=cmd_axis_cal)
    p.add_argument("--calibration", metavar="PATH",
                   help="calibration CSV (theta_deg,alpha_deg)")
    p.add_argument("--thetas", metavar="SPEC",
                   help="query angles: 'a,b,c' or start:stop:step")

    p = sub.add_parser("coupler-sweep", parents=[shared],
                       help="cross-port powers per axis vs coupling length")
    p.set_defaults(run=cmd_coupler_sweep)
    p.add_argument("--device", metavar="PATH", help="device JSON")
    p.add_argument("--lengths", metavar="SPEC",
                   help="lengths in mm: 'a,b,c' or start:stop:step")

    p = sub.add_parser("extinction", parents=[shared],
                       help="per-port extinction ratios of a device")
    p.set_defaults(run=cmd_extinction)
    p.add_argument("--device", metavar="PATH", help="device JSON")

    p = sub.add_parser("tomography", parents=[shared],
                       help="reconstruct the six cardinal states through "
                            "a device, or one measured record set")
    p.set_defaults(run=cmd_tomography)
    p.add_argument("--device", metavar="PATH", help="device JSON")
    p.add_argument("--records", metavar="PATH",
                   help="measurement CSV to reconstruct instead of "
                        "simulating")

    p = sub.add_parser("find-axis", parents=[shared],
                       help="recover a retarder axis from crossed-polarizer "
                            "transmission")
    p.set_defaults(run=cmd_find_axis)
    p.add_argument("--alpha", type=float, required=True, metavar="DEG",
                   help="true axis angle in degrees")
    p.add_argument("--retardance", type=float, required=True, metavar="RAD",
                   help="retardance in radians")
    p.add_argument("--transmittance", type=float, default=1.0, metavar="T",
                   help="amplitude transmittance (default 1)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        meta = {"config_sha256": _config_digest(cfg, args), "seed": cfg.seed}
        artifacts = args.run(cfg, args)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, body in artifacts.items():
            _write_artifact(out_dir / name, body, meta)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0
