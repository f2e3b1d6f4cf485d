"""Command-line harness: scripted runs that emit plot-ready CSV/JSON.

Every artifact embeds the effective random seed and a SHA-256 hash of the
resolved configuration: CSV files carry them in a leading `#` comment,
JSON files under a "meta" key. Files are written atomically (temp file
plus rename) and byte-identically for identical config and seed; floats
are rendered with repr so the shortest round-trip form is stable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .birefringence import (
    RotatedRetarder,
    axis_from_offset,
    find_axis,
    load_axis_calibration,
)
from .device import extinction_ratios, load_device, sweep_coupling_length
from .tomography import (
    NoiseConfig,
    cardinal_density,
    load_measurement_csv,
    mle_reconstruct,
    result_to_dict,
    run_tomography_experiment,
)

CONFIG_FIELDS = ("device", "calibration", "lengths_mm", "thetas_deg",
                 "noise", "out_dir", "seed")
NOISE_FIELDS = ("counts_per_basis",)

TOMOGRAPHY_STATES = ("H", "V", "D", "A", "R", "L")

MAX_RANGE_POINTS = 10 ** 6


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run settings after config file and flag overrides."""

    device: str = None
    calibration: str = None
    lengths_mm: tuple = None
    thetas_deg: tuple = None
    counts_per_basis: float = None
    out_dir: str = "out"
    seed: int = 0


def _expand_range(value, name):
    """A sweep range is a non-empty increasing list or a start/stop/step."""
    if isinstance(value, dict):
        unknown = sorted(set(value) - {"start", "stop", "step"})
        if unknown:
            raise ValueError(f"{name}: unknown range keys: "
                             f"{', '.join(unknown)}")
        try:
            start, stop, step = (float(value[k])
                                 for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ValueError(f"{name}: range needs start, stop, step "
                             f"(missing {exc.args[0]})") from None
        except (TypeError, ValueError):
            raise ValueError(f"{name}: range start, stop and step must be "
                             f"numbers, got {value!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"{name}: range start, stop and step must be "
                             f"finite, got {start}, {stop}, {step}")
        if step <= 0:
            raise ValueError(f"{name}: step must be > 0, got {step}")
        if stop < start:
            raise ValueError(f"{name}: stop {stop} < start {start}")
        # the points are start + i*step while that is <= stop + 1e-12; the
        # quotient (inf if it overflows) estimates their count, and rounding
        # can move the true count past it by one either way
        span = (stop - start) / step
        n = int(span) + 1 if span < MAX_RANGE_POINTS else MAX_RANGE_POINTS + 1
        while n <= MAX_RANGE_POINTS and start + n * step <= stop + 1e-12:
            n += 1
        while n > 1 and start + (n - 1) * step > stop + 1e-12:
            n -= 1
        if n > MAX_RANGE_POINTS:
            raise ValueError(f"{name}: range has more than "
                             f"{MAX_RANGE_POINTS} points")
        return tuple(start + i * step for i in range(n))
    if isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"{name}: sweep range must be non-empty")
        try:
            vals = [float(v) for v in value]
        except (TypeError, ValueError):
            raise ValueError(f"{name}: sweep values must be numbers") from None
        for a, b in zip(vals, vals[1:]):
            if b <= a:
                raise ValueError(f"{name}: sweep values must be strictly "
                                 f"increasing ({a} then {b})")
        return tuple(vals)
    raise ValueError(f"{name}: expected a list of values or a "
                     f"start/stop/step object, got {value!r}")


def _parse_values_flag(text, name):
    """Flag syntax: 'a,b,c' explicit values or 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: range flag must be start:stop:step, "
                             f"got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"{name}: range parts must be numbers, "
                             f"got {text!r}") from None
        return _expand_range({"start": start, "stop": stop, "step": step},
                             name)
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"{name}: values must be comma-separated numbers, "
                         f"got {text!r}") from None
    return _expand_range(vals, name)


def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"{path}: unknown config fields: "
                         f"{', '.join(unknown)}")
    return raw


def _resolve_config(raw: dict, args) -> ExperimentConfig:
    noise = raw.get("noise", {})
    if noise is None:
        noise = {}
    if not isinstance(noise, dict):
        raise ValueError("config noise must be a JSON object")
    unknown = sorted(set(noise) - set(NOISE_FIELDS))
    if unknown:
        raise ValueError(f"unknown noise fields: {', '.join(unknown)}")

    seed = raw.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if isinstance(seed, bool) or seed != int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")

    counts = noise.get("counts_per_basis")
    if counts is not None:
        counts = float(counts)

    lengths = raw.get("lengths_mm")
    if lengths is not None:
        lengths = _expand_range(lengths, "lengths_mm")
    if getattr(args, "lengths", None) is not None:
        lengths = _parse_values_flag(args.lengths, "lengths_mm")

    thetas = raw.get("thetas_deg")
    if thetas is not None:
        thetas = _expand_range(thetas, "thetas_deg")
    if getattr(args, "thetas", None) is not None:
        thetas = _parse_values_flag(args.thetas, "thetas_deg")

    device = raw.get("device")
    if getattr(args, "device", None) is not None:
        device = args.device
    calibration = raw.get("calibration")
    if getattr(args, "calibration", None) is not None:
        calibration = args.calibration

    out_dir = raw.get("out_dir", "out")
    if getattr(args, "out", None) is not None:
        out_dir = args.out

    for name, val in (("device", device), ("calibration", calibration),
                      ("out_dir", out_dir)):
        if val is not None and not isinstance(val, str):
            raise ValueError(f"config {name} must be a path string, "
                             f"got {val!r}")

    return ExperimentConfig(device=device, calibration=calibration,
                            lengths_mm=lengths, thetas_deg=thetas,
                            counts_per_basis=counts, out_dir=out_dir,
                            seed=int(seed))


def _config_digest(cfg: ExperimentConfig, args) -> str:
    # out_dir is deliberately not hashed: the same run written elsewhere
    # should produce byte-identical artifacts. The one data file the
    # subcommand reads is hashed by its bytes
    records = getattr(args, "records", None)
    read = {"axis-cal": cfg.calibration, "find-axis": None,
            "tomography": records or cfg.device}.get(args.command, cfg.device)
    inputs = {} if read is None else {
        read: hashlib.sha256(Path(read).read_bytes()).hexdigest()}
    canonical = json.dumps(
        {
            "device": cfg.device,
            "calibration": cfg.calibration,
            "lengths_mm": (None if cfg.lengths_mm is None
                           else list(cfg.lengths_mm)),
            "thetas_deg": (None if cfg.thetas_deg is None
                           else list(cfg.thetas_deg)),
            "counts_per_basis": cfg.counts_per_basis,
            "seed": cfg.seed,
            "records": records,
            "find_axis": [getattr(args, f, None)
                          for f in ("alpha", "retardance", "transmittance")],
            "inputs": inputs,
        },
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, meta: dict, header: str, rows) -> None:
    lines = [f"# config_sha256={meta['config_sha256']} seed={meta['seed']}",
             header]
    lines.extend(rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, meta: dict) -> None:
    payload = dict(payload)
    payload["meta"] = meta
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _require(value, flag, subcommand):
    if value is None:
        raise ValueError(f"{subcommand}: missing {flag} (set it in the "
                         f"config file or pass the flag)")
    return value


def cmd_axis_cal(cfg: ExperimentConfig, meta: dict, out_dir: Path) -> None:
    cal_path = _require(cfg.calibration, "--calibration", "axis-cal")
    thetas = _require(cfg.thetas_deg, "--thetas", "axis-cal")
    cal = load_axis_calibration(cal_path)
    rows = [f"{theta!r},{axis_from_offset(cal, theta)!r}"
            for theta in thetas]
    path = out_dir / "axis_cal.csv"
    _write_csv(path, meta, "theta_deg,alpha_deg", rows)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_coupler_sweep(cfg: ExperimentConfig, meta: dict,
                      out_dir: Path) -> None:
    device_path = _require(cfg.device, "--device", "coupler-sweep")
    lengths = _require(cfg.lengths_mm, "--lengths", "coupler-sweep")
    device = load_device(device_path)
    points = sweep_coupling_length(device, lengths)
    rows = [f"{p.length_mm!r},{p.p_t_slow!r},{p.p_t_fast!r}"
            for p in points]
    path = out_dir / "coupler_sweep.csv"
    _write_csv(path, meta, "length_mm,p_cross_slow,p_cross_fast", rows)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_extinction(cfg: ExperimentConfig, meta: dict, out_dir: Path) -> None:
    device_path = _require(cfg.device, "--device", "extinction")
    er_t, er_r = extinction_ratios(load_device(device_path))
    payload = {"er_t_db": round(er_t, 2), "er_r_db": round(er_r, 2)}
    path = out_dir / "extinction.json"
    _write_json(path, payload, meta)
    print(f"wrote {path} (ER_T {payload['er_t_db']:.2f} dB, "
          f"ER_R {payload['er_r_db']:.2f} dB)")


def cmd_tomography(cfg: ExperimentConfig, meta: dict, out_dir: Path,
                   records_path=None) -> None:
    if records_path is not None:
        records = load_measurement_csv(records_path)
        result = mle_reconstruct(records)
        path = out_dir / "tomography_records.json"
        _write_json(path, result_to_dict(result), meta)
        print(f"wrote {path} (converged={result.converged})")
        return

    device_path = _require(cfg.device, "--device", "tomography")
    device = load_device(device_path)
    fid_rows = []
    for idx, label in enumerate(TOMOGRAPHY_STATES):
        # one independent count stream per state, derived from the run seed
        noise = NoiseConfig(counts_per_basis=cfg.counts_per_basis,
                            seed=cfg.seed + idx)
        true_state = cardinal_density(label)
        fid, result = run_tomography_experiment(true_state, device, noise)
        _write_json(out_dir / f"tomography_{label}.json",
                    result_to_dict(result, fidelity_value=fid), meta)
        fid_rows.append(f"{label},{fid!r},{result.converged},"
                        f"{result.iterations}")
    path = out_dir / "fidelities.csv"
    _write_csv(path, meta, "state,fidelity,converged,iterations", fid_rows)
    print(f"wrote {path} and per-state JSON ({len(fid_rows)} states)")


def cmd_find_axis(cfg: ExperimentConfig, meta: dict, out_dir: Path,
                  alpha_deg=None, retardance_rad=None,
                  transmittance=1.0) -> None:
    retarder = RotatedRetarder(alpha_deg, retardance_rad, transmittance)
    recovered = find_axis(retarder)
    payload = {
        "alpha_deg": alpha_deg,
        "retardance_rad": retardance_rad,
        "amplitude_transmittance": transmittance,
        "recovered_alpha_mod_90_deg": recovered,
    }
    path = out_dir / "find_axis.json"
    _write_json(path, payload, meta)
    print(f"wrote {path} (recovered {recovered!r} deg)")


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
    p.add_argument("--calibration", metavar="PATH",
                   help="calibration CSV (theta_deg,alpha_deg)")
    p.add_argument("--thetas", metavar="SPEC",
                   help="query angles: 'a,b,c' or start:stop:step")

    p = sub.add_parser("coupler-sweep", parents=[shared],
                       help="cross-port powers per axis vs coupling length")
    p.add_argument("--device", metavar="PATH", help="device JSON")
    p.add_argument("--lengths", metavar="SPEC",
                   help="lengths in mm: 'a,b,c' or start:stop:step")

    p = sub.add_parser("extinction", parents=[shared],
                       help="per-port extinction ratios of a device")
    p.add_argument("--device", metavar="PATH", help="device JSON")

    p = sub.add_parser("tomography", parents=[shared],
                       help="reconstruct the six cardinal states through "
                            "a device, or one measured record set")
    p.add_argument("--device", metavar="PATH", help="device JSON")
    p.add_argument("--records", metavar="PATH",
                   help="measurement CSV to reconstruct instead of "
                        "simulating")

    p = sub.add_parser("find-axis", parents=[shared],
                       help="recover a retarder axis from crossed-polarizer "
                            "transmission")
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
        raw = _load_config_file(args.config)
        cfg = _resolve_config(raw, args)
        meta = {"config_sha256": _config_digest(cfg, args), "seed": cfg.seed}
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "axis-cal":
            cmd_axis_cal(cfg, meta, out_dir)
        elif args.command == "coupler-sweep":
            cmd_coupler_sweep(cfg, meta, out_dir)
        elif args.command == "extinction":
            cmd_extinction(cfg, meta, out_dir)
        elif args.command == "tomography":
            cmd_tomography(cfg, meta, out_dir, records_path=args.records)
        else:
            cmd_find_axis(cfg, meta, out_dir, alpha_deg=args.alpha,
                          retardance_rad=args.retardance,
                          transmittance=args.transmittance)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0
