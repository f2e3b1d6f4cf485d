"""The three workloads, each one client in a closed loop on one thread.

A workload runs whole rounds of operations. Untraced, it runs rounds until
`seconds` have passed; traced, it runs a fixed number of rounds so that
call counts repeat exactly. Each operation is timed alone; its checks, and
the drawing of its inputs, run outside the timed span. An operation that
raises or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs

LOSSY_DEVICE = "data/device_45deg.json"
IDEAL_DEVICE = "data/device_45deg_ideal.json"
CALIBRATION = "data/axis_calibration_synthetic.csv"
SETUP_FILES = {
    "cli-campaign": (LOSSY_DEVICE, IDEAL_DEVICE, CALIBRATION),
    "tomo-mc": (LOSSY_DEVICE, IDEAL_DEVICE),
    "device-char": (CALIBRATION,),
}
TRACED_ROUNDS = {"cli-campaign": 2, "tomo-mc": 20, "device-char": 10}
CLI_COMMANDS = ("axis-cal", "coupler-sweep", "extinction", "tomography",
                "tomography-records", "find-axis")
CLI_ARTIFACTS = {
    "axis-cal": ("axis_cal.csv",),
    "coupler-sweep": ("coupler_sweep.csv",),
    "extinction": ("extinction.json",),
    "tomography": ("fidelities.csv",) + tuple(
        f"tomography_{s}.json" for s in "HVDARL"),
    "tomography-records": ("tomography_records.json",),
    "find-axis": ("find_axis.json",),
}
CLI_INPROC_PASSES = 2
CHILD_TIMEOUT_S = 60
MAX_REASONS = 10


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    env: dict                   # environment of child interpreters
    rp: object = None           # the imported rpdcsim package
    tracer: object = None


@dataclass
class Outcome:
    times: list = field(default_factory=list)   # seconds per timed op passed
    attempted: int = 0
    failed: int = 0
    wrong: int = 0              # checks that failed, warm-up and run-level too
    reasons: list = field(default_factory=list)
    rounds: int = 0
    extra: dict = field(default_factory=dict)

    def op(self, seconds, reason, counted=True, raised=False):
        """One operation: its time, and why it failed (None if it passed)."""
        if reason is not None and not raised:
            self.wrong += 1
        if reason is not None and len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason if counted else f"warm-up: {reason}")
        if not counted:
            return
        self.attempted += 1
        if reason is not None:
            self.failed += 1
        elif seconds is not None:
            self.times.append(seconds)

    def raised(self, exc, counted=True):
        """An operation that raised: failed, but no output was wrong."""
        self.op(None, f"raised {type(exc).__name__}: {exc}", counted,
                raised=True)

    def check(self, reason):
        """A check on the whole run rather than on one operation."""
        if reason is not None:
            self.op(None, reason, counted=False)


def run_rounds(ctx: Context, workload: str, run_round, out: Outcome,
               warm_up=True):
    """Warm-up round, then whole rounds until time is up (or a fixed count).

    The warm-up lets lazy set-up in the process finish before timing.
    """
    if warm_up:
        run_round(-1, counted=False)
    tracing = ctx.tracer if ctx.trace else contextlib.nullcontext()
    start = perf_counter()
    with tracing:
        while (out.rounds < TRACED_ROUNDS[workload] if ctx.trace
               else out.rounds == 0 or perf_counter() - start < ctx.seconds):
            run_round(out.rounds, counted=True)
            out.rounds += 1


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the main thread once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------- tomo-mc

def record_pairs(records) -> list:
    """(a_i, b_i) per Bloch component of a record set: counts, else powers."""
    by = {r.basis: (r.counts if r.counts is not None else (r.p0, r.p1))
          for r in records}
    return [tuple(map(float, by[b])) for b in checks.BLOCH_BASES]


def _tomo_set_reason(records, result, fid, sigma):
    """Checks on one record set; returns (reason, is_boundary)."""
    by = {rec.basis: rec for rec in records}
    if len(records) != 3 or sorted(by) != ["DA", "HV", "RL"]:
        return "records do not hold HV, DA and RL once each", False
    for rec in records:
        n0, n1 = rec.counts
        if n0 + n1 <= 0 or rec.p0 != n0 / (n0 + n1) or rec.p1 != n1 / (n0 + n1):
            return (f"{rec.basis} record {rec} is not its count frequencies",
                    False)
    pairs = record_pairs(records)
    boundary = checks.is_boundary(pairs)
    if not result.converged:
        return "MLE did not converge", boundary
    rho = np.asarray(result.rho.matrix)
    stokes = np.asarray(result.stokes.as_tuple())
    if np.abs(stokes - [1.0, *checks.bloch_of(rho)]).max() > checks.STATE_TOL:
        return f"stokes {stokes} disagrees with rho", boundary
    return (checks.mle_reason(pairs, rho)
            or checks.fidelity_reason(fid, rho, sigma)), boundary


def tomo_mc(ctx: Context) -> Outcome:
    rp, out = ctx.rp, Outcome()
    tomo, pol = rp.tomography, rp.polarization
    devices = [rp.device.load_device(ctx.root / p)
               for p in (LOSSY_DEVICE, IDEAL_DEVICE)]
    for dev, ideal in zip(devices, (False, True)):
        for label, vec in checks.CARDINAL_VECTORS.items():
            for rec in tomo.measure_records(tomo.cardinal_density(label), dev):
                out.check(checks.noiseless_record_reason(
                    rec.basis, rec.p0, rec.p1, dev.amplitude_transmittance,
                    vec, ideal))
    out.extra["boundary_sets"] = 0

    def run_round(r, counted):
        sets = inputs.tomo_round(inputs.round_rng(ctx.seed, "tomo-mc", r))
        states = [pol.DensityMatrix(s.state) for s in sets]
        noises = [tomo.NoiseConfig(counts_per_basis=s.counts_per_basis,
                                   seed=s.noise_seed) for s in sets]
        for s, state, noise in zip(sets, states, noises):
            device = devices[s.device_index]
            try:
                start = perf_counter()
                records = tomo.measure_records(state, device, noise)
                result = tomo.mle_reconstruct(records)
                fid = pol.fidelity(result.rho, state)
                dt = perf_counter() - start
            except Exception as exc:  # counted as a failed operation
                out.raised(exc, counted)
                continue
            reason, boundary = _tomo_set_reason(records, result, fid, s.state)
            out.op(dt, reason, counted)
            if counted:
                out.extra["boundary_sets"] += boundary

    run_rounds(ctx, "tomo-mc", run_round, out)
    return out


# ------------------------------------------------------------ device-char

def _device_reason(case, axis, sweep, ers, axis_checks, alphas, nodes):
    rows = [(p.length_mm, p.p_t_slow, p.p_t_fast, p.p_r_slow, p.p_r_fast)
            for p in sweep]
    reason = (checks.axis_reason(axis, case.alpha_deg)
              or checks.sweep_reason(rows, case.lengths_mm, case.k_slow,
                                     case.phi_slow, case.k_fast,
                                     case.phi_fast)
              or checks.extinction_reason(ers, case.transmittance,
                                          case.k_slow, case.phi_slow,
                                          case.k_fast, case.phi_fast,
                                          case.length_mm))
    if reason:
        return reason
    for label, res in zip("HVDA", axis_checks):
        reason = checks.visibility_reason(res.visibility, label,
                                          case.alpha_deg, case.retardance_rad)
        if reason:
            return reason
    for theta, alpha in zip(case.thetas_deg, alphas):
        reason = checks.calibration_reason(theta, alpha, nodes)
        if reason:
            return reason
    return None


def device_char(ctx: Context) -> Outcome:
    rp, out = ctx.rp, Outcome()
    dv, bi = rp.device, rp.birefringence
    cal = bi.load_axis_calibration(ctx.root / CALIBRATION)
    nodes = checks.read_calibration(ctx.root / CALIBRATION)
    node_thetas = [t for t, _ in nodes]

    def run_round(r, counted):
        rng = inputs.round_rng(ctx.seed, "device-char", r)
        for case in inputs.device_round(rng, node_thetas):
            dev = dv.make_pdc_device(case.alpha_deg, case.k_slow, case.k_fast,
                                     case.length_mm, case.bend_length_mm,
                                     case.transmittance, case.retardance_rad)
            lengths = list(case.lengths_mm)
            try:
                start = perf_counter()
                axis = bi.find_axis(bi.RotatedRetarder(
                    dev.alpha_deg, dev.retardance_rad,
                    dev.amplitude_transmittance))
                sweep = dv.sweep_coupling_length(dev, lengths)
                ers = dv.extinction_ratios(dev)
                axis_checks = [dv.simulate_axis_check(dev, label)
                               for label in "HVDA"]
                alphas = [bi.axis_from_offset(cal, theta)
                          for theta in case.thetas_deg]
                dt = perf_counter() - start
            except Exception as exc:  # counted as a failed operation
                out.raised(exc, counted)
                continue
            out.op(dt, _device_reason(case, axis, sweep, ers, axis_checks,
                                      alphas, nodes), counted)

    run_rounds(ctx, "device-char", run_round, out)
    return out


# ----------------------------------------------------------- cli-campaign

def _spec(triple) -> str:
    return ":".join(repr(v) for v in triple)


def cli_commands(case, out_dir, config_path, records_path) -> list:
    """(name, argv) of the six calls of one pass, paths relative to the root."""
    common = ["--seed", str(case.seed), "--out", out_dir]
    return [
        ("axis-cal", ["axis-cal", "--calibration", CALIBRATION,
                      "--thetas", _spec(case.thetas), *common]),
        ("coupler-sweep", ["coupler-sweep", "--device", IDEAL_DEVICE,
                           "--lengths", _spec(case.lengths), *common]),
        ("extinction", ["extinction", "--device", LOSSY_DEVICE, *common]),
        ("tomography", ["tomography", "--device", LOSSY_DEVICE,
                        "--config", config_path, *common]),
        ("tomography-records", ["tomography", "--records", records_path,
                                *common]),
        ("find-axis", ["find-axis", "--alpha", repr(case.alpha_deg),
                       "--retardance", repr(case.retardance_rad),
                       "--transmittance", repr(case.transmittance),
                       *common]),
    ]


_CSV_META = re.compile(r"# config_sha256=[0-9a-f]{64} seed=(-?\d+)$")


def _read_csv(path: Path, seed: int, header: str):
    lines = path.read_text(encoding="utf-8").splitlines()
    m = _CSV_META.match(lines[0]) if lines else None
    if not m or int(m.group(1)) != seed:
        raise ValueError(f"{path.name}: bad meta line {lines[:1]}")
    if len(lines) < 2 or lines[1] != header:
        raise ValueError(f"{path.name}: header {lines[1:2]} != {header!r}")
    return [line.split(",") for line in lines[2:]]


def _read_json(path: Path, seed: int) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    meta = data.get("meta", {})
    if (meta.get("seed") != seed
            or not re.fullmatch(r"[0-9a-f]{64}",
                                str(meta.get("config_sha256")))):
        raise ValueError(f"{path.name}: bad meta {meta}")
    return data


def _rho(data) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in data["rho"]]).reshape(2, 2)


def _state_reason(data, name):
    """rho physical and consistent with the reported Stokes vector."""
    rho = _rho(data)
    reason = checks.rho_reason(rho)
    if reason:
        return f"{name}: {reason}"
    want = [1.0, *checks.bloch_of(rho)]
    if np.abs(np.asarray(data["stokes"]) - want).max() > checks.STATE_TOL:
        return f"{name}: stokes {data['stokes']} disagrees with rho"
    if data["converged"] is not True:
        return f"{name}: not converged"
    return None


class CliOracle:
    """Checks of each command's artifacts, from the inputs and data files."""

    def __init__(self, root: Path):
        self.nodes = checks.read_calibration(root / CALIBRATION)
        self.ideal = json.loads((root / IDEAL_DEVICE).read_text())
        self.lossy = json.loads((root / LOSSY_DEVICE).read_text())

    @staticmethod
    def _axes(dev):
        return (dev["k_slow_rad_per_mm"], dev["bend_phase_slow_rad"],
                dev["k_fast_rad_per_mm"], dev["bend_phase_fast_rad"])

    def reason(self, name, case, out: Path):
        try:
            return getattr(self, "_" + name.replace("-", "_"))(case, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{name}: unreadable artifact: {exc}"

    def _axis_cal(self, case, out):
        rows = _read_csv(out / "axis_cal.csv", case.seed, "theta_deg,alpha_deg")
        thetas = checks.expand_range(*case.thetas)
        if [float(t) for t, _ in rows] != thetas:
            return "axis-cal: thetas differ from the requested grid"
        for t, a in rows:
            reason = checks.calibration_reason(float(t), float(a), self.nodes)
            if reason:
                return f"axis-cal: {reason}"
        return None

    def _coupler_sweep(self, case, out):
        rows = _read_csv(out / "coupler_sweep.csv", case.seed,
                         "length_mm,p_cross_slow,p_cross_fast")
        reason = checks.sweep_reason([[float(v) for v in r] for r in rows],
                                     checks.expand_range(*case.lengths),
                                     *self._axes(self.ideal))
        return reason and f"coupler-sweep: {reason}"

    def _extinction(self, case, out):
        data = _read_json(out / "extinction.json", case.seed)
        dev = self.lossy
        reason = checks.extinction_reason(
            (data["er_t_db"], data["er_r_db"]), dev["transmittance"],
            *self._axes(dev), dev["length_mm"], decimals=2)
        return reason and f"extinction: {reason}"

    def _tomography(self, case, out):
        rows = _read_csv(out / "fidelities.csv", case.seed,
                         "state,fidelity,converged,iterations")
        if [r[0] for r in rows] != list("HVDARL"):
            return f"tomography: states {[r[0] for r in rows]}"
        for label, fid, converged, iterations in rows:
            data = _read_json(out / f"tomography_{label}.json", case.seed)
            vec = checks.CARDINAL_VECTORS[label]
            reason = (_state_reason(data, label)
                      or checks.fidelity_reason(data["fidelity"], _rho(data),
                                                np.outer(vec, vec.conj())))
            if reason:
                return f"tomography: {label}: {reason}"
            if (float(fid) != data["fidelity"] or converged != "True"
                    or int(iterations) != data["iterations"]):
                return f"tomography: fidelities.csv row {label} != its JSON"
        return None

    def _tomography_records(self, case, out):
        data = _read_json(out / "tomography_records.json", case.seed)
        reason = _state_reason(data, "records")
        if reason or data["fidelity"] is not None:
            return f"tomography-records: {reason or 'fidelity not null'}"
        by = {basis: (float(n0), float(n1)) for basis, n0, n1 in case.records}
        reason = checks.mle_match_reason([by[b] for b in checks.BLOCH_BASES],
                                         _rho(data))
        return reason and f"tomography-records: {reason}"

    def _find_axis(self, case, out):
        data = _read_json(out / "find_axis.json", case.seed)
        echo = (data["alpha_deg"], data["retardance_rad"],
                data["amplitude_transmittance"])
        if echo != (case.alpha_deg, case.retardance_rad, case.transmittance):
            return f"find-axis: echoed inputs {echo}"
        reason = checks.axis_reason(data["recovered_alpha_mod_90_deg"],
                                    case.alpha_deg)
        return reason and f"find-axis: {reason}"


def _same_bytes(name, a: Path, b: Path):
    for artifact in CLI_ARTIFACTS[name]:
        if (a / artifact).read_bytes() != (b / artifact).read_bytes():
            return f"{name}: {artifact} differs between passes"
    return None


def _spawn(ctx: Context, argv, log: Path):
    """One `python -m rpdcsim` process: (seconds, exit code, peak RSS in kB)."""
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rpdcsim", *argv],
                                cwd=ctx.root, env=ctx.env, stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            with deadline(CHILD_TIMEOUT_S):
                _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise
        dt = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss


def cli_campaign(ctx: Context) -> Outcome:
    out = Outcome()
    work = ctx.root / "bench" / "out" / "cli"
    rel = work.relative_to(ctx.root).as_posix()
    passes = (work / "pass1", work / "pass2")
    config_path, records_path = work / "tomography.json", work / "records.csv"
    log = work / "call.log"
    oracle = CliOracle(ctx.root)
    walls = {name: [] for name in CLI_COMMANDS}
    out.extra.update(walls=walls, peak_child_rss_kb=0)
    state = {}

    def run_round(r, counted):
        case = inputs.cli_round(inputs.round_rng(ctx.seed, "cli-campaign", r))
        state["case"] = case
        shutil.rmtree(work, ignore_errors=True)
        for p in passes:
            p.mkdir(parents=True)
        config_path.write_text(json.dumps(
            {"noise": {"counts_per_basis": case.counts_per_basis}}) + "\n")
        records_path.write_text("basis,p0,p1,n0,n1\n" + "".join(
            f"{b},{n0 / (n0 + n1)!r},{n1 / (n0 + n1)!r},{n0},{n1}\n"
            for b, n0, n1 in case.records))
        for k, pass_dir in enumerate(passes):
            commands = cli_commands(case, f"{rel}/{pass_dir.name}",
                                    f"{rel}/{config_path.name}",
                                    f"{rel}/{records_path.name}")
            for name, argv in commands:
                try:
                    dt, code, rss = _spawn(ctx, argv, log)
                except TimeoutError as exc:
                    out.raised(exc, counted)
                    continue
                reason = None
                if code != 0:
                    tail = log.read_text(errors="replace").strip()[-300:]
                    reason = f"{name}: exit {code}: {tail}"
                reason = reason or oracle.reason(name, case, pass_dir)
                if k == 1:
                    reason = reason or _same_bytes(name, passes[0], pass_dir)
                out.op(dt, reason, counted)
                if counted and reason is None:
                    walls[name].append(dt)
                    out.extra["peak_child_rss_kb"] = max(
                        out.extra["peak_child_rss_kb"], rss)
        listed = [sorted(os.listdir(p)) for p in passes]
        out.check(None if listed[0] == listed[1] else
                  f"pass directories hold different files: {listed}")

    # each call is a fresh process, which pays its own set-up: no warm-up
    # round, only one untimed call that caches the CLI's bytecode
    work.mkdir(parents=True, exist_ok=True)
    try:
        _spawn(ctx, ["--help"], log)
    except TimeoutError as exc:
        out.check(f"rpdcsim --help: {exc}")
    run_rounds(ctx, "cli-campaign", run_round, out, warm_up=False)
    if ctx.trace:
        _cli_in_process(ctx, out, oracle, state["case"], passes[0], work)
    return out


def _cli_in_process(ctx, out, oracle, case, reference: Path, work: Path):
    """The last round's six calls through rpdcsim.cli.main, traced."""
    inproc = work / "inproc"
    rel = work.relative_to(ctx.root).as_posix()
    with ctx.tracer:
        for _ in range(CLI_INPROC_PASSES):
            shutil.rmtree(inproc, ignore_errors=True)
            inproc.mkdir()
            for name, argv in cli_commands(case, f"{rel}/inproc",
                                           f"{rel}/tomography.json",
                                           f"{rel}/records.csv"):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        code = ctx.rp.cli.main(argv)
                except Exception as exc:  # counted as a failed operation
                    out.raised(exc)
                    continue
                reason = (None if code == 0 else
                          f"{name} in process: exit {code}: {sink.getvalue()}")
                reason = (reason or oracle.reason(name, case, inproc)
                          or _same_bytes(name, reference, inproc))
                out.op(None, reason)
