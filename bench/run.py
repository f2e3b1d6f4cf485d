"""rpdcsim benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload {cli-campaign,tomo-mc,device-char}
                         --seed N --seconds S --trace {0,1}

Run from the repository root (the script finds it from its own path). The
program is imported from `src/` of that root and nowhere else. With
`--trace 0` the last line of standard output carries the end-to-end
metrics; with `--trace 1` the per-layer ones. A summary goes to standard
error and a run record, with the versions and code identity, to
`bench/results/`. See bench/README.md.
"""

from __future__ import annotations

import os

# one thread per process: set before numpy loads a BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"cli-campaign": workloads.cli_campaign,
             "tomo-mc": workloads.tomo_mc,
             "device-char": workloads.device_char}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # children cache bytecode in src/, as an installed package has it cached
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(workload: str, env: dict) -> float:
    """Median spawn-to-ready time of fresh interpreters; one warm-up first."""
    argv = [sys.executable, str(ROOT / "bench" / "setup_probe.py"),
            *workloads.SETUP_FILES[workload]]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            with workloads.deadline(workloads.CHILD_TIMEOUT_S):
                line = proc.stdout.readline()
        except TimeoutError:
            proc.kill()
            proc.communicate()
            fail("set-up probe did not get ready")
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=workloads.CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe failed (exit {proc.returncode}): "
                 f"{err.strip()[-500:]}")
        if i:
            times.append(ready)
    return statistics.median(times)


def parse_importtime(text: str) -> dict:
    """Import time in ms of rpdcsim, scipy and numpy from -X importtime.

    A package's time is the cumulative time of its outermost entries: those
    not nested inside another entry of the same package. rpdcsim's covers
    everything `import rpdcsim` loads, numpy and scipy included.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(parts[1])))
    totals = {"rpdcsim": 0, "scipy": 0, "numpy": 0}
    ancestors = []
    # -X importtime prints children before their parent; reversed, each
    # entry comes after its ancestors
    for level, name, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and all(a != package for _, a in ancestors):
            totals[package] += cumulative_us
        ancestors.append((level, package))
    return {k: v / 1e3 for k, v in totals.items()}


def measure_imports(env: dict) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", "import rpdcsim"]
    runs = []
    for i in range(IMPORT_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=workloads.CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"import probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def percentile_ms(times, q) -> float:
    return float(np.percentile(times, q)) * 1e3


def end_to_end(workload: str, out, setup_s: float) -> dict:
    times = out.times
    if workload == "cli-campaign":
        rss_kb = out.extra["peak_child_rss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (percentile_ms(times, 50), "ms"),
        "op_p99_ms": (percentile_ms(times, 99), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _median_us(samples) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


def per_layer(out, tracer: Tracer, imports: dict) -> dict:
    s = tracer.stats
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for package in ("rpdcsim", "scipy", "numpy"):
        put(f"import.{package}_ms", imports[package], "ms")
    walls = out.extra.get("walls", {})
    for command in workloads.CLI_COMMANDS:
        samples = walls.get(command, [])
        put(f"cli.{command}.wall_ms",
            statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    put("cli.main.self_ms", s["cli.main"].self_s * 1e3, "ms")

    def calls(name):
        put(f"{name}.calls", s[name].calls, "count")

    def self_s(name):
        put(f"{name}.self_s", s[name].self_s, "s")

    def p50(name):
        put(f"{name}.p50_us", _median_us([k[0] for k in s[name].kept]), "us")

    for name in ("tomography.measure_records",
                 "tomography.project_probabilities",
                 "tomography.mle_reconstruct", "device.port_transfer_matrices",
                 "coupling.coupler_transfer_matrix", "birefringence.find_axis",
                 "birefringence.retarder_jones", "polarization.fidelity",
                 "polarization.stokes_to_density"):
        calls(name)
        self_s(name)
    for name in ("device.axis_port_powers",
                 "birefringence.crossed_polarizer_transmission",
                 "birefringence.axis_from_offset",
                 "polarization.density_to_stokes", "polarization.rotation_deg"):
        calls(name)
    for name in ("tomography.measure_records", "device.extinction_ratios",
                 "device.simulate_axis_check", "birefringence.find_axis",
                 "birefringence.axis_from_offset"):
        p50(name)

    mle = s["tomography.mle_reconstruct"].kept
    kinds = {"interior": [], "boundary": []}
    for dt, records, _ in mle:
        pairs = workloads.record_pairs(records)
        kind = "boundary" if checks.is_boundary(pairs) else "interior"
        kinds[kind].append(dt)
    for kind, samples in kinds.items():
        put(f"tomography.mle_reconstruct.{kind}_p50_us", _median_us(samples),
            "us")
    put("tomography.mle_reconstruct.boundary_calls", len(kinds["boundary"]),
        "count")
    put("tomography.mle_reconstruct.iterations",
        sum(k[2].iterations for k in mle), "count")

    sweep = s["device.sweep_coupling_length"]
    put("device.sweep_coupling_length.points",
        sum(len(k[2]) for k in sweep.kept), "count")
    self_s("device.sweep_coupling_length")
    return m


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    data = dict.fromkeys(ROOT / p for files in workloads.SETUP_FILES.values()
                         for p in files)
    needed = [ROOT / "src" / "rpdcsim" / "__init__.py", *data]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        fail(f"not a checkout of rpdcsim: missing {', '.join(missing)}")
    os.chdir(ROOT)
    env = child_env()

    trace = bool(args.trace)
    setup_s = None if trace else measure_setup(args.workload, env)
    imports = measure_imports(env) if trace else None
    ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                            trace=trace, env=env)
    if args.workload != "cli-campaign" or trace:
        sys.path.insert(0, str(ROOT / "src"))
        ctx.rp = importlib.import_module("rpdcsim")
        if Path(ctx.rp.__file__).resolve().parent != ROOT / "src" / "rpdcsim":
            fail(f"rpdcsim imported from {ctx.rp.__file__}, not {ROOT}/src")
        ctx.tracer = Tracer()

    started = time.perf_counter()
    out = WORKLOADS[args.workload](ctx)
    elapsed = time.perf_counter() - started
    if not out.times:
        fail(f"no operation passed; first failures: {out.reasons}")
    metrics = (per_layer(out, ctx.tracer, imports) if trace
               else end_to_end(args.workload, out, setup_s))
    result = {"correct": out.wrong == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": out.rounds, "elapsed_s": elapsed,
              "timed_ops": len(out.times),
              "op_mean_ms": 1e3 * sum(out.times) / len(out.times),
              "failures": out.reasons,
              "extra": out.extra,
              "environment": environment(), "code": code_identity(),
              "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "result": result}
    results = ROOT / "bench" / "results"
    results.mkdir(exist_ok=True)
    path = results / (f"{args.workload}_seed{args.seed}_trace{args.trace}"
                      ".json")
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {out.attempted} ops in "
          f"{out.rounds} rounds, {out.failed} failed, correct "
          f"{result['correct']}; record {path.relative_to(ROOT)}",
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    for reason in out.reasons:
        print(f"  failure: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
