"""Independent oracles for the benchmark's output checks.

Nothing here imports rpdcsim: every expected value is recomputed from the
generating parameters with numpy and math, from closed forms or from
properties the output must have. Each checker returns None when the output
passes and a short reason string when it does not, so a caller can count
the operation as failed and report why.
"""

from __future__ import annotations

import math

import numpy as np

# Bloch component i is measured by basis BLOCH_BASES[i]; outcome 0 of each
# basis is its first state (H, D, R)
BLOCH_BASES = ("DA", "RL", "HV")
FIRST_STATE = {
    "HV": np.array([1.0, 0.0], dtype=complex),
    "DA": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "RL": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}
CARDINAL_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}
INPUT_ANGLES = {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}
POWER_CLAMP = 1e-15

# tolerances, each far above float rounding of the quantity checked and far
# below the smallest perturbation the checker must reject (bench/test_checks.py)
STATE_TOL = 1e-12       # Hermiticity, trace, interior Bloch vector
PSD_TOL = 1e-10         # most negative eigenvalue allowed
SPHERE_TOL = 1e-9       # | |r| - 1 | of a boundary solution
KKT_TOL = 1e-9          # stationarity residual over the size of its terms
NLL_EPS = 1e-12         # relative likelihood error a solver may leave
FIDELITY_TOL = 3e-7     # closed-form fidelity: sqrt of a rounded 0 eigenvalue
MLE_TOL = 1e-9          # Bloch vector against the bisection MLE
POWER_TOL = 1e-12       # port and sweep powers
POWER_ERR = 1e-15       # rounding of a computed port power, for dB ratios
AXIS_TOL_DEG = 0.01     # recovered axis, and the calibration law
NODE_TOL_DEG = 1e-12    # calibration lookups at the nodes


def rho_reason(rho) -> str | None:
    """Hermitian, unit trace, positive semidefinite."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) or not np.all(np.isfinite(rho)):
        return f"rho is not a finite 2x2 matrix: {rho!r}"
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        return "rho is not Hermitian"
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        return f"trace(rho) = {np.trace(rho)!r}"
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -PSD_TOL:
        return f"rho has eigenvalue {low!r}"
    return None


def bloch_of(rho) -> np.ndarray:
    """(s1, s2, s3) of rho = (I + s1 X + s2 Y + s3 Z)/2."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def linear_bloch(pairs) -> np.ndarray:
    """Per-basis estimates (a_i - b_i)/(a_i + b_i)."""
    return np.array([(a - b) / (a + b) for a, b in pairs])


def is_boundary(pairs) -> bool:
    x = linear_bloch(pairs)
    return float(x @ x) > 1.0


def _nll(pairs, x) -> float:
    total = 0.0
    for (a, b), v in zip(pairs, x):
        for w, q in ((a, 0.5 * (1.0 + v)), (b, 0.5 * (1.0 - v))):
            if w > 0.0:
                total -= w * math.log(q) if q > 0.0 else -math.inf
    return total


def kkt_reason(pairs, x) -> str | None:
    """x on the unit sphere with a/(1+x) - b/(1-x) = 2 lam x for one lam > 0.

    Axes pinned at +-1 (the far outcome has zero weight) meet the
    inequality form instead: lam <= (near weight)/4. A solver is exact in
    the likelihood to rounding, which leaves x uncertain by about
    sqrt(eps NLL / H) along an axis of curvature H; each axis's residual
    may be that uncertainty times H, plus KKT_TOL of the terms' size.
    """
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(float(x @ x))
    if abs(norm - 1.0) > SPHERE_TOL:
        return f"boundary solution has |r| = {norm!r}"
    nll = _nll(pairs, x)
    if not math.isfinite(nll):
        return "an outcome with weight has probability 0"
    lam_lo, lam_hi = 0.0, math.inf  # bounds on 2 lam
    for (a, b), v in zip(pairs, x):
        if (b if v > 0 else a) == 0.0 and abs(v) >= 1.0 - 1e-12:
            lam_hi = min(lam_hi, 0.5 * (a + b) * (1.0 + KKT_TOL))
            continue
        p, q = a / (1.0 + v), b / (1.0 - v)
        curvature = p / (1.0 + v) + q / (1.0 - v)
        tol = KKT_TOL * (p + q) + math.sqrt(
            NLL_EPS * (1.0 + nll) * curvature)
        if v == 0.0:
            if abs(p - q) > tol:
                return f"stationarity fails at x = 0: {p - q!r}"
            continue
        ends = sorted(((p - q - tol) / v, (p - q + tol) / v))
        lam_lo, lam_hi = max(lam_lo, ends[0]), min(lam_hi, ends[1])
    if not (lam_lo <= lam_hi and lam_hi > 0.0):
        return (f"no multiplier lam > 0 meets a/(1+x) - b/(1-x) = 2 lam x "
                f"on every axis (x = {x})")
    return None


def mle_reason(pairs, rho) -> str | None:
    """rho is the maximum-likelihood state of three binomial bases."""
    bad = rho_reason(rho)
    if bad:
        return bad
    x = bloch_of(rho)
    if not is_boundary(pairs):
        want = linear_bloch(pairs)
        err = float(np.abs(x - want).max())
        if err > STATE_TOL:
            return f"interior Bloch vector {x} != per-basis estimate {want}"
        return None
    return kkt_reason(pairs, x)


def _axis_minimizer(a: float, b: float, lam: float) -> float:
    """argmin over [-1, 1] of -a log(1+x) - b log(1-x) + lam x^2 (bisection)."""
    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if a / (1.0 + mid) - b / (1.0 - mid) - 2.0 * lam * mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_mle(pairs) -> np.ndarray:
    """Bloch vector of the three-binomial MLE by nested bisection.

    Slow and plain on purpose: the oracle for the program's Newton solver.
    """
    x = linear_bloch(pairs)
    if float(x @ x) <= 1.0:
        return x
    lo, hi = 0.0, float(sum(a + b for a, b in pairs))
    for _ in range(400):
        mid = math.sqrt(lo * hi) if lo > 0.0 else hi / 1024.0
        if mid in (lo, hi):
            break
        r2 = sum(_axis_minimizer(a, b, mid) ** 2 for a, b in pairs)
        if r2 > 1.0:
            lo = mid
        else:
            hi = mid
    lam = math.sqrt(lo * hi) if lo > 0.0 else hi
    return np.array([_axis_minimizer(a, b, lam) for a, b in pairs])


def mle_match_reason(pairs, rho) -> str | None:
    """rho equals the bisection MLE of `pairs`.

    Along each axis x may differ by the uncertainty sqrt(eps NLL / H) that
    an answer exact in likelihood to rounding leaves (see kkt_reason).
    """
    bad = rho_reason(rho)
    if bad:
        return bad
    x, want = bloch_of(rho), bisection_mle(pairs)
    nll = _nll(pairs, want)
    for (a, b), got, v in zip(pairs, x, want):
        curvature = ((a / (1.0 + v) ** 2 if a else 0.0)
                     + (b / (1.0 - v) ** 2 if b else 0.0))
        tol = MLE_TOL + math.sqrt(NLL_EPS * (1.0 + nll) / curvature)
        if not abs(got - v) <= tol:
            return f"Bloch vector {x} != bisection MLE {want}"
    return None


def closed_form_fidelity(rho, sigma) -> float:
    """Qubit fidelity tr(rho sigma) + 2 sqrt(det rho det sigma)."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    overlap = float(np.trace(rho @ sigma).real)
    dets = max(float(np.linalg.det(rho).real), 0.0) * max(
        float(np.linalg.det(sigma).real), 0.0)
    return overlap + 2.0 * math.sqrt(dets)


def fidelity_reason(value, rho, sigma) -> str | None:
    want = closed_form_fidelity(rho, sigma)
    if not abs(value - want) <= FIDELITY_TOL:
        return f"fidelity {value!r} != closed form {want!r}"
    return None


def noiseless_record_reason(basis, p0, p1, transmittance, state=None,
                            ideal=False) -> str | None:
    """p0 + p1 = t^2; on an ideal device p0 is the Born probability."""
    t2 = transmittance ** 2
    if abs(p0 + p1 - t2) > POWER_TOL:
        return f"{basis}: p0 + p1 = {p0 + p1!r} != t^2 = {t2!r}"
    if ideal:
        e = FIRST_STATE[basis]
        born = abs(np.vdot(e, state)) ** 2 / float(np.vdot(state, state).real)
        if abs(p0 - born) > POWER_TOL:
            return f"{basis}: p0 = {p0!r} != Born probability {born!r}"
    return None


def axis_reason(found_deg, true_deg) -> str | None:
    """Recovered axis within AXIS_TOL_DEG of the true one, mod 90."""
    d = (found_deg - true_deg) % 90.0
    err = min(d, 90.0 - d)
    if not err <= AXIS_TOL_DEG:
        return f"axis {found_deg!r} is {err:.3g} deg from {true_deg % 90.0!r}"
    return None


def cross_powers(k, phase, z) -> np.ndarray:
    """Cross-port power sin^2(K z + phi) of one axis."""
    return np.sin(k * np.asarray(z, dtype=float) + phase) ** 2


def sweep_reason(rows, lengths, k_slow, phi_slow, k_fast,
                 phi_fast) -> str | None:
    """rows[i] = (z, t_slow, t_fast[, r_slow, r_fast]) at lengths[i].

    Cross ports follow sin^2(K z + phi) per axis, bar ports cos^2.
    """
    rows = np.asarray(rows, dtype=float)
    z = np.asarray(lengths, dtype=float)
    if rows.shape[0] != z.shape[0]:
        return f"{rows.shape[0]} sweep rows for {z.shape[0]} lengths"
    if not np.array_equal(rows[:, 0], z):
        return "sweep lengths differ from the requested grid"
    ts = cross_powers(k_slow, phi_slow, z)
    tf = cross_powers(k_fast, phi_fast, z)
    want = [ts, tf, 1.0 - ts, 1.0 - tf][: rows.shape[1] - 1]
    err = max(float(np.abs(rows[:, i + 1] - w).max())
              for i, w in enumerate(want))
    if not err <= POWER_TOL:
        return f"sweep powers off sin^2/cos^2 by {err:.3g}"
    return None


def axis_port_powers(t, k_slow, phi_slow, k_fast, phi_fast, length) -> tuple:
    """(T slow, T fast, R slow, R fast): t^2 sin^2 (cross), t^2 cos^2 (bar)."""
    s = float(cross_powers(k_slow, phi_slow, length))
    f = float(cross_powers(k_fast, phi_fast, length))
    t2 = t * t
    return t2 * s, t2 * f, t2 * (1.0 - s), t2 * (1.0 - f)


def extinction_reason(ers, t, k_slow, phi_slow, k_fast, phi_fast, length,
                      decimals=None) -> str | None:
    """Extinction ratios against the closed form.

    A power of order 1 computed through Jones products is off by up to
    POWER_ERR, so each ratio may lie anywhere that powers within POWER_ERR
    of the closed form, clamped, give it. With `decimals`, the program
    rounded its values.
    """
    ts, tf, rs, rf = axis_port_powers(t, k_slow, phi_slow, k_fast, phi_fast,
                                      length)
    slack = 1e-9 + (0.5 * 10.0 ** -decimals if decimals is not None else 0.0)
    for name, got, num, den in (("ER_T", ers[0], tf, ts),
                                ("ER_R", ers[1], rf, rs)):
        lo = 10.0 * math.log10(max(num - POWER_ERR, POWER_CLAMP)
                               / max(den + POWER_ERR, POWER_CLAMP))
        hi = 10.0 * math.log10(max(num + POWER_ERR, POWER_CLAMP)
                               / max(den - POWER_ERR, POWER_CLAMP))
        least = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        most = max(abs(lo), abs(hi))
        if not least - slack <= got <= most + slack:
            return (f"{name} {got!r} dB outside the closed form's "
                    f"[{least!r}, {most!r}] dB")
    return None


def axis_check_visibility(input_label, alpha_deg, retardance_rad) -> float:
    psi = math.radians(INPUT_ANGLES[input_label] - alpha_deg)
    return 1.0 - 2.0 * math.sin(2.0 * psi) ** 2 * math.cos(
        0.5 * retardance_rad) ** 2


def visibility_reason(value, input_label, alpha_deg,
                      retardance_rad) -> str | None:
    want = axis_check_visibility(input_label, alpha_deg, retardance_rad)
    if not abs(value - want) <= POWER_TOL:
        return f"{input_label}: visibility {value!r} != {want!r}"
    return None


def calibration_law(theta_deg) -> float:
    """The law the shipped calibration table samples."""
    return theta_deg - 10.0 * math.sin(math.radians(2.0 * theta_deg))


def calibration_reason(theta, alpha, nodes) -> str | None:
    """A lookup: exact at nodes, bracketed by its nodes, near the law.

    `nodes` is the (theta, alpha) table as read from the calibration CSV.
    """
    thetas = [t for t, _ in nodes]
    i = int(np.searchsorted(thetas, theta))
    if i < len(nodes) and nodes[i][0] == theta:
        if abs(alpha - nodes[i][1]) > NODE_TOL_DEG:
            return f"alpha({theta!r}) = {alpha!r}, node value {nodes[i][1]!r}"
        return None
    if not 0 < i < len(nodes):
        return f"theta {theta!r} outside the table"
    a0, a1 = nodes[i - 1][1], nodes[i][1]
    if not min(a0, a1) <= alpha <= max(a0, a1):
        return f"alpha({theta!r}) = {alpha!r} outside [{a0}, {a1}]"
    err = abs(alpha - calibration_law(theta))
    if not err <= AXIS_TOL_DEG:
        return f"alpha({theta!r}) = {alpha!r} is {err:.3g} deg off the law"
    return None


def read_calibration(path) -> list:
    """(theta, alpha) rows of a `theta_deg,alpha_deg` CSV."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("theta"):
                continue
            t, a = line.split(",")
            rows.append((float(t), float(a)))
    return rows


def expand_range(start, stop, step) -> list:
    """The CLI's inclusive start:stop:step grid, recomputed."""
    out, i = [], 0
    while start + i * step <= stop + 1e-12:
        out.append(start + i * step)
        i += 1
    return out
