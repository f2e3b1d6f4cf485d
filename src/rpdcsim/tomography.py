"""Single-qubit polarization tomography through a 2-port device.

Measurement model: three two-outcome bases, each realized by a QWP+HWP
pair that maps the basis onto the device axes, followed by the coupler
whose two output ports are both detected.

Wave-plate settings (QWP angle, HWP angle), for a device at alpha = 0:

    HV: ( 0.0,  0.0 )   D/A: ( 45.0, 22.5 )   R/L: ( 0.0, 67.5 )

Light passes the QWP first, then the HWP. For a device rotated to alpha
the HWP angle shifts by alpha/2, which rotates the analyzed pair onto the
device's slow/fast axes. Outcome 0 is the cross port (slow axis), outcome
1 the bar port.

Each outcome's POVM effect is P_slow |s0><s0| + P_fast |s1><s1| for the
basis pair (s0, s1) and its port's `axis_port_powers`; at any plate pair
W, `project_probabilities` builds E = (J W)^dag (J W) from port matrix J.

Reconstruction: linear Stokes inversion (raw differences of the paired
probabilities; may be unphysical on noisy data) and maximum-likelihood
estimation over the Bloch ball. The three bases measure the three Bloch
components independently (s1 = DA, s2 = RL, s3 = HV), so the likelihood
is a product of three binomials and its maximum has a closed form (James,
Kwiat, Munro & White, PRA 64, 052312, 2001): the per-basis estimate
x_i = (a_i - b_i)/(a_i + b_i) when it lies in the ball, otherwise the
point on the sphere fixed by one scalar Lagrange multiplier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._files import check_finite, read_csv
from .device import RpdcDevice, axis_port_powers, port_transfer_matrices
from .polarization import (
    DensityMatrix,
    StokesVector,
    cardinal_state,
    fidelity,
    jones_to_density,
    stokes_to_density,
)
from .birefringence import RotatedRetarder, retarder_jones

BASES = ("HV", "DA", "RL")
BASIS_STATES = {"HV": ("H", "V"), "DA": ("D", "A"), "RL": ("R", "L")}

# (qwp_deg, hwp_deg) mapping each basis pair onto H/V for alpha = 0
BASIS_WAVEPLATES = {"HV": (0.0, 0.0), "DA": (45.0, 22.5), "RL": (0.0, 67.5)}

# basis measuring each Bloch component (s1, s2, s3)
BLOCH_AXES = ("DA", "RL", "HV")

# numpy's Generator.poisson rejects a mean above about 9.22e18 (int64 max
# less ten of its square roots); a port's mean is counts_per_basis times its
# power, at most 1 at transmittance <= 1, so this leaves a factor of 9
MAX_COUNTS_PER_BASIS = 1e18


class MleDivergenceError(RuntimeError):
    """No path raises it now: `mle_reconstruct` always ends. Kept by name."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One basis measurement: both port powers, optional photon counts."""

    basis: str
    p0: float
    p1: float
    counts: tuple = None

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        check_finite(p0=self.p0, p1=self.p1)
        # Python floats, as counts are ints: no numpy scalar reaches the MLE
        object.__setattr__(self, "p0", float(self.p0))
        object.__setattr__(self, "p1", float(self.p1))
        if self.p0 < 0 or self.p1 < 0:
            raise ValueError(f"record powers must be >= 0, got "
                             f"({self.p0}, {self.p1})")
        if self.p0 + self.p1 <= 0:
            raise ValueError("record needs p0 + p1 > 0")
        if self.counts is not None:
            n0, n1 = self.counts
            if not all(abs(n) < math.inf and n == int(n) and
                       0 <= n <= sys.float_info.max for n in (n0, n1)):
                raise ValueError(f"counts must be non-negative integers, "
                                 f"got {self.counts!r}")
            object.__setattr__(self, "counts", (int(n0), int(n1)))

    @property
    def weights(self) -> tuple:
        """Likelihood weights: counts when present, else the powers."""
        if self.counts is not None:
            return (float(self.counts[0]), float(self.counts[1]))
        return (self.p0, self.p1)


@dataclass(frozen=True)
class NoiseConfig:
    """counts_per_basis = None keeps records noiseless (the default);
    otherwise it is a number in (0, MAX_COUNTS_PER_BASIS].

    seed, an integer >= 0, seeds the one generator of a record set.
    """

    counts_per_basis: float = None
    seed: int = 0

    def __post_init__(self):
        # numpy's default_rng(None) draws fresh OS entropy; bool is no seed
        if not (isinstance(self.seed, (int, np.integer))
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, "
                             f"got {self.seed!r}")
        if self.counts_per_basis is not None and not (
                0 < self.counts_per_basis <= MAX_COUNTS_PER_BASIS):
            raise ValueError(f"counts_per_basis must be a finite number > 0 "
                             f"and <= {MAX_COUNTS_PER_BASIS:g} (numpy's "
                             f"Poisson limit) or None, got "
                             f"{self.counts_per_basis!r}")


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction output; iterations counts multiplier steps.

    log_likelihood is -inf both for an outcome of positive weight and zero
    probability and for a finite value below -sys.float_info.max.
    """

    rho: DensityMatrix
    stokes: StokesVector
    log_likelihood: float
    iterations: int
    converged: bool  # True on every result

    @property
    def physical(self) -> bool:
        return self.rho.is_physical()


def waveplate_settings(basis: str, device_alpha_deg: float = 0.0) -> tuple:
    """(qwp_deg, hwp_deg) mapping `basis` onto a device at the given alpha."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    qwp, hwp = BASIS_WAVEPLATES[basis]
    return qwp, (hwp + device_alpha_deg / 2.0) % 180.0


def _waveplate_operator(qwp_deg: float, hwp_deg: float) -> np.ndarray:
    qwp = retarder_jones(RotatedRetarder(qwp_deg % 180.0, math.pi / 2))
    hwp = retarder_jones(RotatedRetarder(hwp_deg % 180.0, math.pi))
    return hwp @ qwp


def _effects(j: np.ndarray, settings: tuple) -> np.ndarray:
    """Effects (J W)^dag (J W) of the stacked port matrices J, plates W."""
    jw = j @ _waveplate_operator(*settings)
    return jw.conj().swapaxes(-1, -2) @ jw


def povm_effects(device: RpdcDevice) -> np.ndarray:
    """Effects through `device`, shape (3, 2, 2, 2): basis, outcome, 2x2.

    The plates turn basis b's pair (s0, s1) = BASIS_STATES[b] onto the
    device axes, where both ports are diagonal, so its effects are
    P_t_slow |s0><s0| + P_t_fast |s1><s1| and the same with P_r, for P =
    `axis_port_powers(device)`: retardance and coupler phases cancel.
    Built in that closed form on each call; no Jones matrix is formed.
    """
    p = axis_port_powers(device)
    pairs = np.array([[cardinal_density(s).matrix for s in BASIS_STATES[b]]
                      for b in BASES])
    slow, fast = pairs[:, 0], pairs[:, 1]
    return np.stack([p.t_slow * slow + p.t_fast * fast,
                     p.r_slow * slow + p.r_fast * fast], axis=1)


def project_probabilities(rho: DensityMatrix, device: RpdcDevice,
                          settings: tuple) -> tuple:
    """Port powers (p0, p1) for a state analyzed at one plate setting.

    p0 is the cross-port power, p1 the bar-port power; for a lossless
    ideal device these are the Born probabilities of the analyzed basis.
    Any setting is allowed, so its Jones effects are built on each call.
    """
    effects = _effects(port_transfer_matrices(device), settings)
    p0, p1 = np.einsum("...ij,ji->...", effects, rho.matrix).real.tolist()
    return max(p0, 0.0), max(p1, 0.0)


def measure_records(state: DensityMatrix, device: RpdcDevice,
                    noise: NoiseConfig = None) -> tuple:
    """Simulate the full three-basis measurement of one state.

    With counting noise enabled, each port's count is Poisson with mean
    counts_per_basis times the port power. All six counts come from one
    generator, `np.random.default_rng(noise.seed)`, drawn in the order HV
    n0, HV n1, DA n0, DA n1, RL n0, RL n1; the record powers become
    frequencies.

    A basis's powers are q P_t_slow + (1 - q) P_t_fast and the same with
    P_r (`povm_effects`), each clamped at 0, for q = <s0|rho|s0>: 1/2 + h3,
    1/2 + h1 and 1/2 + h2 in the state's half Bloch vector h.
    """
    p = axis_port_powers(device)
    h1, h2, h3 = state._h
    powers = [(max(q * p.t_slow + (1.0 - q) * p.t_fast, 0.0),
               max(q * p.r_slow + (1.0 - q) * p.r_fast, 0.0))
              for q in (0.5 + h3, 0.5 + h1, 0.5 + h2)]
    if noise is None or noise.counts_per_basis is None:
        return tuple(MeasurementRecord(basis, p0, p1)
                     for basis, (p0, p1) in zip(BASES, powers))
    rng = np.random.default_rng(noise.seed)
    records = []
    for basis, (p0, p1) in zip(BASES, powers):
        # scalar draws: the same stream as one poisson call on the six
        # means, at less than half its overhead
        n0 = int(rng.poisson(noise.counts_per_basis * p0))
        n1 = int(rng.poisson(noise.counts_per_basis * p1))
        total = n0 + n1
        if total == 0:
            raise ValueError(
                f"basis {basis}: zero total counts at rate "
                f"{noise.counts_per_basis}; raise counts_per_basis")
        records.append(MeasurementRecord(basis, n0 / total, n1 / total,
                                         counts=(n0, n1)))
    return tuple(records)


def _bloch_records(records) -> tuple:
    """The one record of each basis, in BLOCH_AXES order: s1, s2, s3."""
    by_basis = {}
    for rec in records:
        if rec.basis in by_basis:
            raise ValueError(f"duplicate record for basis {rec.basis}")
        by_basis[rec.basis] = rec
    missing = [b for b in BASES if b not in by_basis]
    if missing:
        raise ValueError(f"missing record for basis: {', '.join(missing)}")
    return tuple(by_basis[basis] for basis in BLOCH_AXES)


def _frequencies(pairs) -> list:
    """(p_a, p_b, n) of each basis's weights (a, b): the frequencies p/n.

    p_a, p_b and n are a, b and a + b, or their quarters where a + b is
    past the float range.
    """
    return [(a, b, a + b) if a + b < math.inf else
            (0.25 * a, 0.25 * b, 0.25 * a + 0.25 * b) for a, b in pairs]


def _log_likelihood(pairs, probs) -> float:
    """sum a log(p_a/n) + b log(p_b/n), weights (a, b), probs (p_a, p_b, n).

    0 log 0 = 0; -inf if an outcome with positive weight has p <= 0. With
    q = p_small/n, the more probable outcome's log is log1p(-q), so its
    term stays when its frequency rounds to 1, and the other's is log q.
    Where q is below the normal range, and so has lost digits or rounded
    to 0, the two terms are -(w_large/n) p_small and
    w_small (log p_small - log n), so neither is lost.
    """
    ll = 0.0
    for (a, b), (p_a, p_b, n) in zip(pairs, probs):
        if a == 0.0 and b == 0.0:
            continue
        if p_a < p_b:
            a, b, p_a, p_b = b, a, p_b, p_a
        if (a != 0.0 and p_a <= 0.0) or (b != 0.0 and p_b <= 0.0):
            return -math.inf
        q = p_b / n
        normal = q >= sys.float_info.min
        if a != 0.0:
            ll += a * math.log1p(-q) if normal else -(a / n) * p_b
        if b != 0.0:
            ll += b * (math.log(q) if normal
                       else math.log(p_b) - math.log(n))
    return ll


def _result(stokes, log_likelihood, iterations) -> TomographyResult:
    return TomographyResult(rho=stokes_to_density(stokes), stokes=stokes,
                            log_likelihood=log_likelihood,
                            iterations=iterations, converged=True)


def linear_reconstruct(records) -> TomographyResult:
    """Direct Stokes inversion of one complete record set.

    s0 is the summed H/V power and s1, s2, s3 the raw paired differences;
    rho follows by the Pauli expansion. Noisy data can land outside the
    Bloch ball; the result is returned as-is (check `.physical`) and the
    reported Stokes vector keeps the raw measured powers. The
    log-likelihood is that of each basis's own frequencies, the linear
    estimate whenever every basis carries the same total power. HV powers
    whose sum s0 is past the float range are rejected, naming the basis
    and its powers; `mle_reconstruct` solves such records.
    """
    ordered = _bloch_records(records)
    hv = ordered[BLOCH_AXES.index("HV")]
    s0 = hv.p0 + hv.p1
    if s0 == math.inf:
        raise ValueError(f"basis HV: powers {hv.p0} and {hv.p1} sum past the "
                         "float range, so s0 is not finite")
    stokes = StokesVector(s0, *(r.p0 - r.p1 for r in ordered))
    pairs = [r.weights for r in ordered]
    return _result(stokes, _log_likelihood(pairs, _frequencies(pairs)), 0)


def _axis_root(w: float, n: float, lam: float, u: float) -> float:
    """Distance u in [0, 1] to its end of one axis's minimizer x = 1 - u.

    With weights L >= w, n = L + w, and +1 the end L favours, x minimizes
    -L log(1+x) - w log(1-x) + lam x^2 on [-1, 1]. Inside, u is the one
    root in [0, 1] of h(u) = u (n - 2 lam (1 - u)(2 - u)) - 2w, the
    stationarity condition times u (2 - u), to full relative precision;
    h(0) = -2w <= 0 <= n - 2w = h(1). While 2 lam <= n, h and its slope are
    expanded, as the product loses 3u below u ~ eps; else the root is over
    0.38, and the product keeps u = 1 exact. Newton from the warm start `u`
    (1 if u <= 0, a spurious root for w = 0), in the sign bracket, which it
    bisects on a log scale (at most 64 times), stops at h = 0, at a step
    within 4 eps u, or once no float is strictly inside the bracket. h is
    convex with a concave slope, so Newton from left of the root crosses
    it, and from the right at least halves the distance: fewer than
    117 - log2(u) < 1,200 steps. With w = 0, u = 0 while lam <= n/4.
    """
    if w == 0.0 and lam <= 0.25 * n:
        return 0.0
    lo, hi = 0.0, 1.0
    if not u > 0.0:
        u = 1.0
    while True:
        h = u * ((n - 4.0 * lam) + 2.0 * lam * u * (3.0 - u) if 2.0 * lam <= n
                 else n - 2.0 * lam * (1.0 - u) * (2.0 - u)) - 2.0 * w
        if h == 0.0:
            return u
        if h < 0.0:
            lo = u
        else:
            hi = u
        slope = (n - 4.0 * lam) + 6.0 * lam * u * (2.0 - u)
        nxt = u - h / slope if slope > 0.0 else math.nan
        if abs(nxt - u) <= 4.0 * sys.float_info.epsilon * u:
            return nxt
        if not lo < nxt < hi:
            nxt = math.sqrt(max(lo, 5e-324)) * math.sqrt(hi)
            if not lo < nxt < hi:  # bracket down to adjacent floats
                return u
        u = nxt


def mle_reconstruct(records) -> TomographyResult:
    """Maximum-likelihood density matrix for one complete record set.

    With a_i, b_i the outcome weights of the basis measuring Bloch
    component i, the likelihood factorizes over the three components.
    Interior case: if x_i = (a_i - b_i)/(a_i + b_i) lies in the Bloch ball
    it is the MLE, reached in 0 iterations. Boundary case: the optimum is
    on the sphere at x_i(lambda), the minimizer of the i-th term plus
    lambda x_i^2, where sum x_i(lambda)^2 = 1; that sum decreases in
    lambda > 0, so one scalar root-find fixes the multiplier: Newton, or
    log-scale bisection of its bracket [lo, hi] where Newton leaves it or
    steps over half the last step. It stops once no float is inside the
    bracket, or once phi = sum x_i^2 - 1 = (1 - b)^2 + (1 - c)^2 - a (2 - a),
    for the sorted u_i a <= b <= c, is within its rounding 16 eps (a (2 - a)
    + (1 - b^2) + (1 - c^2) + eps), as x_i = 1 - u_i is off by up to eps u_i;
    with hi/lo < 2**2074, 65 bisections close the bracket. A Newton step is
    at most half the last and over 2**-53 lo, so the first step and each
    bisection start runs under 54 + log2(hi/lo) steps, halving at each
    bisection: fewer than 66 * 54 + 3 * 2074 < 9,800 steps in all. Each axis
    solves for u_i = 1 - |x_i|, its distance to the end its larger weight
    favours, exact where x_i rounds to +-1. The converged iterate
    x_i = +-(1 - u_i), pulled into the ball, is the answer; the
    log-likelihood is the iterate's, of outcome probabilities (2 - u_i)/2
    and u_i/2. The boundary case first scales all six weights by the power
    of four that centres their magnitudes on 1, as far as the float range
    allows; this moves every iterate exactly, so the state does not depend
    on it. `log_likelihood` is -inf for an outcome of positive weight and
    zero probability, and for a finite value below -sys.float_info.max.

    Raises:
        ValueError: a basis has both outcome weights zero, which leaves its
            Bloch component unidentified; or, off the interior, a basis's
            weights are lost in the scale.
    """
    pairs = [r.weights for r in _bloch_records(records)]
    for basis, (a, b) in zip(BLOCH_AXES, pairs):
        if a + b <= 0.0:
            raise ValueError(f"basis {basis}: both outcome weights are "
                             f"zero, so its Bloch component is unidentified")
    freqs = _frequencies(pairs)
    x = [(p_a - p_b) / n for p_a, p_b, n in freqs]
    r2 = sum(v * v for v in x)
    if r2 <= 1.0:
        # interior: the per-basis frequencies are the MLE
        return _result(StokesVector(1.0, *x), _log_likelihood(pairs, freqs), 0)

    # scale by the 4^k that centres the binary exponents of each basis's
    # larger weight on 2^0, with no basis sum past 2^1000 (which would
    # overflow the bracket below and the cubic of `_axis_root`) and 4^k
    # finite. A power of four scales every iterate exactly
    e_min, _, e_max = sorted(math.frexp(max(a, b))[1] for a, b in pairs)
    scale = 4.0 ** min(-(e_max + e_min) // 4, (999 - e_max) // 2, 511)
    # each axis solves for u_i = 1 - |x_i|, its distance to the end +-1 that
    # its larger weight favours (x_i's sign); weights become (larger, smaller)
    # and u_i starts from its exact value 2 smaller / (larger + smaller)
    pairs = [(max(a, b) * scale, min(a, b) * scale) for a, b in pairs]
    if not all(a + b > 0.0 for a, b in pairs):
        raise ValueError("a basis's outcome weights are lost in the scale for "
                         "another's, more than the float range apart")
    u = [2.0 * w / (big + w) for big, w in pairs]

    # phi(lam) = sum x_i(lam)^2 - 1 is bracketed by [lo, hi]. phi falls by at
    # most 16 r2 / min_i(a_i + b_i) per unit lam, from phi(0) = r2 - 1, so
    # it is still positive below lo; |x_i(lam)| < (a_i + b_i)/(2 lam) makes
    # phi(hi) < 0. Both ends scale with the weights, as the scale needs
    lo = max((r2 - 1.0) / r2 * min(a + b for a, b in pairs) / 16.0, 5e-324)
    lam, hi = 0.0, 0.5 * math.hypot(*(a + b for a, b in pairs))
    last = math.inf  # length of the latest step
    steps = 0
    eps = sys.float_info.epsilon
    while True:
        a, b, c = sorted(u)  # phi around the axis nearest its end
        phi = (1.0 - b) ** 2 + (1.0 - c) ** 2 - a * (2.0 - a)
        if abs(phi) <= 16.0 * eps * (a * (2.0 - a) + (1.0 - b * b)
                                     + (1.0 - c * c) + eps):
            break
        if phi > 0.0:
            lo = max(lo, lam)
        else:
            hi = lam
        # dphi/dlam = -sum 4 x_i^2 / (L_i/(2-u_i)^2 + w_i/u_i^2 + 2 lam), w/u/u
        # as u^2 can underflow; an axis pinned at its end is locally constant
        # in lam, and a flat slope falls back to bisection
        slope = -sum(4.0 * (1.0 - v) ** 2 / (big / (2.0 - v) ** 2
                                             + w / v / v + 2.0 * lam)
                     for (big, w), v in zip(pairs, u) if v > 0.0)
        nxt = lam - phi / slope if slope < 0.0 else math.nan
        if not (lo < nxt < hi and abs(nxt - lam) <= 0.5 * last):
            # bisect, on a log scale, when Newton leaves the bracket or its
            # step is over half the last one, as in rtsafe (Press et al.,
            # Numerical Recipes, sec. 9.4): where a small axis's x_i ~ 1/lam
            # sets the slope, Newton only creeps up by lam/2 a step
            nxt = math.sqrt(lo) * math.sqrt(hi)
            if not lo < nxt < hi:  # bracket down to adjacent floats
                break
        steps += 1
        last = abs(nxt - lam)
        lam = nxt
        u = [_axis_root(w, big + w, lam, v) for (big, w), v in zip(pairs, u)]

    ll = _log_likelihood(pairs, [(2.0 - v, v, 2.0) for v in u])
    r = math.sqrt(1.0 + max(phi, 0.0))  # into the ball; 0.0 + v is never -0.0
    x = [0.0 + math.copysign(1.0 - v, s) / r for v, s in zip(u, x)]
    return _result(StokesVector(1.0, *x), ll / scale, steps)


def run_tomography_experiment(true_state: DensityMatrix, device: RpdcDevice,
                              noise: NoiseConfig = None) -> tuple:
    """Measure, reconstruct by MLE, and score against the true state."""
    records = measure_records(true_state, device, noise)
    result = mle_reconstruct(records)
    return fidelity(result.rho, true_state), result


def cardinal_density(label: str) -> DensityMatrix:
    return jones_to_density(cardinal_state(label))


def load_measurement_csv(path) -> tuple:
    """Read records from `basis,p0,p1` CSV (optional n0,n1 columns)."""
    def record(basis, p0, p1, *counts):
        return MeasurementRecord(basis, float(p0), float(p1),
                                 tuple(map(int, counts)) or None)

    return read_csv(path, [("basis", "p0", "p1"),
                           ("basis", "p0", "p1", "n0", "n1")], record)


def save_measurement_csv(records, path, header_comment: str = "") -> None:
    """Write `basis,p0,p1` CSV, with n0,n1 if every record has counts."""
    without = [r.basis for r in records if r.counts is None]
    if 0 < len(without) < len(records):
        raise ValueError(f"basis {without[0]}: no counts, unlike the others")
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("basis,p0,p1" if without else "basis,p0,p1,n0,n1")
    for r in records:
        row = f"{r.basis},{r.p0!r},{r.p1!r}"
        if r.counts is not None:
            row += f",{r.counts[0]},{r.counts[1]}"
        lines.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def result_to_dict(result: TomographyResult, fidelity_value=None) -> dict:
    """JSON-ready reconstruction report (rho row-major as [re, im] pairs)."""
    rho = [[float(z.real), float(z.imag)] for z in result.rho.matrix.ravel()]
    return {
        "rho": rho,
        "stokes": list(result.stokes.as_tuple()),
        "fidelity": (None if fidelity_value is None else float(fidelity_value)),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }
