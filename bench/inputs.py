"""Seeded inputs of the three workloads.

Round r of a workload draws from numpy's generator seeded with
(seed, workload key, r + 1); the untimed warm-up round is r = -1. The same
seed gives the same inputs, and the program sees only what is drawn here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from checks import FIRST_STATE

WORKLOAD_KEYS = {"cli-campaign": 1, "tomo-mc": 2, "device-char": 3}

TOMO_SETS_PER_ROUND = 200
COUNTS_LOG10 = (1.5, 4.0)           # counts per basis, log-uniform
DEVICES_PER_ROUND = 20
SWEEP_POINTS = 115                  # the README's 0:28.5:0.25 grid size
SWEEP_STEP_MM = 0.25
CAL_LOOKUPS = 5                     # one at a node, the rest anywhere
RETARDANCE_RANGE = (0.3, 2.0 * math.pi - 0.3)


def round_rng(seed: int, workload: str, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_KEYS[workload], r + 1])


def _state(rng, mixed: bool) -> np.ndarray:
    """Haar-random pure state, or a Ginibre-random mixed one."""
    if mixed:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
    else:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = np.outer(v, v.conj())
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


@dataclass(frozen=True)
class TomoSet:
    state: np.ndarray       # true density matrix
    device_index: int       # 0: device_45deg.json, 1: device_45deg_ideal.json
    counts_per_basis: float
    noise_seed: int


def tomo_round(rng) -> list:
    """Half pure and half mixed states, split evenly over the two devices."""
    return [TomoSet(state=_state(rng, mixed=i % 2 == 1),
                    device_index=(i // 2) % 2,
                    counts_per_basis=float(10.0 ** rng.uniform(*COUNTS_LOG10)),
                    noise_seed=int(rng.integers(2 ** 31)))
            for i in range(TOMO_SETS_PER_ROUND)]


@dataclass(frozen=True)
class DeviceCase:
    alpha_deg: float
    k_slow: float
    k_fast: float
    length_mm: float
    bend_length_mm: float
    transmittance: float
    retardance_rad: float
    lengths_mm: tuple       # sweep grid
    thetas_deg: tuple       # calibration lookups

    @property
    def phi_slow(self) -> float:
        return self.k_slow * self.bend_length_mm

    @property
    def phi_fast(self) -> float:
        return self.k_fast * self.bend_length_mm


def device_round(rng, node_thetas) -> list:
    cases = []
    for _ in range(DEVICES_PER_ROUND):
        k_fast = float(rng.uniform(0.05, 0.2))
        z0 = float(rng.uniform(0.0, SWEEP_STEP_MM))
        node = float(node_thetas[rng.integers(len(node_thetas))])
        thetas = [node] + [float(t) for t in rng.uniform(
            node_thetas[0], node_thetas[-1], CAL_LOOKUPS - 1)]
        cases.append(DeviceCase(
            alpha_deg=float(rng.uniform(0.0, 180.0)),
            k_slow=k_fast + float(rng.uniform(0.02, 0.12)),
            k_fast=k_fast,
            length_mm=float(rng.uniform(15.0, 30.0)),
            bend_length_mm=float(rng.uniform(0.0, 8.0)),
            transmittance=float(rng.uniform(0.6, 1.0)),
            retardance_rad=float(rng.uniform(*RETARDANCE_RANGE)),
            lengths_mm=tuple(z0 + SWEEP_STEP_MM * i
                             for i in range(SWEEP_POINTS)),
            thetas_deg=tuple(thetas)))
    return cases


@dataclass(frozen=True)
class CliCase:
    seed: int
    thetas: tuple           # (start, stop, step) for axis-cal
    lengths: tuple          # (start, stop, step) for coupler-sweep
    counts_per_basis: int   # tomography noise, set in a config file
    records: tuple          # ((basis, n0, n1), ...) for tomography --records
    alpha_deg: float        # find-axis
    retardance_rad: float
    transmittance: float


def cli_round(rng) -> CliCase:
    state = _state(rng, mixed=bool(rng.integers(2)))
    records = []
    for basis in ("HV", "DA", "RL"):
        e = FIRST_STATE[basis]
        p0 = min(max(float(np.vdot(e, state @ e).real), 0.0), 1.0)
        n = int(rng.integers(100, 5000))
        n0 = int(rng.binomial(n, p0))
        records.append((basis, n0, n - n0))
    return CliCase(
        seed=int(rng.integers(2 ** 31)),
        thetas=(round(float(rng.uniform(0.0, 5.0)), 3), 175.0,
                round(float(rng.uniform(2.0, 5.0)), 3)),
        lengths=(round(float(rng.uniform(0.0, 0.5)), 3), 28.5,
                 round(float(rng.uniform(0.2, 0.3)), 4)),
        counts_per_basis=int(round(10.0 ** rng.uniform(2.0, 4.0))),
        records=tuple(records),
        alpha_deg=round(float(rng.uniform(0.0, 179.9)), 4),
        retardance_rad=round(float(rng.uniform(*RETARDANCE_RANGE)), 4),
        transmittance=round(float(rng.uniform(0.5, 1.0)), 4))
