"""Seeded inputs: sub-grid configs, query point files and truth points.

Everything the program sees is written here, its drawn parts from
`numpy.random.default_rng(seed)`; the seed itself never reaches the
program. Files are written with sorted keys and shortest round-trip floats,
so one seed always gives byte-identical inputs.

A draw must not change the cost of a workload, so that the spread of a
metric across seeds measures the program and not the draw:

* sweep: example2 with the interface at the inlet (gamma = 0, the costliest
  medium, 15.6k IMPES steps) plus one later interface, and a k_lp pair
  mirrored about the middle of its axis. The eight draws need 28.4k-29.9k
  IMPES steps in total.
* train / query: example1 with the corner values of both axes plus the
  interior mu = 12 and beta = 3, a 3 x 3 (mu, beta) sub-grid of 225
  snapshots, the same for every seed. No interior draw kept the cost
  steady: on a 2-vCPU 2.1 GHz Xeon, `offline --n-max 7` took 14.3-21.5 s
  over the interior values 2-12 x 3-5, and even beta = 4 instead of 3 made
  the train pass 11 % slower over ten seeds. The grid keeps the QP
  non-convergence (73-129 of 225 solves unconverged per sweep). The seed
  draws the query points and the landscape target.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

SWEEP_GAMMA_LATE = (0.15, 0.2, 0.4, 0.6)
SWEEP_K_PAIRS = ((0, 4), (1, 3))  # indices into the k_lp axis
EX1_INTERIOR = {"mu": 12.0, "beta": 3.0}
QUERY_TRUTH_COMBOS = 3
QUERY_TRUTH_TIMES = 8
QUERY_POINTS = 2000


def dump_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _axis(raw: dict, name: str) -> list[float]:
    return [float(v) for ax in raw["axes"] if ax["name"] == name for v in ax["values"]]


def _with_axes(raw: dict, values: dict, name: str) -> dict:
    out = copy.deepcopy(raw)
    out["name"] = name
    for ax in out["axes"]:
        ax["values"] = sorted(values[ax["name"]])
    return out


def sweep_config(example2: dict, seed: int) -> dict:
    """example2 on a seed-drawn 2 x 2 (k_lp, gamma) sub-grid; grid,
    physics and the 20 snapshot times stay the preset's."""
    rng = np.random.default_rng([seed, 1])
    k_axis = _axis(example2, "k_lp")
    pair = SWEEP_K_PAIRS[int(rng.integers(len(SWEEP_K_PAIRS)))]
    gamma = float(SWEEP_GAMMA_LATE[int(rng.integers(len(SWEEP_GAMMA_LATE)))])
    values = {"k_lp": [k_axis[i] for i in pair], "gamma": [0.0, gamma]}
    return _with_axes(example2, values, "sweep")


def ex1_subgrid_config(example1: dict, name: str) -> dict:
    """example1 on the 3 x 3 (mu, beta) sub-grid of the corners and EX1_INTERIOR."""
    values = {}
    for axis, interior in EX1_INTERIOR.items():
        full = _axis(example1, axis)
        values[axis] = [full[0], interior, full[-1]]
    return _with_axes(example1, values, name)


def _off_grid(rng, nodes, size) -> np.ndarray:
    """Uniform draws strictly inside [nodes[0], nodes[-1]] and off every node."""
    nodes = np.asarray(nodes, dtype=float)
    out = rng.uniform(nodes[0], nodes[-1], size)
    gap = np.min(np.diff(nodes))
    on_node = np.min(np.abs(out[:, None] - nodes[None, :]), axis=1) < 1e-6 * gap
    out[on_node] += 1e-3 * gap
    return np.clip(out, nodes[0] + 1e-3 * gap, nodes[-1] - 1e-3 * gap)


def query_inputs(train_cfg: dict, seed: int):
    """Off-grid evaluation points for `online` and the truth subset.

    Returns (points, truth_combos, truth_times, target_index_seed): points is
    a list of {"t", "mu", "beta"} objects; the first
    QUERY_TRUTH_COMBOS * QUERY_TRUTH_TIMES of them are the truth points,
    combo-major with ascending times.
    """
    rng = np.random.default_rng([seed, 3])
    times = np.asarray(train_cfg["snapshot_times_yr"], dtype=float)
    mu_nodes, beta_nodes = _axis(train_cfg, "mu"), _axis(train_cfg, "beta")
    truth_combos = [
        {"mu": float(m), "beta": float(b)}
        for m, b in zip(
            _off_grid(rng, mu_nodes, QUERY_TRUTH_COMBOS),
            _off_grid(rng, beta_nodes, QUERY_TRUTH_COMBOS),
        )
    ]
    truth_times = [
        sorted(float(t) for t in _off_grid(rng, times, QUERY_TRUTH_TIMES))
        for _ in truth_combos
    ]
    points = [
        {"t": t, "mu": combo["mu"], "beta": combo["beta"]}
        for combo, ts in zip(truth_combos, truth_times)
        for t in ts
    ]
    rest = QUERY_POINTS - len(points)
    points += [
        {"t": float(t), "mu": float(m), "beta": float(b)}
        for t, m, b in zip(
            _off_grid(rng, times, rest),
            _off_grid(rng, mu_nodes, rest),
            _off_grid(rng, beta_nodes, rest),
        )
    ]
    target = int(rng.integers(1 << 30))
    return points, truth_combos, truth_times, target
