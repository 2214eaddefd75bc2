"""The chain from icdf to online against Buckley-Leverett snapshots.

With the front inside the domain, the self-similar Buckley-Leverett
solution is s(x, tau) = S(x / tau) in the injected volume tau. So every
snapshot's icdf is tau times one fixed icdf, and the family lies on one W2
segment: two atoms, the first and the last snapshot, span it, while the
linear POD needs nearly a mode per snapshot. The snapshots are analytic
cell averages (`oracles.buckley_leverett`), built in memory; no simulation
runs.
"""

import numpy as np
import pytest

from baryrom import flow, greedy, online, pod, transport
from oracles import buckley_leverett

N_CELLS = 1002
SAMPLES = 16  # per cell, for the cell averages
POROSITY = 0.1
FLUIDS = flow.FluidParams(0.003, 0.003, 2.0)
DX_KM = 1.0 / N_CELLS


def x_samples_m():
    return (np.arange(N_CELLS * SAMPLES) + 0.5) * DX_KM / SAMPLES * flow.METERS_PER_KM


def largest_volume_m():
    """The injected volume that puts the front at 90 % of the domain; the
    front moves linearly in the volume."""
    x_m = x_samples_m()
    front_m = x_m[np.flatnonzero(buckley_leverett(x_m, 1.0, POROSITY, FLUIDS))[-1]]
    return 0.9 * flow.METERS_PER_KM / front_m


def snapshots(volumes_m):
    """(K, N) analytic cell averages at the injected volumes [m]."""
    x_m = x_samples_m()
    return np.array([buckley_leverett(x_m, tau, POROSITY, FLUIDS)
                     .reshape(N_CELLS, SAMPLES).mean(axis=1) for tau in volumes_m])


@pytest.fixture(scope="module")
def family():
    """20 snapshots at injected volumes up to the largest, evenly spaced."""
    volumes = largest_volume_m() * np.arange(1, 21) / 20
    return volumes, snapshots(volumes)


def test_two_end_snapshots_span_the_family(family):
    _, values = family
    train = transport.snapshots_to_icdfs(values, 0.0, 1.0)
    dictionary, report, _ = greedy.run(train, n_max=2)
    assert sorted(dictionary.atom_indices.tolist()) == [0, len(values) - 1]
    # measured: 1.7e-5 km, 1.7 % of a cell
    assert report.delta[-1] < DX_KM / 10


def test_pod_needs_most_modes(family):
    _, values = family
    basis = pod.compute(values.T)
    mean_errors = pod.relative_l1_errors(basis, values.T).mean(axis=1)
    n_pod = pod.size_for_tolerance(mean_errors, 0.01)
    # measured: 20 of 20 (16/19/20/20 at eps 0.1/0.05/0.01/0.005)
    assert n_pod is not None and n_pod >= 0.75 * len(values)


def test_online_between_training_volumes():
    # 21 volumes, trained on every fourth: the two end atoms and linear
    # weights and mass in the volume give the 15 held-out snapshots
    volumes = largest_volume_m() * np.arange(1, 22) / 21
    values = snapshots(volumes)
    fit = np.arange(0, 21, 4)
    held = np.setdiff1d(np.arange(21), fit)
    dictionary, _, weights = greedy.run(transport.snapshots_to_icdfs(values[fit], 0.0, 1.0),
                                        n_max=2)
    masses = values.sum(axis=1) * DX_KM
    model = online.fit(dictionary, volumes[fit, None], weights, masses[fit], ("tau",),
                       N_CELLS, 0.0, 1.0)
    errors = online.relative_l1_error(online.reconstruct(model, volumes[held, None]),
                                      values[held])
    # measured: 6.9e-5 to 1.3e-3
    assert errors.max() < 5e-3
