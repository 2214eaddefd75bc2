"""Session fixtures providing the two reference experiment datasets.

Generation and training take a few minutes total. Set BARYROM_TEST_CACHE to
a directory to keep the artifacts across test sessions; otherwise they live
in a session tmpdir.
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from baryrom import cli, pod, store, transport

CACHE_ENV = "BARYROM_TEST_CACHE"


@dataclass
class ExampleData:
    store: store.SnapshotStore
    model: object
    report: object
    pod_basis: pod.PodBasis
    pod_mean_errors: np.ndarray
    model_dir: Path

    def training_icdfs(self) -> np.ndarray:
        return transport.snapshots_to_icdfs(
            self.store.values, self.store.config.grid.x_min, self.store.config.grid.x_max
        )

    def n_gbar(self, eps: float):
        return pod.size_for_tolerance(self.report.l1_mean, eps, self.report.n)

    def n_pod(self, eps: float):
        return pod.size_for_tolerance(self.pod_mean_errors, eps)


def _build(cache: Path, name: str) -> ExampleData:
    store_dir = cache / f"{name}_store"
    model_dir = cache / f"{name}_model"
    if not (store_dir / "snapshots.npz").exists():
        rc = cli.main(["generate", "--config", name, "--out", str(store_dir)])
        assert rc == 0, f"snapshot generation failed for {name}"
    if not (model_dir / "model.json").exists():
        rc = cli.main(["offline", "--store", str(store_dir), "--out", str(model_dir)])
        assert rc == 0, f"offline training failed for {name}"
    st = store.load_store(store_dir)
    model = store.load_model(model_dir)
    report = store.load_report(model_dir)
    snaps = st.values.T
    basis = pod.compute(snaps)
    pod_means = pod.relative_l1_errors(basis, snaps).mean(axis=1)
    return ExampleData(
        store=st,
        model=model,
        report=report,
        pod_basis=basis,
        pod_mean_errors=pod_means,
        model_dir=model_dir,
    )


@pytest.fixture(scope="session")
def data_cache(tmp_path_factory):
    env = os.environ.get(CACHE_ENV)
    if env:
        path = Path(env)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path_factory.mktemp("baryrom_data")


@pytest.fixture(scope="session")
def example1(data_cache):
    return _build(data_cache, "example1")


@pytest.fixture(scope="session")
def example2(data_cache):
    return _build(data_cache, "example2")
