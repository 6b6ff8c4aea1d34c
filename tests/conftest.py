"""Shared fixtures: small datasets and CSV trios on disk."""

import numpy as np
import pytest

from grmlr import GrmlrConfig, save_dataset, synthesize_dataset
from grmlr.dataset import AbundanceMatrix, Dataset, MacrofaunaCounts, StageLabels


@pytest.fixture
def tiny_dataset():
    """Hand-built 6-site, 4-taxon dataset with all three tables."""
    rng = np.random.default_rng(42)
    raw = rng.uniform(0.05, 1.0, size=(6, 4))
    closed = raw / raw.sum(axis=1, keepdims=True)
    sites = [f"s{i}" for i in range(6)]
    taxa = ["taxA", "taxB", "taxC", "taxD"]
    abundances = AbundanceMatrix(sites, taxa, closed)
    counts = MacrofaunaCounts(list(sites), rng.integers(0, 9, size=(6, 4)))
    labels = StageLabels(list(sites), ["juvenile", "adult", "dead"] * 2)
    return Dataset(abundances, counts, labels)


@pytest.fixture
def synth_dataset():
    """Default-shaped synthetic dataset (13 x 26, K=3)."""
    return synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)


@pytest.fixture
def csv_trio(tmp_path, synth_dataset):
    """The synthetic dataset serialized to the three CSV schemas."""
    paths = {
        "abundances": tmp_path / "abundances.csv",
        "macrofauna": tmp_path / "macrofauna.csv",
        "labels": tmp_path / "labels.csv",
    }
    save_dataset(synth_dataset, paths["abundances"], paths["macrofauna"], paths["labels"])
    return paths


@pytest.fixture
def fast_config():
    """Default hyperparameters (they are already cheap at this scale)."""
    return GrmlrConfig()
