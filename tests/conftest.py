"""Shared fixtures for the test suite.

The expensive objects (synthetic datasets, fitted models) are built once per
session; individual tests treat them as read-only.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer
from repro.datasets.generate import DatasetSpec, build_dataset
from repro.datasets.loaders import training_pairs
from repro.simulation.crowd import CrowdSimulator
from repro.utils.rng import SeedSequenceFactory

# A longer, derandomized Hypothesis profile for CI: ``pytest
# --hypothesis-profile=ci-long`` draws ten times the default example count,
# the same examples on every run.  Tests that set a smaller count for tier-1
# scale it from the active profile's ``max_examples``, so they scale too.
settings.register_profile("ci-long", max_examples=1000, derandomize=True, database=None)


@pytest.fixture(scope="session")
def config() -> LightorConfig:
    """The paper-default configuration."""
    return LightorConfig.paper_defaults()


@pytest.fixture(scope="session")
def dota2_dataset():
    """A small Dota2 suite (deterministic, seed 2020)."""
    return build_dataset(DatasetSpec.dota2(size=6))


@pytest.fixture(scope="session")
def lol_dataset():
    """A small LoL suite (deterministic, seed 2020)."""
    return build_dataset(DatasetSpec.lol(size=4))


@pytest.fixture(scope="session")
def labelled_video(dota2_dataset):
    """One labelled video used by many unit tests."""
    return dota2_dataset[1]


@pytest.fixture(scope="session")
def fitted_initializer(config, dota2_dataset) -> HighlightInitializer:
    """An Initializer trained on the first video of the Dota2 suite."""
    initializer = HighlightInitializer(config=config)
    initializer.fit(training_pairs(dota2_dataset[:1]))
    return initializer


@pytest.fixture(scope="session")
def crowd() -> CrowdSimulator:
    """A crowd simulator with a fixed seed."""
    return CrowdSimulator(seeds=SeedSequenceFactory(99))


@pytest.fixture()
def seeds() -> SeedSequenceFactory:
    """A fresh seed factory for tests that need private randomness."""
    return SeedSequenceFactory(12345)
