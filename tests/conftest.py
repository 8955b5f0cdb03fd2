"""Fixtures shared by the test modules."""

import pytest

from adapterqa import toymodel
from step_shards import RECORDED


@pytest.fixture
def three_shards(monkeypatch):
    """Every forward and backward of a toy model splits its batch into up
    to three row shards, as on a host with three CPUs and one-thread BLAS."""
    monkeypatch.setattr(toymodel, "SHARD_MIN_STREAM", 1)
    monkeypatch.setattr(toymodel, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture(autouse=True)
def record_step_shards(monkeypatch):
    """Record the shard count of every step a toy model runs in the test,
    for ``step_shards.step_shards``."""
    forward = toymodel.ToyModel.forward

    def recorded(self, *args, **kwargs):
        step = forward(self, *args, **kwargs)
        RECORDED.setdefault(self, []).append(len(step._rows))
        return step

    monkeypatch.setattr(toymodel.ToyModel, "forward", recorded)
    yield
    RECORDED.clear()
