"""Fixtures shared by the test modules."""

import pytest

from adapterqa import toymodel


@pytest.fixture
def three_shards(monkeypatch):
    """Every forward and backward of a toy model splits its batch into up
    to three row shards, as on a host with three CPUs and one-thread BLAS."""
    monkeypatch.setattr(toymodel, "SHARD_MIN_STREAM", 1)
    monkeypatch.setattr(toymodel, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
