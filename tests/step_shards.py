"""The row shards of each step a toy model ran in the running test.

A model keeps nothing of its steps, so the ``record_step_shards`` fixture
(tests/conftest.py) wraps ``ToyModel.forward`` around every test and
records here how many shards each returned ``Step`` ran in.
"""

import weakref

RECORDED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def step_shards(model) -> set[int]:
    """The shard counts of the steps ``model`` ran in this test."""
    return set(RECORDED.get(model, ()))
