"""The package's public names: ``adapterqa.__all__`` lists each name once,
and every listed name exists, so a deleted name left behind in it fails."""

import adapterqa


def test_every_exported_name_resolves_once():
    assert len(set(adapterqa.__all__)) == len(adapterqa.__all__)
    assert [name for name in adapterqa.__all__ if not hasattr(adapterqa, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from adapterqa import *", namespace)
    assert set(adapterqa.__all__) <= set(namespace)
