"""The package namespace: `__all__` lists exactly what `harqopt` exports."""

import inspect

import harqopt


def test_all_lists_every_export_once():
    exported = {name for name, obj in vars(harqopt).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert len(harqopt.__all__) == len(set(harqopt.__all__))
    assert set(harqopt.__all__) == exported | {"__version__"}


def test_star_import_binds_every_name():
    # a stale __all__ entry (a name the package no longer binds) makes the
    # star import itself raise
    names: dict = {}
    exec("from harqopt import *", names)
    assert set(harqopt.__all__) <= set(names)
