"""The public surface: every name a module lists in ``__all__`` exists.

perfbench/spans.py wraps each listed name of these modules with ``getattr``,
so a name left in ``__all__`` after its function is gone breaks traced runs.
"""

import importlib
import types

import pytest

import tgmat

MODULES = ["tensor", "dominance", "regions", "oracle", "spin"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"tgmat.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_only_listed_names():
    # importing tgmat resolves each re-export; each must also be in its module's __all__
    listed = set().union(*(importlib.import_module(f"tgmat.{n}").__all__ for n in MODULES))
    exported = {n for n, v in vars(tgmat).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported <= listed
