"""Every name the package and its modules export resolves."""

import importlib
from pathlib import Path

import pytest

import nclaw

MODULES = sorted(p.stem for p in Path(nclaw.__file__).parent.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("module", ["nclaw", *(f"nclaw.{m}" for m in MODULES)])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names), "a name is exported twice"
    assert [name for name in names if not hasattr(mod, name)] == []
