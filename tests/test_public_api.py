"""Public-API integrity: every __all__ export must resolve.

Guards against drift between ``__init__`` re-export lists and the
modules they pull from -- the kind of breakage only an import of the
specific name reveals.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.arch",
    "repro.core",
    "repro.flow",
    "repro.runtime",
    "repro.synth",
    "repro.eval",
    "repro.obs",
    "repro.render",
    "repro.replay",
    "repro.service",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{package} must declare __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{package} exports unresolved names: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_and_unique(package):
    mod = importlib.import_module(package)
    exported = list(getattr(mod, "__all__", []))
    assert len(exported) == len(set(exported)), f"{package} has duplicate exports"
    assert exported == sorted(exported), f"{package} exports are not sorted"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_cli_entry_point_importable():
    from repro.cli import main  # noqa: F401

    from repro import __main__  # noqa: F401
