"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names the submodule that defines each name it re-exports.
The first read of a name imports that submodule, so importing one
module of a package no longer imports all of its siblings.  The style
follows Scientific Python SPEC 1::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "tracer": ("NULL_TRACER", "Tracer"),
        "metrics": ("Histogram",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    defined: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``__init__``.

    ``exports`` maps a submodule, relative to ``package`` (``"tracer"``,
    ``"core.partitioner"``), to the names re-exported from it.
    ``defined`` lists the names the ``__init__`` defines itself; they
    join the sorted ``__all__``.  A resolved name is bound in the
    package namespace, so only its first read goes through
    ``__getattr__``.  A name spelt like its own submodule (``floorplan``
    in ``repro.flow.floorplan``) is bound at once: importing that
    submodule first would otherwise leave the module under the name.
    """
    origin = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module("." + sub, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    for name, sub in origin.items():
        if sub.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, sorted([*origin, *defined])
