"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names once, by submodule, and
each name is imported from its submodule on first access and then cached
in the package globals, so importing one submodule does not load its
siblings::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.service.monitor": ("Monitor",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` exporting
    ``exports`` (submodule -> the names it provides)."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return sorted(origin), __getattr__, __dir__
