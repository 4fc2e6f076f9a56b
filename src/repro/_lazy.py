"""PEP 562 lazy exports for package ``__init__`` modules.

A package lists which submodule defines each public name; the submodule
is imported the first time one of its names is read, so ``import
repro.cli`` does not pay for subsystems a plain ``repro check`` never
touches (the HTTP cache client, the shard coordinator, the metatheory
checker, the runtime monitor).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, given submodule →
    the public names it defines.  A resolved name is cached in the
    package namespace, so each is looked up once."""
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
