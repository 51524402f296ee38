"""Lazy package facades (PEP 562): a name costs only the submodule it lives in.

A facade keeps its docstring, its ``__all__`` and, under ``TYPE_CHECKING``, its
import statements; nothing is imported until a name is first read.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, names_by_submodule: Dict[str, str]
) -> Tuple[Dict[str, str], Callable[[str], object], Callable[[], List[str]]]:
    """``(table, __getattr__, __dir__)`` for the package named ``package``.

    ``names_by_submodule`` maps a relative submodule (``".engine"``) to its
    space-separated public names; ``table`` is the inverse, name -> submodule.
    A resolved value is stored in the package's globals: one call per name.
    """
    table = {name: sub for sub, names in names_by_submodule.items() for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(table[name], package), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *table})

    return table, __getattr__, __dir__
