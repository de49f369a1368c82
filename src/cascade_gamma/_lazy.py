"""numpy for the whole package, executed on its first use.

moments and extinction need only math, yet importing numpy takes most
of a cold process that runs one of them.  Every module of the package
takes np from here.  When numpy is already imported, np is that module
itself; otherwise np is registered as numpy in sys.modules and executes
numpy's __init__ on its first attribute access (importlib.util.LazyLoader).

On Python 3.11 that first access is not thread-safe: a second thread
that touches np while the first is executing it sees a half-built
module.  Code that hands numpy work to threads touches np first on the
thread that starts them: simulate builds HIST_EDGES when it is imported,
before run_campaign starts any pool thread.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["np"]


def _numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
