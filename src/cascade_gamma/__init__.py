"""Total cascade size of a branching process with Gamma(2, p) generations.

A population starts at mass one; given the current generation mass x
the next one is Gamma(2x, p).  The package evaluates the exact density
of the total mass ever alive, its tail asymptote, moments, extinction
probabilities, an atomized negative-binomial pmf that converges to the
density, and Monte Carlo engines that sample the same law.

Each public name is declared once, in its module's __all__.  The
package resolves its submodules and those names on first access
(PEP 562), so importing it, or only the command line front end, loads
no more than what is used.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, in that order.
_SUBMODULES = ("errors", "numerics", "continuum", "discrete", "simulate")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [*(item for module in _SUBMODULES for item in __getattr__(module).__all__),
                "__version__"]
    # No public name starts with "_".  A submodule that re-exports nothing,
    # as cli, is left to the import system, so that `from cascade_gamma
    # import cli` imports cli alone.  A name once found is bound in the
    # package, as the eager import bound it, so later lookups are direct.
    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in _SUBMODULES:
            if name in __getattr__(module).__all__:
                value = globals()[name] = getattr(__getattr__(module), name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
