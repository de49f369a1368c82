"""Total cascade size of a branching process with Gamma(2, p) generations.

A population starts at mass one; given the current generation mass x
the next one is Gamma(2x, p).  The package evaluates the exact density
of the total mass ever alive, its tail asymptote, moments, extinction
probabilities, an atomized negative-binomial pmf that converges to the
density, and Monte Carlo engines that sample the same law.

Each public name is declared once, in its module's __all__.
"""

from . import continuum, discrete, errors, numerics, simulate
from .continuum import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *numerics.__all__,
    *continuum.__all__,
    *discrete.__all__,
    *simulate.__all__,
    "__version__",
]
