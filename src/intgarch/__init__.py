"""Interval-valued GARCH: simulation, estimation, forecasting, evaluation.

Daily returns are intervals [low, high] rather than points. The process
scales a random interval shock by a conditional scale h_t driven by past
absolute centers, radii, and scales; the library covers the resulting
moment theory, a two-stage estimator (moments for the shape k, projected
Newton for the scale parameters), multi-step volatility forecasts,
tick-data preparation, and a forecast-evaluation harness with a scalar
GARCH(1,1) baseline.
"""

from . import exceptions, intervals, process, simulate, estimate, forecast, marketdata, evaluate

# the modules, taken before `simulate` and `forecast` name their functions
_MODULES = (exceptions, intervals, process, simulate, estimate, forecast, marketdata, evaluate)

from .exceptions import *  # noqa: E402,F403
from .intervals import *  # noqa: E402,F403
from .process import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
from .estimate import *  # noqa: E402,F403
from .forecast import *  # noqa: E402,F403
from .marketdata import *  # noqa: E402,F403
from .evaluate import *  # noqa: E402,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
