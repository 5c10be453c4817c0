"""Discrete-event simulator for edge computing hosted in PON central offices.

Two topology presets are compared across CPU grids and workload scenarios:
"genio" places the edge server in the central office next to the OLT,
"baseline" reaches it through a WAN hop.
"""

from ._kernel import available_backends, resolve_backend
from .config import Calibration, DEFAULT_CALIBRATION, cpu_grid
from .metrics import RunSummary, summarize
from .simulation import RunParams, RunResult, run_simulation
from .workload import ScenarioSpec, generate_arrivals, scenario_preset

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "RunParams",
    "RunResult",
    "RunSummary",
    "ScenarioSpec",
    "available_backends",
    "cpu_grid",
    "generate_arrivals",
    "resolve_backend",
    "run_simulation",
    "scenario_preset",
    "summarize",
    "__version__",
]
