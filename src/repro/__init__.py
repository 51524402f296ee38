"""repro — a Python reproduction of "Uncovering Bugs in Distributed Storage
Systems during Testing (not in Production!)" (Deligiannis et al., FAST 2016).

The package provides:

* :mod:`repro.core` — a P#-style framework for modeling distributed systems as
  communicating state machines, specifying safety and liveness properties with
  monitors, and systematically testing every interleaving decision under
  controlled schedulers with deterministic replay.
* :mod:`repro.examplesys` — the contrived replication system of §2.2.
* :mod:`repro.vnext` — case study 1: Azure Storage vNext extent management.
* :mod:`repro.migratingtable` — case study 2: Live Table Migration.
* :mod:`repro.fabric` — case study 3: the Azure Service Fabric model.
* :mod:`repro.experiments` — generators for Table 1 and Table 2.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .core import (
        Event,
        Halt,
        HuntReport,
        Machine,
        MachineId,
        Monitor,
        Portfolio,
        ProductionRuntime,
        Receive,
        Shrinker,
        State,
        TestCase,
        TestReport,
        TestRuntime,
        TestingConfig,
        TestingEngine,
        all_scenarios,
        available_strategies,
        get_scenario,
        on_event,
        register_strategy,
        run_scenario,
        run_test,
        scenario,
    )

__version__ = "1.1.0"

__all__ = [
    "Event",
    "Halt",
    "HuntReport",
    "Machine",
    "MachineId",
    "Monitor",
    "Portfolio",
    "ProductionRuntime",
    "Receive",
    "Shrinker",
    "State",
    "TestCase",
    "TestReport",
    "TestRuntime",
    "TestingConfig",
    "TestingEngine",
    "all_scenarios",
    "available_strategies",
    "get_scenario",
    "on_event",
    "register_strategy",
    "run_scenario",
    "run_test",
    "scenario",
    "__version__",
]

# Every public name but ``__version__`` (last in ``__all__``) lives in ``repro.core``.
_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {".core": " ".join(__all__[:-1])})
