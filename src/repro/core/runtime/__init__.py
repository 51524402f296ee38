"""Layered runtime package: shared kernel + pluggable execution controllers.

* :mod:`repro.core.runtime.kernel` — :class:`RuntimeKernel`, the
  execution-policy-free core (machine table, monitors, dispatch, state
  stack, disciplines, logging, bug recording) both modes share.
* :mod:`repro.core.runtime.testing` — :class:`TestRuntime`, the serialized
  strategy-driven systematic-testing controller with replayable traces.
* :mod:`repro.core.runtime.production` — :class:`ProductionRuntime`, the
  concurrent asyncio controller that deploys the same machine programs on
  real concurrency, wall-clock timers and true randomness.

The historical import path ``repro.core.runtime`` (when the whole runtime
was one module) keeps working: :class:`TestRuntime`, :class:`BugInfo` and
the log helpers are re-exported here.
"""

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from .kernel import (
        BugInfo,
        LogRecord,
        RuntimeKernel,
        format_log_record,
    )
    from .production import ProductionRuntime
    from .testing import TestRuntime

__all__ = [
    "BugInfo",
    "LogRecord",
    "ProductionRuntime",
    "RuntimeKernel",
    "TestRuntime",
    "format_log_record",
]

_SUBMODULES = {
    ".kernel": "BugInfo LogRecord RuntimeKernel format_log_record",
    ".production": "ProductionRuntime",
    ".testing": "TestRuntime",
}
_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES)
