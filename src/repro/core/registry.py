"""Declarative registry of test-harness scenarios.

The paper's methodology is a *portfolio*: many harness scenarios, each hunted
with several schedulers.  This module gives every scenario a stable name and
machine-readable metadata so that scenarios can be enumerated
(``python -m repro list-scenarios``), fanned out across strategies and worker
processes (:class:`repro.core.portfolio.Portfolio`), and reconstructed by name
in a different process for replay.

A scenario is registered either with the :func:`scenario` decorator on a
zero-argument factory returning a test entry:

.. code-block:: python

    @scenario("examplesys/safety-bug", tags=("examplesys", "safety"),
              expected_bug_kind="safety", max_steps=600)
    def safety_bug():
        \"\"\"Duplicate-replica-counting safety bug of §2.2.\"\"\"
        return build_replication_test(safety_bug_configuration())

or programmatically with :func:`register` and an explicit :class:`TestCase`
(useful when generating one scenario per bug in a loop).  Names are global and
duplicates raise — collisions are programming errors.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .config import TestingConfig

#: scenario-name prefix -> modules whose import registers the built-in
#: scenarios of that case-study package.
BUILTIN_SCENARIO_MODULES = {
    "examplesys": (
        "repro.examplesys.harness.scenarios",
        "repro.examplesys.harness.flushstore",
        "repro.examplesys.harness.service",
    ),
    "vnext": ("repro.vnext.harness.scenarios",),
    "migratingtable": ("repro.migratingtable.harness.scenarios",),
    "fabric": ("repro.fabric.harness",),
}


@dataclass(frozen=True)
class TestCase:
    """A named, tagged, runnable harness scenario.

    Attributes:
        name: globally unique scenario name, conventionally
            ``<package>/<scenario>`` (e.g. ``"vnext/extent-node-liveness"``).
        build: zero-argument factory returning a fresh test entry
            (a callable taking a :class:`~repro.core.runtime.TestRuntime`).
        tags: free-form labels used for filtering (``--tag`` on the CLI);
            every scenario carries its package name as a tag.
        description: one-line human description (defaults to the factory's
            docstring).
        expected_bug: identifier of the seeded bug this scenario can find,
            or None for clean (no-bug-expected) scenarios.
        expected_bug_kind: ``"safety"`` or ``"liveness"`` when a bug is
            expected.
        max_steps: per-execution step bound this harness needs.
        case_study: paper case-study number (1=vNext, 2=MigratingTable,
            3=Fabric), None for the §2.2 example.
    """

    __test__ = False  # not a pytest test class despite the name

    name: str
    build: Callable[[], Callable]
    tags: tuple = ()
    description: str = ""
    expected_bug: Optional[str] = None
    expected_bug_kind: Optional[str] = None
    max_steps: int = 1000
    case_study: Optional[int] = None

    def default_config(self, **overrides) -> TestingConfig:
        """A :class:`TestingConfig` preconfigured with this scenario's bound."""
        overrides.setdefault("max_steps", self.max_steps)
        return TestingConfig(**overrides)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tags": list(self.tags),
            "description": self.description,
            "expected_bug": self.expected_bug,
            "expected_bug_kind": self.expected_bug_kind,
            "max_steps": self.max_steps,
            "case_study": self.case_study,
            "module": getattr(self.build, "__module__", None),
        }


_SCENARIOS: Dict[str, TestCase] = {}


def register(testcase: TestCase) -> TestCase:
    """Add ``testcase`` to the global registry; duplicate names raise."""
    if testcase.name in _SCENARIOS:
        raise ValueError(f"scenario {testcase.name!r} is already registered")
    _SCENARIOS[testcase.name] = testcase
    return testcase


def scenario(
    name: str,
    *,
    tags: Sequence[str] = (),
    description: Optional[str] = None,
    expected_bug: Optional[str] = None,
    expected_bug_kind: Optional[str] = None,
    max_steps: int = 1000,
    case_study: Optional[int] = None,
):
    """Decorator registering a zero-argument test-entry factory as a scenario.

    The decorated function is returned unchanged (it stays directly callable)
    with the created :class:`TestCase` attached as ``.testcase``.
    """

    def decorator(build: Callable[[], Callable]) -> Callable[[], Callable]:
        doc = (build.__doc__ or "").strip().splitlines()
        testcase = TestCase(
            name=name,
            build=build,
            tags=tuple(tags),
            description=description if description is not None else (doc[0] if doc else ""),
            expected_bug=expected_bug,
            expected_bug_kind=expected_bug_kind,
            max_steps=max_steps,
            case_study=case_study,
        )
        register(testcase)
        build.testcase = testcase
        return build

    return decorator


def get_scenario(name: str) -> TestCase:
    """Look up a registered scenario, loading only its ``<package>/`` prefix's
    harness modules; unknown names load the rest and list what is registered."""
    if name not in _SCENARIOS:
        for module in BUILTIN_SCENARIO_MODULES.get(name.partition("/")[0], ()):
            importlib.import_module(module)
    if name not in _SCENARIOS:
        load_builtin_scenarios()
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered scenarios: {known}")
    return _SCENARIOS[name]


def all_scenarios(*, tag: Optional[str] = None) -> List[TestCase]:
    """Every registered scenario in name order, optionally filtered by tag."""
    load_builtin_scenarios()
    cases = sorted(_SCENARIOS.values(), key=lambda c: c.name)
    if tag is not None:
        cases = [c for c in cases if tag in c.tags]
    return cases


def load_builtin_scenarios() -> None:
    """Import the case-study harness modules so they self-register.

    Imports are idempotent, so calling this repeatedly (including from
    portfolio worker processes) is cheap and safe.
    """
    for modules in BUILTIN_SCENARIO_MODULES.values():
        for module in modules:
            importlib.import_module(module)


def import_scenario_modules(specs: Optional[Sequence[str]]) -> None:
    """Import user modules so their ``@scenario``/``@register_strategy`` run.

    Accepts dotted module names or paths to ``.py`` files (e.g.
    ``examples/quickstart.py``).  Used by the CLI's ``--import`` option and
    re-run inside pool worker processes: under the ``spawn`` start method a
    fresh interpreter knows nothing about the parent's imports, so every
    worker is handed the hunt's import specs and replays them before looking
    up its scenario by name.  Already-loaded modules are skipped
    (registration is global), which makes re-importing idempotent in forked
    workers too.
    """
    for spec in specs or []:
        if spec.endswith(".py"):
            name = os.path.splitext(os.path.basename(spec))[0]
            if name in sys.modules:  # already loaded; registration is global
                continue
            module_spec = importlib.util.spec_from_file_location(name, spec)
            if module_spec is None or module_spec.loader is None:
                raise ValueError(f"cannot import {spec!r}")
            module = importlib.util.module_from_spec(module_spec)
            sys.modules[name] = module
            module_spec.loader.exec_module(module)
        else:
            importlib.import_module(spec)
