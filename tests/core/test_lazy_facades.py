"""The lazy package facades lose nothing.

``repro``, ``repro.core``, ``repro.core.runtime`` and ``repro.analysis`` resolve
their public names on first access (:mod:`repro._lazy`).  Every name the eager
facades exported must still be there, be the very object its submodule defines,
and keep the module path pickle sends across a process boundary.
"""

import importlib
import multiprocessing
import os
import pickle
import re

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FACADES = ("repro", "repro.core", "repro.core.runtime", "repro.analysis")


@pytest.mark.parametrize("package", FACADES)
def test_every_public_name_resolves_to_its_submodules_object(package):
    facade = importlib.import_module(package)
    table = facade._EXPORTS
    unlisted = {"__version__"} if package == "repro" else set()
    assert set(facade.__all__) == set(table) | unlisted
    assert len(facade.__all__) == len(set(facade.__all__))
    listed = dir(facade)
    for name in facade.__all__:
        assert name in listed
        value = getattr(facade, name)
        if name in table:
            assert value is getattr(importlib.import_module(table[name], package), name)
        assert facade.__dict__[name] is value  # cached: __getattr__ ran at most once


@pytest.mark.parametrize("package", FACADES)
def test_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    facade = importlib.import_module(package)
    assert set(facade.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(facade, name) for name in facade.__all__)


@pytest.mark.parametrize("package", FACADES)
def test_unknown_attribute_names_the_package(package):
    facade = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        facade.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_classes_keep_their_defining_module():
    from repro.analysis import AnalysisCache
    from repro.core import ProductionRuntime
    from repro.core.runtime import TestRuntime

    assert repro.Machine.__module__ == "repro.core.machine"
    assert ProductionRuntime.__module__ == "repro.core.runtime.production"
    assert TestRuntime.__module__ == "repro.core.runtime.testing"
    assert AnalysisCache.__module__ == "repro.analysis.cache"


def _unpickles_to_the_defining_object(payload):
    """Runs in the child: the pickle names the defining submodule, so loading
    it must not depend on a facade having been touched there first."""
    value = pickle.loads(payload)
    module = importlib.import_module(value.__module__)
    return value is getattr(module, value.__qualname__), value.__module__


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_class_reached_through_a_facade_pickles_across_processes(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} is not available on this platform")
    from repro import TestingConfig
    from repro.analysis import AnalysisReport
    from repro.core import HuntReport
    from repro.core.runtime import BugInfo

    with multiprocessing.get_context(start_method).Pool(1) as pool:
        for cls in (TestingConfig, HuntReport, BugInfo, AnalysisReport):
            payload = pickle.dumps(cls)
            assert pickle.loads(payload) is cls
            same, module = pool.apply(_unpickles_to_the_defining_object, (payload,))
            assert same and module == cls.__module__


def test_packaging_reads_the_version_from_the_package():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        text = handle.read()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "repro.__version__"}' in text
    assert not re.search(r'^version\s*=\s*"', text, re.MULTILINE)  # no second literal
    expand = pytest.importorskip("setuptools.config.expand")
    # What a build computes: read from the AST, the package is not imported.
    assert expand.read_attr("repro.__version__", {"": "src"}, ROOT) == repro.__version__
