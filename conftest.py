"""Ensure the in-repo sources are importable even without installation.

Also lets CI (and developers) force a multiprocessing start method for the
whole test session: setting ``MULTIPROCESSING_START_METHOD=spawn`` makes
every worker pool (``repro.core.hunt.WorkerPool``) use spawn-started
workers, which is how the suite reproduces the macOS/Windows default on
Linux runners (fresh interpreters that must re-import user scenarios).
"""

import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

_START_METHOD = os.environ.get("MULTIPROCESSING_START_METHOD")
if _START_METHOD:
    multiprocessing.set_start_method(_START_METHOD, force=True)
