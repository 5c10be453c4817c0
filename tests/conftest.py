"""Test-session setup: a kernel cache of the session's own.

XDG_CACHE_HOME is set when pytest loads this file, before any test module is
collected, so that no test, and no ponedge process a test starts, reads or
writes the user's kernel cache. The session's first use of the C kernel
builds it there; the directory is removed when the session ends.
"""

import os
import shutil
import tempfile

SESSION_CACHE = tempfile.mkdtemp(prefix="ponedge-test-cache-")
os.environ["XDG_CACHE_HOME"] = SESSION_CACHE


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(SESSION_CACHE, ignore_errors=True)
