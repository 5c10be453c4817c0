"""Fresh ponedge interpreters with a kernel cache of their own, for the first-use build."""

import os
import shutil
import subprocess
import sys

import pytest

import ponedge
from ponedge import _kernel

SRC = os.path.dirname(os.path.dirname(ponedge.__file__))

_CC = _kernel.compiler_argv()[0]
# A test that strips PATH to hide the compiler needs one that PATH finds.
path_finds_compiler = pytest.mark.skipif(
    os.path.isabs(_CC), reason=f"the compiler {_CC} is an absolute path, which PATH does not hide")
needs_compiler = pytest.mark.skipif(shutil.which(_CC) is None, reason=f"no C compiler {_CC!r}")


def ponedge_env(tmp_path, *, compiler: bool = True, backend: str | None = None) -> dict:
    """The environment of a ponedge process whose kernel cache is under tmp_path.

    Without compiler, PATH holds only an empty directory. PONEDGE_BACKEND is
    set to backend, or unset.
    """
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path / "cache"))
    env.pop("PONEDGE_BACKEND", None)
    if backend is not None:
        env["PONEDGE_BACKEND"] = backend
    if not compiler:
        empty = tmp_path / "empty-path"
        empty.mkdir(exist_ok=True)
        env["PATH"] = str(empty)
    return env


def run_python(code: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def run_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ponedge.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
