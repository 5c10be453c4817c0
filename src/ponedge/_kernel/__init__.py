"""Kernel backend selection: the C kernel, compiled on first use, or pure Python.

The first request that may use the C kernel compiles the shipped kernel.c
with the C compiler this interpreter was built with, into
`$XDG_CACHE_HOME/ponedge` (default `~/.cache/ponedge`), and loads it through
ctypes. Later processes find the library there and only hash, stat and load
it. Importing this package compiles and loads nothing.
"""

from __future__ import annotations

import os
import shlex
import shutil
import sys
import sysconfig

from ..network import ConfigurationError
from . import pykernel
from .pykernel import KernelInputs, KernelOutputs  # noqa: F401  (re-export)

# CPython's own sha256 module, as random.py does: hashlib loads OpenSSL, which
# adds about 3.6 MB to the resident set of every process that resolves a backend.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")
# kernel.c uses no CPython API: it is built as a plain shared library. No
# -ffast-math, and no fused multiply-adds: the C kernel must keep strict IEEE
# semantics to stay bit-identical with pykernel.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


class _NoCompiler(ConfigurationError):
    """No C compiler to build the C kernel with, and no library built before."""


def compiler_argv() -> list[str]:
    """The compile command of the C kernel, without its output and source paths."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc") + list(CFLAGS)


def _library_path() -> str:
    """The C kernel's shared library, compiled into the cache if it is not there.

    Raises _NoCompiler when there is no compiler to build it with, and
    ConfigurationError with the compiler's error when the build fails. Two
    processes building at once each compile into their own staging file; the
    rename that publishes it is atomic, so either library may be loaded.
    """
    argv = compiler_argv()
    # keyed by everything that goes into the library, so that one built from
    # another kernel.c, compiler or interpreter is never loaded
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ""
    with open(SOURCE, "rb") as fh:
        key = fh.read() + "\0".join(["", *argv, suffix]).encode()
    directory = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.join(os.path.expanduser("~"), ".cache"), "ponedge")
    path = os.path.join(directory, f"kernel-{sha256(key).hexdigest()[:16]}.so")
    if os.path.isfile(path):
        return path
    if shutil.which(argv[0]) is None:
        raise _NoCompiler(f"no C compiler ({argv[0]!r} is not on PATH) and no C kernel "
                          f"built in {directory}")
    import subprocess  # only a build needs these
    import tempfile

    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, staging = tempfile.mkstemp(prefix=os.path.basename(path) + ".tmp-", dir=directory)
        os.close(fd)
        try:
            done = subprocess.run([*argv, "-o", staging, SOURCE], capture_output=True,
                                  text=True)
            if done.returncode != 0:
                raise ConfigurationError(
                    f"the C kernel did not compile ({' '.join(argv)} exited "
                    f"{done.returncode}):\n" + (done.stderr or done.stdout).strip())
            os.replace(staging, path)
        finally:
            if os.path.exists(staging):
                os.remove(staging)
    except OSError as exc:
        raise ConfigurationError(f"cannot build the C kernel in {directory}: {exc}") from None
    return path


_crun = None  # run() of the C kernel, once built and loaded
_cerror: ConfigurationError | None = None  # why it could not be, once that failed


def _c_kernel(warn: bool = False):
    """run() of the C kernel, built and loaded on first call; None if it cannot be.

    With warn, a failed build (not a missing compiler) is reported on stderr
    in one line, since the caller then falls back to pure Python.
    """
    global _crun, _cerror
    if _crun is None and _cerror is None:
        try:
            path = _library_path()
            from .ckernel import load  # ctypes, once there is a library to load

            try:
                _crun = load(path)
            except OSError as exc:
                raise ConfigurationError(f"cannot load the C kernel {path}: {exc}") from None
        except ConfigurationError as exc:
            _cerror = exc
            if warn and not isinstance(exc, _NoCompiler):
                print("ponedge: the C kernel could not be built, so the pure-Python kernel runs "
                      "(PONEDGE_BACKEND=c shows why)", file=sys.stderr)
    return _crun


def available_backends() -> list[str]:
    """The backends this process can run; asking builds the C kernel if needed."""
    return (["c"] if _c_kernel() is not None else []) + ["python"]


def resolve_backend(name: str | None = "auto") -> str:
    """Map auto/env request to a concrete backend name.

    `auto` is `c` when the C kernel builds and loads, else `python`; `python`
    never builds it. An unknown name, or `c` when the C kernel cannot be
    built, is a ConfigurationError.
    """
    if name in (None, "auto"):
        name = os.environ.get("PONEDGE_BACKEND", "auto")
    if name not in ("auto", "c", "python"):
        raise ConfigurationError(f"unknown backend {name!r} (valid: auto, c, python)")
    if name == "python":
        return name
    if _c_kernel(warn=name == "auto") is not None:
        return "c"
    if name == "c":
        raise _cerror
    return "python"


def run(inputs: KernelInputs, node_specs=None, backend: str | None = "auto") -> KernelOutputs:
    """Run one simulation; the inputs carry every node constant.

    `node_specs` is ignored. It stays because perfbench replays recorded calls
    as `(inputs, node_specs)`.
    """
    if resolve_backend(backend) == "c":
        return _crun(inputs)
    return pykernel.run(inputs)
