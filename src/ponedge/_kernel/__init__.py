"""Kernel backend selection: the C kernel when built, pure Python otherwise."""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from ..network import ConfigurationError
from . import pykernel
from .pykernel import KernelInputs, KernelOutputs  # noqa: F401  (re-export)


def _library_path() -> str | None:
    """The kernel.c shared library that setup.py builds next to pykernel.py."""
    here = os.path.dirname(__file__)
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "kernel" + suffix)
        if os.path.isfile(path):
            return path
    return None


_crun = None
_library = _library_path()
if _library is not None:  # ctypes is imported only when there is a library to load
    from .ckernel import load

    try:
        _crun = load(_library)
    except OSError:  # not loadable on this platform; the fallback is always available
        pass


def available_backends() -> list[str]:
    return (["c"] if _crun is not None else []) + ["python"]


def resolve_backend(name: str | None = "auto") -> str:
    """Map auto/env request to a concrete backend name.

    An unknown name, or `c` when the C kernel is not built, is a
    ConfigurationError.
    """
    if name in (None, "auto"):
        name = os.environ.get("PONEDGE_BACKEND", "auto")
    if name in (None, "auto"):
        return "c" if _crun is not None else "python"
    if name == "c" and _crun is None:
        raise ConfigurationError(
            "C kernel is not built (run `python setup.py build_ext --inplace`, or set "
            "PONEDGE_BACKEND=python)"
        )
    if name not in ("c", "python"):
        raise ConfigurationError(f"unknown backend {name!r} (valid: auto, c, python)")
    return name


def run(inputs: KernelInputs, node_specs=None, backend: str | None = "auto") -> KernelOutputs:
    """Run one simulation; the inputs carry every node constant.

    `node_specs` is ignored. It stays because perfbench replays recorded calls
    as `(inputs, node_specs)`.
    """
    if resolve_backend(backend) == "c":
        return _crun(inputs)
    return pykernel.run(inputs)
