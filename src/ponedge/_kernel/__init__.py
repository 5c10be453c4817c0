"""Kernel backend selection: compiled extension when built, pure Python otherwise."""

from __future__ import annotations

import os

from . import pykernel
from .pykernel import KernelInputs, KernelOutputs  # noqa: F401  (re-export)

try:
    from . import _ckernel
except ImportError:  # extension not built; the fallback is always available
    _ckernel = None


def available_backends() -> list[str]:
    return (["cython"] if _ckernel is not None else []) + ["python"]


def resolve_backend(name: str | None = "auto") -> str:
    """Map auto/env request to a concrete backend name."""
    if name in (None, "auto"):
        name = os.environ.get("PONEDGE_BACKEND", "auto")
    if name in (None, "auto"):
        return "cython" if _ckernel is not None else "python"
    if name == "cython" and _ckernel is None:
        raise RuntimeError(
            "compiled kernel is not built (reinstall the package, or set "
            "PONEDGE_BACKEND=python)"
        )
    if name not in ("cython", "python"):
        raise ValueError(f"unknown backend {name!r} (valid: auto, cython, python)")
    return name


def run(inputs: KernelInputs, node_specs=None, backend: str | None = "auto") -> KernelOutputs:
    """Run one simulation; `node_specs` is ignored, the inputs carry every node constant."""
    if resolve_backend(backend) == "cython":
        return _ckernel.run(inputs)
    return pykernel.run(inputs)
