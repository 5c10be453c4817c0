"""The bytes of a run's event-trace file, as `ponedge run --trace` writes them."""

import hashlib
import io

from ponedge._kernel import library


def trace_digest(result) -> str:
    """SHA-256 of the trace file that the write_trace of the kernel this
    process resolved produces for a traced run."""
    sink = io.BytesIO()
    library().write_trace(sink, result.outputs.trace, result.node_ids)
    return hashlib.sha256(sink.getvalue()).hexdigest()
