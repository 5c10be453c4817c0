"""The bytes of a run's event-trace file, as `ponedge run --trace` writes them."""

import hashlib
import io

from ponedge.simulation import write_trace


def trace_digest(result) -> str:
    """SHA-256 of the trace file that write_trace produces for a traced run, on
    the path of the kernel that made it."""
    sink = io.BytesIO()
    write_trace(sink, result.node_ids, result.outputs.trace, result.backend)
    return hashlib.sha256(sink.getvalue()).hexdigest()
