"""Pure-Python simulation kernel: the reference semantics.

The C kernel in kernel.c mirrors this module and reproduces its results bit
for bit: the same events are processed in the same (time, seq) order under
the same sequence numbering, with the same float expressions evaluated in
the same order, and fair-share members kept in join order. Each link
direction keeps one pending serialization-end event, for the member with the
smallest (eta, seq); the sequence counter advances by the member count, so
that event carries the seq it would have had if every member's end were
queued. Execution starts and deliveries are recorded where they are
scheduled, under the seq their events would have had; an execution start
counts as processed only when it falls within the horizon, and the trace is
sorted once at the end, which is the processing order because (time, seq)
is unique. Drained bits are clamped at zero. Any change to the semantics
here must be made in kernel.c too, or the two backends stop being
bit-identical.

All run state lives in lists local to `run`: per link direction, the
fair-share members in join order, their bits left as of the last update and
the live serialization-end event; per node, the free-at time of each core,
the tasks queued or running and the free RAM and storage, decremented on
placement and restored when execution ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop

from ..engine import SimulationError

# internal event codes
EV_ARRIVAL = 0
EV_SER_END = 1
EV_HOP_ARRIVE = 2
EV_EXEC_END = 3
EV_SIM_END = 4

# trace kinds, and the name the trace file prints for each, indexed by code
TR_TASK_ARRIVAL = 0
TR_TRANSFER_COMPLETE = 1
TR_EXECUTION_START = 2
TR_EXECUTION_COMPLETE = 3
TR_RESULT_DELIVERED = 4
TR_SIMULATION_END = 5
TRACE_KINDS = ("TaskArrival", "TransferComplete", "ExecutionStart", "ExecutionComplete",
               "ResultDelivered", "SimulationEnd")

# task phases
PH_PENDING = 0
PH_UP = 1
PH_QUEUED = 2
PH_RUNNING = 3
PH_DOWN = 4
PH_DELIVERED = 5
PH_NO_PLACEMENT = 6

STRATEGY_TRADE_OFF = 0
STRATEGY_ROUND_ROBIN = 1

NAN = float("nan")


@dataclass
class KernelInputs:
    """Flat, index-based description of one run (cheap to hand to C)."""

    # nodes, index-aligned
    mips_per_core: list[float]
    cores: list[int]
    weight: list[float]
    ram_capacity: list[float]
    storage_capacity: list[float]
    # scheduler candidates as node indices, in node-id order
    candidate_nodes: list[int]
    # links
    link_bandwidth: list[float]
    link_hop_delay: list[float]  # propagation + fixed, per traversal
    # hop code = link_index * 2 + direction; uplink order, Local hops omitted
    route_hops: list[list[int]]
    up_route: list[list[int]]  # device -> candidate slot -> route id
    # arrivals, sorted by (time, device)
    arrival_time: list[float]
    arrival_device: list[int]
    # per-task constants for this scenario
    length_mi: float
    request_bits: float
    result_bits: float
    task_ram_mb: float
    task_storage_mb: float
    # control
    strategy: int
    control_delay_s: float
    duration_s: float
    collect_trace: bool


@dataclass
class KernelOutputs:
    node_of: list[int]  # -1 when never placed
    uplink_done: list[float]  # NaN when the phase was not reached
    exec_start: list[float]
    exec_end: list[float]
    delivered_at: list[float]
    final_phase: list[int]
    processed_events: int
    trace: list[tuple[float, int, int, int, int]] | None


def _past(time: float, now: float) -> SimulationError:
    return SimulationError(f"scheduled event at t={time!r} in the past (clock={now!r})")


def _drain(bits_left: list[float], rate: float, elapsed: float) -> list[float]:
    """Bits each member has left after `elapsed` seconds at `rate`, clamped at 0."""
    drained = rate * elapsed
    return [bits - drained if bits > drained else 0.0 for bits in bits_left]


def _next_completion(bits_left: list[float], rate: float, now: float) -> tuple[float, int]:
    """(eta, rank) of the member whose serialization ends first.

    The minimum is taken over computed etas, not over remaining bits: rounding
    can tie two etas whose remaining bits differ, and the tie goes to the
    earliest joiner.
    """
    etas = [now + bits / rate for bits in bits_left]
    eta = min(etas)
    return eta, etas.index(eta)


def run(inputs: KernelInputs) -> KernelOutputs:
    """One single-threaded deterministic run: a flat loop over a (time, seq) heap.

    Heap entries are (time, seq, code, arg); arg is the task, or the hop code
    for EV_SER_END. Each link direction keeps one live serialization-end
    event, for the member with the smallest (eta, seq); an older one is
    recognised as superseded because its seq is no longer the one recorded
    in `pending_seq`. Execution start and delivery are recorded when they
    are scheduled, each under the seq its event would have had.

    The event a handler schedules last is held back in `held` and merged into
    the next pop with heappushpop, which returns it without touching the heap
    when it is due first. (time, seq) is unique, so the order is unchanged.
    """
    inp = inputs
    n_tasks = len(inp.arrival_time)
    arrival_time = inp.arrival_time
    arrival_device = inp.arrival_device
    length_mi = inp.length_mi
    task_ram_mb = inp.task_ram_mb
    task_storage_mb = inp.task_storage_mb
    control_delay_s = inp.control_delay_s
    duration_s = inp.duration_s
    request_bits = inp.request_bits
    result_bits = inp.result_bits
    candidates = inp.candidate_nodes
    n_candidates = len(candidates)
    trade_off = inp.strategy == STRATEGY_TRADE_OFF
    weights = inp.weight
    mips_per_core = inp.mips_per_core
    up_route = inp.up_route
    up_hops = inp.route_hops
    # the downlink walks the uplink route backwards with flipped direction
    down_hops = [[code ^ 1 for code in reversed(route)] for route in up_hops]

    # link directions (hop code = link * 2 + direction): fair-share members in
    # join order, their bits left as of last_update, and the live EV_SER_END
    n_dirs = 2 * len(inp.link_bandwidth)
    bandwidth = [inp.link_bandwidth[code >> 1] for code in range(n_dirs)]
    hop_delay = [inp.link_hop_delay[code >> 1] for code in range(n_dirs)]
    members: list = [()] * n_dirs  # () while the link direction is idle
    bits_left: list = [()] * n_dirs
    last_update = [0.0] * n_dirs
    pending_seq = [-1] * n_dirs
    pending_task = [-1] * n_dirs
    # nodes: per-core FIFO free-at times, tasks queued or running, free capacity
    core_free_at = [[0.0] * cores for cores in inp.cores]
    queued = [0] * len(inp.cores)
    free_ram = list(inp.ram_capacity)
    free_storage = list(inp.storage_capacity)
    trace: list | None = [] if inp.collect_trace else None

    t_node = [-1] * n_tasks
    t_phase = [PH_PENDING] * n_tasks
    t_route = [-1] * n_tasks
    t_path: list[list[int] | None] = [None] * n_tasks  # hop codes of the current leg
    t_hop = [0] * n_tasks
    uplink_done = [NAN] * n_tasks
    exec_start = [NAN] * n_tasks
    exec_end = [NAN] * n_tasks
    delivered_at = [NAN] * n_tasks

    if duration_s < 0.0:
        raise _past(duration_s, 0.0)
    heap: list[tuple[float, int, int, int]] = [(duration_s, 0, EV_SIM_END, -1)]
    seq = 1  # next sequence number
    if n_tasks:
        if arrival_time[0] < 0.0:
            raise _past(arrival_time[0], 0.0)
        heappush(heap, (arrival_time[0], seq, EV_ARRIVAL, 0))
        seq += 1
    next_arrival = 1
    rr_next = 0
    processed = 0
    held = ()  # the event the last handler scheduled last, not yet on the heap

    while True:
        if held:
            now, ev_seq, code, task = heappushpop(heap, held)
            held = ()
        elif heap:
            now, ev_seq, code, task = heappop(heap)
        else:
            break
        if now > duration_s:
            break  # every event left lies beyond the horizon
        join = -1  # hop code the task joins as this handler's last step
        if code == EV_SER_END:
            hop = task
            if ev_seq != pending_seq[hop]:
                continue  # superseded by a later share recomputation
            task = pending_task[hop]
            tokens = members[hop]
            if len(tokens) == 1:  # the link goes idle: nothing left to drain
                members[hop] = ()
                last_update[hop] = now
            else:
                left = bits_left[hop]
                elapsed = now - last_update[hop]
                if elapsed > 0.0:
                    left = bits_left[hop] = _drain(left, bandwidth[hop] / len(tokens), elapsed)
                last_update[hop] = now
                rank = tokens.index(task)
                del tokens[rank]
                del left[rank]
                count = len(tokens)
                eta, rank = _next_completion(left, bandwidth[hop] / count, now)
                if eta < now:
                    raise _past(eta, now)
                pending_seq[hop] = seq + rank
                pending_task[hop] = tokens[rank]
                heappush(heap, (eta, seq + rank, EV_SER_END, hop))
                seq += count
            arrive = now + hop_delay[hop]
            if arrive < now:
                raise _past(arrive, now)
            held = (arrive, seq, EV_HOP_ARRIVE, task)
            seq += 1
        elif code == EV_HOP_ARRIVE:
            hop_index = t_hop[task] + 1
            t_hop[task] = hop_index
            path = t_path[task]
            if hop_index < len(path):
                join = path[hop_index]
            elif t_phase[task] == PH_UP:  # uplink complete: queue on the chosen node
                uplink_done[task] = now
                if trace is not None:
                    trace.append((now, ev_seq, TR_TRANSFER_COMPLETE, task, 0))
                node = t_node[task]
                # the core that frees up earliest, ties to the lowest index
                free = core_free_at[node]
                free_at = min(free)
                start = now if now > free_at else free_at
                end = start + length_mi / mips_per_core[node]
                free[free.index(free_at)] = end
                queued[node] += 1
                exec_start[task] = start
                exec_end[task] = end
                if start <= duration_s:  # the execution start falls within the horizon
                    t_phase[task] = PH_RUNNING
                    if trace is not None:
                        trace.append((start, seq, TR_EXECUTION_START, task, node))
                    processed += 1
                else:
                    t_phase[task] = PH_QUEUED
                if end < now:
                    raise _past(end, now)
                held = (end, seq + 1, EV_EXEC_END, task)
                seq += 2
            else:  # downlink complete: the result is delivered now
                delivered_at[task] = now
                t_phase[task] = PH_DELIVERED
                if trace is not None:
                    trace.append((now, ev_seq, TR_TRANSFER_COMPLETE, task, 1))
                    trace.append((now, seq, TR_RESULT_DELIVERED, task, t_node[task]))
                processed += 1
                seq += 1
        elif code == EV_EXEC_END:
            node = t_node[task]
            queued[node] -= 1
            free_ram[node] += task_ram_mb
            free_storage[node] += task_storage_mb
            if trace is not None:
                trace.append((now, ev_seq, TR_EXECUTION_COMPLETE, task, node))
            t_phase[task] = PH_DOWN
            path = t_path[task] = down_hops[t_route[task]]
            if path:
                t_hop[task] = 0
                join = path[0]
            else:
                t_hop[task] = -1
                held = (now, seq, EV_HOP_ARRIVE, task)
                seq += 1
        elif code == EV_ARRIVAL:
            device = arrival_device[task]
            if trace is not None:
                trace.append((now, ev_seq, TR_TASK_ARRIVAL, task, device))
            if next_arrival < n_tasks:
                if arrival_time[next_arrival] < now:
                    raise _past(arrival_time[next_arrival], now)
                heappush(heap, (arrival_time[next_arrival], seq, EV_ARRIVAL, next_arrival))
                seq += 1
                next_arrival += 1
            # placement among the nodes with room for the task's footprint:
            # trade-off argmin (ties to the lowest slot) or round-robin
            chosen_slot = -1
            if trade_off:
                best_score = 0.0
                for slot, node in enumerate(candidates):
                    if task_ram_mb > free_ram[node] or task_storage_mb > free_storage[node]:
                        continue
                    score = (queued[node] + 1) * weights[node] * length_mi / mips_per_core[node]
                    if chosen_slot < 0 or score < best_score:
                        chosen_slot = slot
                        best_score = score
            else:
                for step in range(n_candidates):
                    slot = (rr_next + step) % n_candidates
                    node = candidates[slot]
                    if task_ram_mb > free_ram[node] or task_storage_mb > free_storage[node]:
                        continue
                    chosen_slot = slot
                    rr_next = (slot + 1) % n_candidates
                    break
            if chosen_slot < 0:
                t_phase[task] = PH_NO_PLACEMENT
            else:
                node = candidates[chosen_slot]
                free_ram[node] -= task_ram_mb
                free_storage[node] -= task_storage_mb
                t_node[task] = node
                route_id = t_route[task] = up_route[device][chosen_slot]
                path = t_path[task] = up_hops[route_id]
                t_phase[task] = PH_UP
                if control_delay_s > 0.0 or not path:
                    t_hop[task] = -1
                    arrive = now + control_delay_s
                    if arrive < now:
                        raise _past(arrive, now)
                    held = (arrive, seq, EV_HOP_ARRIVE, task)
                    seq += 1
                else:
                    join = path[0]
        elif trace is not None:  # EV_SIM_END
            trace.append((now, ev_seq, TR_SIMULATION_END, task, -1))
        if join >= 0:
            bits = request_bits if t_phase[task] == PH_UP else result_bits
            tokens = members[join]
            if not tokens:  # an idle link: the transfer gets the whole bandwidth
                members[join] = [task]
                bits_left[join] = [bits]
                last_update[join] = now
                eta = now + bits / bandwidth[join]
                if eta < now:
                    raise _past(eta, now)
                pending_seq[join] = seq
                pending_task[join] = task
                held = (eta, seq, EV_SER_END, join)
                seq += 1
            else:
                if task in tokens:
                    raise SimulationError(f"transfer token {task} already on link")
                count = len(tokens)
                left = bits_left[join]
                elapsed = now - last_update[join]
                if elapsed > 0.0:
                    left = bits_left[join] = _drain(left, bandwidth[join] / count, elapsed)
                last_update[join] = now
                tokens.append(task)
                left.append(bits)
                count += 1
                eta, rank = _next_completion(left, bandwidth[join] / count, now)
                if eta < now:
                    raise _past(eta, now)
                pending_seq[join] = seq + rank
                pending_task[join] = tokens[rank]
                held = (eta, seq + rank, EV_SER_END, join)
                seq += count
        processed += 1

    if trace is not None:
        trace.sort()  # into (time, seq) order, which is the processing order
    return KernelOutputs(
        node_of=t_node,
        uplink_done=uplink_done,
        exec_start=exec_start,
        exec_end=exec_end,
        delivered_at=delivered_at,
        final_phase=t_phase,
        processed_events=processed,
        trace=trace,
    )
