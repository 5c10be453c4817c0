"""The pure-Python backend, as library("python") returns it, and the reference
the C library mirrors with the same signatures: the event loop (run), the
arrival draw (arrivals, which wraps workload.generate_arrivals) and the trace
and tasks.csv writers.

The C event loop in kernel.c mirrors run and reproduces its results bit for
bit: the same events are processed in the same (time, seq) order under
the same sequence numbering, with the same float expressions evaluated in
the same order, and fair-share members kept in join order. Each link
direction keeps one pending serialization-end event, for the member with the
smallest (eta, seq); the sequence counter advances by the member count, so
that event carries the seq it would have had if every member's end were
queued. An execution start counts as processed when it is scheduled, if it
falls inside the horizon, and a delivery when its downlink completes; each
reserves a seq there. Every trace entry is recorded when its event is
popped, so the trace comes out in (time, seq) order, which is the processing
order because (time, seq) is unique. In a traced run only, execution starts
and deliveries are heap events too, under the seq they reserved; popping one
records it and counts nothing. Drained bits are clamped at zero.

The loop checks only the arrival order against the clock: the first arrival
before 0 and each next one before the clock raise SimulationError. Every
other event is scheduled at the clock plus a term check_inputs makes >= 0 or
NaN (bits over a rate, a hop delay, the control delay, or an execution time
after a start no earlier than the clock), which never lands below it. A task
is a member of at most one link direction at a time: it joins one only from
its own event's handler, and leaves it at its serialization end, before its
next hop arrival.

After the loop, one post-run pass over the task columns checks the run's
identities and returns per-node busy time and the sorted latencies. Any
change to the semantics here must be made in kernel.c too, or the two
backends stop being bit-identical.

Inputs and outputs are `array` columns, which the C kernel reads and writes
in place; `run` copies the input columns into local lists once, since
indexing an array boxes each value anew.

All run state lives in lists local to `run`: per link direction, the
fair-share members in join order, their bits left, the last update, and the
live serialization-end event's seq and member rank; per node, the free-at
time of each core, the tasks queued or running and the free RAM and
storage, decremented on placement and restored when execution ends; per
task, its route and the hops of its current leg not yet joined. Links and
routes are read from the inputs: link = hop code >> 1, and downlink hop i of
route r is route_hops[route_start[r + 1] - 1 - i] ^ 1.

The rank a live serialization end keeps is its member's rank when the event
pops: a direction's member list changes only by a join, which appends and
reschedules the pending end, and by the pending member's own serialization
end.
"""

from __future__ import annotations

import math
from array import array
from heapq import heappop, heappush, heappushpop
from itertools import islice

from ..workload import generate_arrivals
from . import (DECOMPOSITION_TOLERANCE_S, OUTPUT_TYPECODES, PH_DELIVERED, PH_DOWN,
               PH_NO_PLACEMENT, PH_PENDING, PH_QUEUED, PH_RUNNING, PH_UP, STRATEGY_TRADE_OFF,
               TR_EXECUTION_COMPLETE, TR_EXECUTION_START, TR_RESULT_DELIVERED,
               TR_SIMULATION_END, TR_TASK_ARRIVAL, TR_TRANSFER_COMPLETE, TRACE_KINDS,
               KernelInputs, KernelOutputs, Trace, _no_text, _out_of_order, _past,
               _unconserved, _undecomposed, check_inputs, tasks_text_columns,
               trace_text_columns)

# internal event codes
EV_ARRIVAL = 0
EV_SER_END = 1
EV_HOP_ARRIVE = 2
EV_EXEC_END = 3
EV_SIM_END = 4
# pushed in traced runs only, to record an entry when popped
EV_TRACE_START = 5
EV_TRACE_DELIVERED = 6

NAN = float("nan")

# Lines the text writers format per write: about 70 KB of trace text. The
# lines, their join and its encoding are the largest transient memory of a
# traced run on this backend.
TEXT_CHUNK = 1024


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


def post_run(arrival_time, node_of, uplink_done, exec_start, exec_end, delivered_at,
             final_phase, duration_s: float, n_nodes: int) -> tuple[list[float], list[float]]:
    """Check a run's identities in one walk over its task columns.

    Conservation: every task is delivered or unfinished, and a task has a
    delivery time exactly when its final phase is delivered. Every delivered
    task's stage durations sum to its latency, give or take
    DECOMPOSITION_TOLERANCE_S, and its stage timestamps are in order. Returns
    each node's busy core-time over the horizon, clipped at the cutoff and
    summed in task order, and the delivered tasks' latencies, ascending.
    """
    busy = [0.0] * n_nodes
    latencies = []
    for task, (node, created, uplink, start, end, delivered) in enumerate(zip(
            node_of, arrival_time, uplink_done, exec_start, exec_end, delivered_at)):
        if start == start:  # not NaN: the task reached a core
            busy[node] += ((end if end < duration_s else duration_s)
                           - (start if start < duration_s else duration_s))
        if delivered != delivered:  # NaN: not delivered
            continue
        latency = delivered - created
        parts = (
            (uplink - created)
            + (start - uplink)
            + (end - start)
            + (delivered - end)
        )
        if abs(parts - latency) > DECOMPOSITION_TOLERANCE_S:
            raise _undecomposed(task, parts, latency)
        if not (created <= uplink <= start <= end <= delivered):
            raise _out_of_order(task)
        latencies.append(latency)
    generated = len(arrival_time)
    unfinished = generated - final_phase.count(PH_DELIVERED)
    if generated != len(latencies) + unfinished:
        raise _unconserved(generated, len(latencies), unfinished)
    latencies.sort()
    return busy, latencies


def run(inputs: KernelInputs) -> KernelOutputs:
    """One single-threaded deterministic run: a flat loop over a (time, seq) heap.

    Heap entries are (time, seq, code, arg); arg is the task, or the hop code
    for EV_SER_END. Each link direction keeps one live serialization-end
    event, for the member with the smallest (eta, seq); an older one is
    recognised as superseded because its seq is no longer the one recorded
    in `pending_seq`.

    The trace columns are filled in (time, seq) order as the run goes: each
    entry is appended when its event is popped. A traced run pushes each
    execution start and delivery as an EV_TRACE_* event, under the seq it
    reserves; popping one appends its entry and is not counted in
    `processed`. An untraced run pushes neither.

    The event a handler schedules last is held back in `held` and merged into
    the next pop with heappushpop, which returns it without touching the heap
    when it is due first. (time, seq) is unique, so the order is unchanged.
    """
    check_inputs(inputs)
    inp = inputs
    n_tasks = len(inp.arrival_time)
    arrival_time = inp.arrival_time.tolist()
    arrival_device = inp.arrival_device.tolist()
    length_mi = inp.length_mi
    task_ram_mb = inp.task_ram_mb
    task_storage_mb = inp.task_storage_mb
    control_delay_s = inp.control_delay_s
    duration_s = inp.duration_s
    request_bits = inp.request_bits
    result_bits = inp.result_bits
    candidates = inp.candidate_nodes.tolist()
    n_candidates = len(candidates)
    trade_off = inp.strategy == STRATEGY_TRADE_OFF
    weights = inp.weight.tolist()
    mips_per_core = inp.mips_per_core.tolist()
    route_start = inp.route_start.tolist()
    route_hops = inp.route_hops.tolist()
    link_bandwidth = inp.link_bandwidth.tolist()
    link_hop_delay = inp.link_hop_delay.tolist()

    # link directions (hop code = link * 2 + direction, so link = hop >> 1):
    # fair-share members in join order, their bits left as of last_update, and
    # the seq and member rank of the live EV_SER_END
    n_dirs = 2 * len(link_bandwidth)
    members: list = [()] * n_dirs  # () while the link direction is idle
    bits_left: list = [()] * n_dirs
    last_update = [0.0] * n_dirs
    pending_seq = [-1] * n_dirs
    pending_rank = [0] * n_dirs
    # nodes: per-core FIFO free-at times, tasks queued or running, free capacity
    core_free_at = [[0.0] * cores for cores in inp.cores]
    queued = [0] * len(inp.cores)
    free_ram = list(inp.ram_capacity)
    free_storage = list(inp.storage_capacity)
    trace = None
    if inp.collect_trace:
        trace = Trace.allocate()
        add_time, add_seq, add_kind, add_task, add_extra = (column.append for column in trace)

        def record(time: float, ev_seq: int, kind: int, task: int, extra: int) -> None:
            """Append the entry of the event being processed."""
            add_time(time)
            add_seq(ev_seq)
            add_kind(kind)
            add_task(task)
            add_extra(extra)

    t_node = [-1] * n_tasks
    t_phase = [PH_PENDING] * n_tasks
    t_route = [-1] * n_tasks
    t_hop = [0] * n_tasks  # hops of the current leg not yet joined
    uplink_done = [NAN] * n_tasks
    exec_start = [NAN] * n_tasks
    exec_end = [NAN] * n_tasks
    delivered_at = [NAN] * n_tasks

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
            tokens = members[hop]
            if len(tokens) == 1:  # the link goes idle: nothing left to drain
                task = tokens[0]
                members[hop] = ()
                last_update[hop] = now
            else:
                left = bits_left[hop]
                elapsed = now - last_update[hop]
                bandwidth = link_bandwidth[hop >> 1]
                if elapsed > 0.0:
                    left = bits_left[hop] = _drain(left, bandwidth / len(tokens), elapsed)
                last_update[hop] = now
                rank = pending_rank[hop]
                task = tokens.pop(rank)
                del left[rank]
                count = len(tokens)
                eta, pending_rank[hop] = _next_completion(left, bandwidth / count, now)
                pending_seq[hop] = seq + pending_rank[hop]
                heappush(heap, (eta, pending_seq[hop], EV_SER_END, hop))
                seq += count
            held = (now + link_hop_delay[hop >> 1], seq, EV_HOP_ARRIVE, task)
            seq += 1
        elif code == EV_HOP_ARRIVE:
            hops = t_hop[task]
            if hops:
                t_hop[task] = hops - 1
                route = t_route[task]
                # the downlink walks the route backwards with flipped direction
                join = (route_hops[route_start[route + 1] - hops] if t_phase[task] == PH_UP
                        else route_hops[route_start[route] + hops - 1] ^ 1)
            elif t_phase[task] == PH_UP:  # uplink complete: queue on the chosen node
                uplink_done[task] = now
                if trace is not None:
                    record(now, ev_seq, TR_TRANSFER_COMPLETE, task, 0)
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
                if start <= duration_s:  # the execution start falls inside the horizon
                    t_phase[task] = PH_RUNNING
                    if trace is not None:
                        heappush(heap, (start, seq, EV_TRACE_START, task))
                    processed += 1
                else:
                    t_phase[task] = PH_QUEUED
                held = (end, seq + 1, EV_EXEC_END, task)
                seq += 2
            else:  # downlink complete: the result is delivered now
                delivered_at[task] = now
                t_phase[task] = PH_DELIVERED
                if trace is not None:
                    record(now, ev_seq, TR_TRANSFER_COMPLETE, task, 1)
                    heappush(heap, (now, seq, EV_TRACE_DELIVERED, task))
                processed += 1
                seq += 1
        elif code == EV_EXEC_END:
            node = t_node[task]
            queued[node] -= 1
            free_ram[node] += task_ram_mb
            free_storage[node] += task_storage_mb
            if trace is not None:
                record(now, ev_seq, TR_EXECUTION_COMPLETE, task, node)
            t_phase[task] = PH_DOWN
            route = t_route[task]
            hops = route_start[route + 1] - route_start[route]
            if hops:
                t_hop[task] = hops - 1
                join = route_hops[route_start[route + 1] - 1] ^ 1
            else:
                t_hop[task] = 0
                held = (now, seq, EV_HOP_ARRIVE, task)
                seq += 1
        elif code == EV_ARRIVAL:
            device = arrival_device[task]
            if trace is not None:
                record(now, ev_seq, TR_TASK_ARRIVAL, task, device)
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
                route = t_route[task] = device * n_candidates + chosen_slot
                hops = route_start[route + 1] - route_start[route]
                t_phase[task] = PH_UP
                if control_delay_s > 0.0 or not hops:
                    t_hop[task] = hops
                    held = (now + control_delay_s, seq, EV_HOP_ARRIVE, task)
                    seq += 1
                else:
                    t_hop[task] = hops - 1
                    join = route_hops[route_start[route]]
        elif code == EV_SIM_END:
            if trace is not None:
                record(now, ev_seq, TR_SIMULATION_END, task, -1)
        else:  # EV_TRACE_*: an entry of a traced run, not a simulation event
            record(now, ev_seq, TR_EXECUTION_START if code == EV_TRACE_START
                   else TR_RESULT_DELIVERED, task, t_node[task])
            continue
        if join >= 0:
            bits = request_bits if t_phase[task] == PH_UP else result_bits
            tokens = members[join]
            if not tokens:  # an idle link: the transfer gets the whole bandwidth
                members[join] = [task]
                bits_left[join] = [bits]
                last_update[join] = now
                pending_seq[join] = seq
                pending_rank[join] = 0
                held = (now + bits / link_bandwidth[join >> 1], seq, EV_SER_END, join)
                seq += 1
            else:
                count = len(tokens)
                left = bits_left[join]
                bandwidth = link_bandwidth[join >> 1]
                elapsed = now - last_update[join]
                if elapsed > 0.0:
                    left = bits_left[join] = _drain(left, bandwidth / count, elapsed)
                last_update[join] = now
                tokens.append(task)
                left.append(bits)
                count += 1
                eta, pending_rank[join] = _next_completion(left, bandwidth / count, now)
                pending_seq[join] = seq + pending_rank[join]
                held = (eta, pending_seq[join], EV_SER_END, join)
                seq += count
        processed += 1

    busy, latencies = post_run(arrival_time, t_node, uplink_done, exec_start, exec_end,
                               delivered_at, t_phase, duration_s, len(inp.cores))
    columns = (t_node, uplink_done, exec_start, exec_end, delivered_at, t_phase, busy,
               latencies)  # in KernelOutputs field order
    return KernelOutputs(
        *(array(code, column) for code, column in zip(OUTPUT_TYPECODES.values(), columns)),
        processed_events=processed,
        trace=trace,
    )


def arrivals(scenario, duration_s: float, seed: int, mode: str) -> tuple[array, array]:
    """workload.generate_arrivals' (times, devices) columns, as `array("d")`
    and `array("i")`."""
    times, devices = generate_arrivals(scenario, duration_s, seed, mode)
    return array("d", times), array("i", devices)


def _write_lines(fh, lines) -> None:
    """Write the text lines to the binary file `fh`, TEXT_CHUNK lines a write."""
    while chunk := list(islice(lines, TEXT_CHUNK)):
        fh.write("".join(chunk).encode())


def _trace_lines(node_ids, rows):
    """One line per kernel trace row (time, seq, kind, task, extra): time, seq,
    kind name and subject, tab-separated and newline-terminated. An arrival's
    subject is its device, and device d is node d. A row with no text is refused."""
    n_nodes = len(node_ids)
    for time, seq, kind, task, extra in rows:
        if kind == TR_TRANSFER_COMPLETE:
            subject = f"task=t{task} leg={'up' if extra == 0 else 'down'}"
        elif kind == TR_SIMULATION_END:
            subject = "-"
        elif TR_TASK_ARRIVAL <= kind < TR_SIMULATION_END and 0 <= extra < n_nodes:
            role = "src" if kind == TR_TASK_ARRIVAL else "node"
            subject = f"task=t{task} {role}={node_ids[extra]}"
        else:
            raise _no_text()
        yield f"{time:.17g}\t{seq}\t{TRACE_KINDS[kind]}\t{subject}\n"


def write_trace(fh, trace: Trace, node_ids) -> None:
    """Write the trace file's lines to the binary file `fh`; node_ids maps a
    node index to its id. At most TEXT_CHUNK lines of text are held at once."""
    _write_lines(fh, _trace_lines(node_ids, zip(*trace_text_columns(trace).values())))


def _timestamp(value: float) -> str:
    """A timestamp cell, empty where NaN means never reached."""
    return "" if math.isnan(value) else f"{value:.12g}"


def _task_lines(rows, node_cells, deadline_s: float, cell: str):
    # the trailing "" is the node_id of a task never placed (node -1)
    nodes = [*node_cells, ""]
    for task, (created, node, uplink, start, end, delivered) in enumerate(rows):
        if not -1 <= node < len(node_cells):
            raise _no_text()
        if math.isnan(delivered):
            yield (f"t{task},{cell},{nodes[node]},{created:.12g},{_timestamp(uplink)},"
                   f"{_timestamp(start)},{_timestamp(end)},,Unfinished,,false\r\n")
        else:  # a delivered task reached every phase (post_run checks it)
            latency = delivered - created
            yield (f"t{task},{cell},{nodes[node]},{created:.12g},{uplink:.12g},{start:.12g},"
                   f"{end:.12g},{delivered:.12g},Delivered,{latency:.12g},"
                   f"{'true' if latency <= deadline_s else 'false'}\r\n")


def write_tasks(fh, generated_at, out: KernelOutputs, node_cells, deadline_s: float,
                cell: str) -> None:
    """Write the tasks.csv rows, UTF-8 encoded, to the binary file `fh`: node
    index i's id is the quoted CSV cell node_cells[i], and `cell` the quoted
    scenario, topology, cpu and seed cells of every row."""
    rows = zip(*tasks_text_columns(generated_at, out).values())
    _write_lines(fh, _task_lines(rows, node_cells, deadline_s, cell))
