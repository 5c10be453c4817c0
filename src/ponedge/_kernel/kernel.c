/*
 * Compiled simulation kernel: the C backend, a plain-C mirror of pykernel.
 *
 * pykernel.py is the reference. This file processes the same events in the
 * same (time, seq) order under the same sequence numbering, evaluates the
 * same float expressions in the same order, and records the same trace
 * entries, each when its event pops, so both backends give bit-identical
 * outputs. Any change to the semantics there must be made here too, and the
 * other way round.
 *
 * No CPython API is used. ckernel.py fills one struct kernel_run with the
 * addresses of the input columns, as they are, and of the output and trace
 * columns it allocated, and calls ponedge_run() through ctypes. Every array
 * allocated here is run-local and freed before the call returns.
 *
 * The file also draws a run's arrivals and writes its text:
 * ponedge_arrivals() is the mirror of pykernel.arrivals, which wraps
 * workload.generate_arrivals, and draws the same floats, and
 * ponedge_trace_text() and ponedge_tasks_text() are the mirrors of
 * pykernel._trace_lines and pykernel._task_lines, and write the same bytes.
 */

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* internal event codes; EV_TRACE_* are pushed in traced runs only */
enum { EV_ARRIVAL, EV_SER_END, EV_HOP_ARRIVE, EV_EXEC_END, EV_SIM_END, EV_TRACE_START,
       EV_TRACE_DELIVERED };

/* trace kinds (the same codes as pykernel.TR_*) */
enum {
    TR_TASK_ARRIVAL, TR_TRANSFER_COMPLETE, TR_EXECUTION_START,
    TR_EXECUTION_COMPLETE, TR_RESULT_DELIVERED, TR_SIMULATION_END
};

/* task phases */
enum {
    PH_PENDING, PH_UP, PH_QUEUED, PH_RUNNING, PH_DOWN, PH_DELIVERED,
    PH_NO_PLACEMENT
};

enum { STRATEGY_TRADE_OFF, STRATEGY_ROUND_ROBIN };

/* return codes, turned into exceptions by ckernel.py */
enum {
    KERNEL_OK, KERNEL_PAST, KERNEL_NO_MEMORY, KERNEL_DECOMPOSITION, KERNEL_ORDER,
    KERNEL_CONSERVATION
};

/* One run, in the order ckernel._Run builds it from the kernel contract: lengths;
 * input, output and trace columns; float constants; the rest.
 * tests/test_kernel_build.py pins the two layouts to each other. */
struct kernel_run {
    int n_nodes;
    int n_candidates;
    int n_links;
    int n_routes;
    int n_tasks;
    /* nodes, index-aligned */
    const double *mips_per_core;
    const int *cores;
    const double *weight;
    const double *ram_capacity;
    const double *storage_capacity;
    /* scheduler candidates as node indices, in node-id order */
    const int *candidate_nodes;
    /* links; hop code = link_index * 2 + direction */
    const double *link_bandwidth;
    const double *link_hop_delay;
    /* route r is route_hops[route_start[r] .. route_start[r + 1]); route
     * device * n_candidates + slot goes from that device to that slot */
    const int *route_start; /* n_routes + 1 entries */
    const int *route_hops;
    /* arrivals, sorted by (time, device) */
    const double *arrival_time;
    const int *arrival_device;
    /* outputs, n_tasks entries each */
    int *node_of;
    double *uplink_done;
    double *exec_start;
    double *exec_end;
    double *delivered_at;
    int *final_phase;
    /* from the post-run pass: busy core-time per node (n_nodes entries), and
     * the n_latencies delivered latencies, ascending (room for n_tasks) */
    double *busy;
    double *latencies;
    /* trace columns with room for 6 entries per task plus the simulation
     * end, in (time, seq) order; trace_time is NULL for an untraced run */
    double *trace_time;
    long long *trace_seq;
    int *trace_kind;
    int *trace_task;
    int *trace_extra;
    /* per-task constants and control */
    double length_mi;
    double request_bits;
    double result_bits;
    double task_ram_mb;
    double task_storage_mb;
    double control_delay_s;
    double duration_s;
    double tolerance; /* _kernel.DECOMPOSITION_TOLERANCE_S */
    int strategy;
    int n_latencies;
    long long processed_events;
    long long trace_len;
    /* KERNEL_PAST: a the arrival time, b the clock;
     * KERNEL_DECOMPOSITION: the task, a its components, b its latency;
     * KERNEL_ORDER: the task;
     * KERNEL_CONSERVATION: a the tasks delivered, b the tasks unfinished */
    double error_a;
    double error_b;
    int error_task;
};

struct event {
    double time;
    long long seq;
    int code;
    int arg; /* the task, or the hop code for EV_SER_END */
};

/* the fair-share members of one link direction, in join order */
struct pool {
    int count;
    int capacity;
    int *task;
    double *bits; /* bits left as of the direction's last update */
};

static int before(const struct event *a, const struct event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

struct heap {
    struct event *items;
    int len;
    int capacity;
};

static void sift_down(struct heap *h, int i)
{
    struct event item = h->items[i];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= h->len)
            break;
        if (child + 1 < h->len && before(&h->items[child + 1], &h->items[child]))
            child++;
        if (!before(&h->items[child], &item))
            break;
        h->items[i] = h->items[child];
        i = child;
    }
    h->items[i] = item;
}

static int heap_push(struct heap *h, struct event ev)
{
    int i;
    if (h->len == h->capacity) {
        int capacity = 2 * h->capacity;
        struct event *items = realloc(h->items, (size_t)capacity * sizeof *items);
        if (items == NULL)
            return -1;
        h->items = items;
        h->capacity = capacity;
    }
    i = h->len++;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!before(&ev, &h->items[parent]))
            break;
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->items[i] = ev;
    return 0;
}

static struct event heap_pop(struct heap *h)
{
    struct event top = h->items[0];
    if (--h->len > 0) {
        h->items[0] = h->items[h->len];
        sift_down(h, 0);
    }
    return top;
}

/* heapq.heappushpop: `ev` itself when it is due first, else the top,
 * with `ev` put in its place */
static struct event heap_pushpop(struct heap *h, struct event ev)
{
    struct event top;
    if (h->len == 0 || !before(&h->items[0], &ev))
        return ev;
    top = h->items[0];
    h->items[0] = ev;
    sift_down(h, 0);
    return top;
}

static int pool_append(struct pool *p, int task, double bits)
{
    if (p->count == p->capacity) {
        int capacity = p->capacity ? 2 * p->capacity : 4;
        int *tasks = realloc(p->task, (size_t)capacity * sizeof *tasks);
        double *left;
        if (tasks == NULL)
            return -1;
        p->task = tasks;
        left = realloc(p->bits, (size_t)capacity * sizeof *left);
        if (left == NULL)
            return -1;
        p->bits = left;
        p->capacity = capacity;
    }
    p->task[p->count] = task;
    p->bits[p->count] = bits;
    p->count++;
    return 0;
}

/* pykernel._drain: bits each member has left after `elapsed` seconds at
 * `rate`, clamped at 0 */
static void drain(struct pool *p, double rate, double elapsed)
{
    double drained = rate * elapsed;
    int i;
    for (i = 0; i < p->count; i++)
        p->bits[i] = p->bits[i] > drained ? p->bits[i] - drained : 0.0;
}

/* pykernel._next_completion: the rank of the member whose serialization
 * ends first, the earliest joiner on a tie of computed etas */
static int next_completion(const struct pool *p, double rate, double now, double *eta)
{
    int rank = 0;
    int i;
    *eta = now + p->bits[0] / rate;
    for (i = 1; i < p->count; i++) {
        double candidate = now + p->bits[i] / rate;
        if (candidate < *eta) {
            *eta = candidate;
            rank = i;
        }
    }
    return rank;
}

static int double_order(const void *a, const void *b)
{
    double x = *(const double *)a;
    double y = *(const double *)b;
    return (x > y) - (x < y);
}

/*
 * pykernel.post_run: check the run's identities in one walk over its task
 * columns, fill busy with each node's busy core-time over the horizon,
 * clipped at the cutoff and summed in task order, and latencies with the
 * delivered tasks' latencies, ascending. Returns KERNEL_OK, or the code of
 * the first identity broken, in the order pykernel checks them.
 */
static int post_run(struct kernel_run *run)
{
    const double duration_s = run->duration_s;
    int phase_delivered = 0;
    int n = 0;
    int node, task;
    for (node = 0; node < run->n_nodes; node++)
        run->busy[node] = 0.0;
    for (task = 0; task < run->n_tasks; task++) {
        double created = run->arrival_time[task];
        double uplink = run->uplink_done[task];
        double start = run->exec_start[task];
        double end = run->exec_end[task];
        double delivered = run->delivered_at[task];
        double latency, parts;
        if (run->final_phase[task] == PH_DELIVERED)
            phase_delivered++;
        if (start == start) /* not NaN: the task reached a core */
            run->busy[run->node_of[task]] += (end < duration_s ? end : duration_s)
                                             - (start < duration_s ? start : duration_s);
        if (delivered != delivered) /* NaN: not delivered */
            continue;
        latency = delivered - created;
        parts = (uplink - created) + (start - uplink) + (end - start) + (delivered - end);
        if (fabs(parts - latency) > run->tolerance) {
            run->error_task = task;
            run->error_a = parts;
            run->error_b = latency;
            return KERNEL_DECOMPOSITION;
        }
        if (!(created <= uplink && uplink <= start && start <= end && end <= delivered)) {
            run->error_task = task;
            return KERNEL_ORDER;
        }
        run->latencies[n++] = latency;
    }
    if (n != phase_delivered) {
        run->error_a = n;
        run->error_b = run->n_tasks - phase_delivered;
        return KERNEL_CONSERVATION;
    }
    if (n > 0)
        qsort(run->latencies, (size_t)n, sizeof *run->latencies, double_order);
    run->n_latencies = n;
    return KERNEL_OK;
}

static void *zeroed(size_t count, size_t size)
{
    return calloc(count ? count : 1, size);
}

#define PAST(time_, now_)                                                      \
    do {                                                                       \
        run->error_a = (time_);                                                \
        run->error_b = (now_);                                                 \
        status = KERNEL_PAST;                                                  \
        goto done;                                                             \
    } while (0)

#define PUSH(time_, seq_, code_, arg_)                                         \
    do {                                                                       \
        struct event pushed_ = {(time_), (seq_), (code_), (arg_)};             \
        if (heap_push(&heap, pushed_))                                         \
            goto no_memory;                                                    \
    } while (0)

#define HOLD(time_, seq_, code_, arg_)                                         \
    do {                                                                       \
        struct event held_ = {(time_), (seq_), (code_), (arg_)};               \
        held = held_;                                                          \
        has_held = 1;                                                          \
    } while (0)

/* the entry of the event being processed, straight into the trace */
#define RECORD(time_, seq_, kind_, task_, extra_)                              \
    do {                                                                       \
        if (traced) {                                                          \
            run->trace_time[n_trace] = (time_);                                \
            run->trace_seq[n_trace] = (seq_);                                  \
            run->trace_kind[n_trace] = (kind_);                                \
            run->trace_task[n_trace] = (task_);                                \
            run->trace_extra[n_trace] = (extra_);                              \
            n_trace++;                                                         \
        }                                                                      \
    } while (0)

/*
 * One single-threaded deterministic run: a flat loop over a (time, seq)
 * heap, as in pykernel.run. Each link direction keeps one live
 * serialization-end event, for the member with the smallest (eta, seq); the
 * sequence counter advances by the member count, so that event carries the
 * seq it would have had if every member's end were queued. Every trace
 * entry is recorded when its event is popped, so the trace columns fill in
 * (time, seq) order; a traced run pushes each execution start and delivery
 * as an EV_TRACE_* event under the seq it reserves, and popping one records
 * it and counts nothing. The event a handler schedules last is held back
 * and merged into the next pop. After the loop, the post-run pass checks
 * the run and reduces it.
 *
 * ckernel.py calls _kernel.check_inputs first: the lengths agree, every
 * index is in range, the cores sum to an int, and the task constants, the
 * control delay, the horizon and the hop delays are >= 0, so nothing here
 * checks them. The loop checks only the arrival order against the clock
 * (KERNEL_PAST): every other event lands at the clock plus a term that is
 * >= 0 or NaN (bits over a rate, a hop delay, the control delay, or an
 * execution time after a start no earlier than the clock), never below it.
 * A task is a member of at most one link direction at a time: it joins one
 * only from its own event's handler and leaves it at its serialization end,
 * before its next hop arrival. Returns KERNEL_OK, or the KERNEL_* code of
 * what broke.
 */
int ponedge_run(struct kernel_run *run)
{
    const int n_tasks = run->n_tasks;
    const int n_candidates = run->n_candidates;
    const int n_dirs = 2 * run->n_links;
    const double *arrival_time = run->arrival_time;
    const double *mips_per_core = run->mips_per_core;
    const double length_mi = run->length_mi;
    const double task_ram_mb = run->task_ram_mb;
    const double task_storage_mb = run->task_storage_mb;
    const double duration_s = run->duration_s;
    const int trade_off = run->strategy == STRATEGY_TRADE_OFF;
    const int *route_start = run->route_start;
    const int *up_hops = run->route_hops;
    int *t_node = run->node_of;
    int *t_phase = run->final_phase;
    int status = KERNEL_OK;
    int i;

    /* the downlink walks the uplink route backwards with flipped direction */
    int *down_hops = zeroed((size_t)route_start[run->n_routes], sizeof *down_hops);
    /* link directions: fair-share members, last update and live EV_SER_END */
    double *bandwidth = zeroed((size_t)n_dirs, sizeof *bandwidth);
    double *hop_delay = zeroed((size_t)n_dirs, sizeof *hop_delay);
    struct pool *members = zeroed((size_t)n_dirs, sizeof *members);
    double *last_update = zeroed((size_t)n_dirs, sizeof *last_update);
    long long *pending_seq = zeroed((size_t)n_dirs, sizeof *pending_seq);
    int *pending_task = zeroed((size_t)n_dirs, sizeof *pending_task);
    /* nodes: per-core FIFO free-at times, tasks queued or running, free capacity */
    int *core_start = zeroed((size_t)run->n_nodes + 1, sizeof *core_start);
    double *core_free_at = NULL;
    int *queued = zeroed((size_t)run->n_nodes, sizeof *queued);
    double *free_ram = zeroed((size_t)run->n_nodes, sizeof *free_ram);
    double *free_storage = zeroed((size_t)run->n_nodes, sizeof *free_storage);
    /* tasks: route and hop index on the current leg */
    int *t_route = zeroed((size_t)n_tasks, sizeof *t_route);
    int *t_hop = zeroed((size_t)n_tasks, sizeof *t_hop);
    const int traced = run->trace_time != NULL;
    long long n_trace = 0;
    struct heap heap = {zeroed(64, sizeof(struct event)), 0, 64};
    struct event held = {0.0, 0, 0, 0};
    int has_held = 0;
    long long seq = 1; /* next sequence number */
    long long processed = 0;
    int next_arrival = 1;
    int rr_next = 0;

    if (down_hops == NULL || bandwidth == NULL || hop_delay == NULL || members == NULL
        || last_update == NULL || pending_seq == NULL || pending_task == NULL
        || core_start == NULL || queued == NULL || free_ram == NULL
        || free_storage == NULL || t_route == NULL || t_hop == NULL || heap.items == NULL)
        goto no_memory;
    for (i = 0; i < run->n_routes; i++) {
        int start = route_start[i];
        int end = route_start[i + 1];
        int k;
        for (k = start; k < end; k++)
            down_hops[k] = up_hops[start + end - 1 - k] ^ 1;
    }
    for (i = 0; i < n_dirs; i++) {
        bandwidth[i] = run->link_bandwidth[i >> 1];
        hop_delay[i] = run->link_hop_delay[i >> 1];
        pending_seq[i] = -1;
        pending_task[i] = -1;
    }
    for (i = 0; i < run->n_nodes; i++) {
        core_start[i + 1] = core_start[i] + run->cores[i];
        free_ram[i] = run->ram_capacity[i];
        free_storage[i] = run->storage_capacity[i];
    }
    core_free_at = zeroed((size_t)core_start[run->n_nodes], sizeof *core_free_at);
    if (core_free_at == NULL)
        goto no_memory;
    for (i = 0; i < n_tasks; i++) {
        t_node[i] = -1;
        t_phase[i] = PH_PENDING;
        t_route[i] = -1;
        run->uplink_done[i] = NAN;
        run->exec_start[i] = NAN;
        run->exec_end[i] = NAN;
        run->delivered_at[i] = NAN;
    }

    PUSH(duration_s, 0, EV_SIM_END, -1);
    if (n_tasks > 0) {
        if (arrival_time[0] < 0.0)
            PAST(arrival_time[0], 0.0);
        PUSH(arrival_time[0], seq, EV_ARRIVAL, 0);
        seq++;
    }

    for (;;) {
        struct event ev;
        double now;
        int task;
        int join = -1; /* hop code the task joins as this handler's last step */
        if (has_held) {
            ev = heap_pushpop(&heap, held);
            has_held = 0;
        } else if (heap.len > 0) {
            ev = heap_pop(&heap);
        } else {
            break;
        }
        now = ev.time;
        task = ev.arg;
        if (now > duration_s)
            break; /* every event left lies beyond the horizon */
        if (ev.code == EV_SER_END) {
            int hop = ev.arg;
            struct pool *p = &members[hop];
            if (ev.seq != pending_seq[hop])
                continue; /* superseded by a later share recomputation */
            task = pending_task[hop];
            if (p->count == 1) { /* the link goes idle: nothing left to drain */
                p->count = 0;
                last_update[hop] = now;
            } else {
                double elapsed = now - last_update[hop];
                double eta;
                int rank;
                if (elapsed > 0.0)
                    drain(p, bandwidth[hop] / p->count, elapsed);
                last_update[hop] = now;
                for (rank = 0; p->task[rank] != task; rank++)
                    ;
                p->count--;
                for (; rank < p->count; rank++) {
                    p->task[rank] = p->task[rank + 1];
                    p->bits[rank] = p->bits[rank + 1];
                }
                rank = next_completion(p, bandwidth[hop] / p->count, now, &eta);
                pending_seq[hop] = seq + rank;
                pending_task[hop] = p->task[rank];
                PUSH(eta, seq + rank, EV_SER_END, hop);
                seq += p->count;
            }
            HOLD(now + hop_delay[hop], seq, EV_HOP_ARRIVE, task);
            seq++;
        } else if (ev.code == EV_HOP_ARRIVE) {
            int route = t_route[task];
            int hop_index = ++t_hop[task];
            int up = t_phase[task] == PH_UP;
            if (hop_index < route_start[route + 1] - route_start[route]) {
                join = (up ? up_hops : down_hops)[route_start[route] + hop_index];
            } else if (up) { /* uplink complete: queue on the chosen node */
                int node = t_node[task];
                double *free_at = core_free_at + core_start[node];
                int core = 0;
                int k;
                double start, end;
                run->uplink_done[task] = now;
                RECORD(now, ev.seq, TR_TRANSFER_COMPLETE, task, 0);
                /* the core that frees up earliest, ties to the lowest index */
                for (k = 1; k < run->cores[node]; k++)
                    if (free_at[k] < free_at[core])
                        core = k;
                start = now > free_at[core] ? now : free_at[core];
                end = start + length_mi / mips_per_core[node];
                free_at[core] = end;
                queued[node]++;
                run->exec_start[task] = start;
                run->exec_end[task] = end;
                if (start <= duration_s) { /* the execution start falls inside the horizon */
                    t_phase[task] = PH_RUNNING;
                    if (traced)
                        PUSH(start, seq, EV_TRACE_START, task);
                    processed++;
                } else {
                    t_phase[task] = PH_QUEUED;
                }
                HOLD(end, seq + 1, EV_EXEC_END, task);
                seq += 2;
            } else { /* downlink complete: the result is delivered now */
                run->delivered_at[task] = now;
                t_phase[task] = PH_DELIVERED;
                RECORD(now, ev.seq, TR_TRANSFER_COMPLETE, task, 1);
                if (traced)
                    PUSH(now, seq, EV_TRACE_DELIVERED, task);
                processed++;
                seq++;
            }
        } else if (ev.code == EV_EXEC_END) {
            int node = t_node[task];
            int route = t_route[task];
            queued[node]--;
            free_ram[node] += task_ram_mb;
            free_storage[node] += task_storage_mb;
            RECORD(now, ev.seq, TR_EXECUTION_COMPLETE, task, node);
            t_phase[task] = PH_DOWN;
            if (route_start[route + 1] > route_start[route]) {
                t_hop[task] = 0;
                join = down_hops[route_start[route]];
            } else {
                t_hop[task] = -1;
                HOLD(now, seq, EV_HOP_ARRIVE, task);
                seq++;
            }
        } else if (ev.code == EV_ARRIVAL) {
            int device = run->arrival_device[task];
            int chosen_slot = -1;
            RECORD(now, ev.seq, TR_TASK_ARRIVAL, task, device);
            if (next_arrival < n_tasks) {
                if (arrival_time[next_arrival] < now)
                    PAST(arrival_time[next_arrival], now);
                PUSH(arrival_time[next_arrival], seq, EV_ARRIVAL, next_arrival);
                seq++;
                next_arrival++;
            }
            /* placement among the nodes with room for the task's footprint:
             * trade-off argmin (ties to the lowest slot) or round-robin */
            if (trade_off) {
                double best_score = 0.0;
                int slot;
                for (slot = 0; slot < n_candidates; slot++) {
                    int node = run->candidate_nodes[slot];
                    double score;
                    if (task_ram_mb > free_ram[node] || task_storage_mb > free_storage[node])
                        continue;
                    score = (double)(queued[node] + 1) * run->weight[node] * length_mi
                            / mips_per_core[node];
                    if (chosen_slot < 0 || score < best_score) {
                        chosen_slot = slot;
                        best_score = score;
                    }
                }
            } else {
                int step;
                for (step = 0; step < n_candidates; step++) {
                    int slot = (rr_next + step) % n_candidates;
                    int node = run->candidate_nodes[slot];
                    if (task_ram_mb > free_ram[node] || task_storage_mb > free_storage[node])
                        continue;
                    chosen_slot = slot;
                    rr_next = (slot + 1) % n_candidates;
                    break;
                }
            }
            if (chosen_slot < 0) {
                t_phase[task] = PH_NO_PLACEMENT;
            } else {
                int node = run->candidate_nodes[chosen_slot];
                int route = device * n_candidates + chosen_slot;
                free_ram[node] -= task_ram_mb;
                free_storage[node] -= task_storage_mb;
                t_node[task] = node;
                t_route[task] = route;
                t_phase[task] = PH_UP;
                if (run->control_delay_s > 0.0 || route_start[route + 1] == route_start[route]) {
                    t_hop[task] = -1;
                    HOLD(now + run->control_delay_s, seq, EV_HOP_ARRIVE, task);
                    seq++;
                } else {
                    join = up_hops[route_start[route]];
                }
            }
        } else if (ev.code == EV_SIM_END) {
            RECORD(now, ev.seq, TR_SIMULATION_END, task, -1);
        } else { /* EV_TRACE_*: an entry of a traced run, not a simulation event */
            RECORD(now, ev.seq,
                   ev.code == EV_TRACE_START ? TR_EXECUTION_START : TR_RESULT_DELIVERED, task,
                   t_node[task]);
            continue;
        }
        if (join >= 0) {
            double bits = t_phase[task] == PH_UP ? run->request_bits : run->result_bits;
            struct pool *p = &members[join];
            if (p->count == 0) { /* an idle link: the transfer gets the whole bandwidth */
                if (pool_append(p, task, bits))
                    goto no_memory;
                last_update[join] = now;
                pending_seq[join] = seq;
                pending_task[join] = task;
                HOLD(now + bits / bandwidth[join], seq, EV_SER_END, join);
                seq++;
            } else {
                double elapsed = now - last_update[join];
                double eta;
                int rank;
                if (elapsed > 0.0)
                    drain(p, bandwidth[join] / p->count, elapsed);
                last_update[join] = now;
                if (pool_append(p, task, bits))
                    goto no_memory;
                rank = next_completion(p, bandwidth[join] / p->count, now, &eta);
                pending_seq[join] = seq + rank;
                pending_task[join] = p->task[rank];
                HOLD(eta, seq + rank, EV_SER_END, join);
                seq += p->count;
            }
        }
        processed++;
    }

    run->processed_events = processed;
    run->trace_len = n_trace;
    status = post_run(run);
    goto done;

no_memory:
    status = KERNEL_NO_MEMORY;
done:
    if (members != NULL) {
        for (i = 0; i < n_dirs; i++) {
            free(members[i].task);
            free(members[i].bits);
        }
    }
    free(down_hops);
    free(bandwidth);
    free(hop_delay);
    free(members);
    free(last_update);
    free(pending_seq);
    free(pending_task);
    free(core_start);
    free(core_free_at);
    free(queued);
    free(free_ram);
    free(free_storage);
    free(t_route);
    free(t_hop);
    free(heap.items);
    return status;
}

/*
 * Task arrivals: the mirror of workload.generate_arrivals. Device d continues
 * the SplitMix64 stream (engine.Stream) whose state Python seeded, state[d].
 */
struct arrivals {
    int n_devices;
    const unsigned long long *state;
    double interval_s;
    double duration_s;
    int poisson; /* 1: exponential inter-arrivals; 0: fixed, after a drawn phase */
};

struct arrival {
    double time;
    int device;
};

/* engine.Stream.uniform */
static double uniform(unsigned long long *state)
{
    unsigned long long z = *state += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1p-53;
}

/* the number of device d's arrivals before the horizon, the first `room` of
 * them stored into out in time order */
static long long draw(const struct arrivals *a, int d, struct arrival *out, long long room)
{
    unsigned long long state = a->state[d];
    const double interval = a->interval_s;
    long long n = 0;
    /* engine.Stream.exponential is -mean * log1p(-uniform()) */
    double t = a->poisson ? -interval * log1p(-uniform(&state)) : uniform(&state) * interval;
    while (t < a->duration_s) {
        if (n < room) {
            out[n].time = t;
            out[n].device = d;
        }
        n++;
        t += a->poisson ? -interval * log1p(-uniform(&state)) : interval;
    }
    return n;
}

static int arrival_order(const void *a, const void *b)
{
    const struct arrival *x = a, *y = b;
    if (x->time != y->time)
        return x->time < y->time ? -1 : 1;
    return (x->device > y->device) - (x->device < y->device);
}

/*
 * The number of arrivals before the horizon, over every device. With
 * capacity > 0, also writes the first `capacity` of them, sorted by (time,
 * device) as generate_arrivals returns them, into time[] and device[]; a
 * caller that counted first passes that count. Returns -1 when out of memory.
 */
long long ponedge_arrivals(const struct arrivals *a, double *time, int *device,
                           long long capacity)
{
    struct arrival *all = NULL;
    long long n = 0;
    long long k;
    int d;
    if (capacity > 0 && (all = malloc((size_t)capacity * sizeof *all)) == NULL)
        return -1;
    for (d = 0; d < a->n_devices; d++) {
        k = n < capacity ? n : capacity; /* arrivals stored so far */
        n += draw(a, d, all == NULL ? NULL : all + k, capacity - k);
    }
    if (all != NULL) {
        k = n < capacity ? n : capacity;
        qsort(all, (size_t)k, sizeof *all, arrival_order);
        while (k-- > 0) {
            time[k] = all[k].time;
            device[k] = all[k].device;
        }
        free(all);
    }
    return n;
}

/*
 * The run's text. A writer formats rows [start, n) into a caller buffer of
 * `capacity` bytes, whole lines only, stops at the first line that does not
 * fit, stores the rows it wrote in *rows and returns the bytes it wrote. It
 * returns -1 instead when it reaches a row whose kind or node index has no
 * text.
 */

/* the caller's buffer; a piece that does not fit marks it full */
struct sink {
    char *pos;
    char *end;
    int full;
};

static void put(struct sink *s, const char *text, size_t len)
{
    if (s->full || len > (size_t)(s->end - s->pos)) {
        s->full = 1;
        return;
    }
    memcpy(s->pos, text, len);
    s->pos += len;
}

#define PUT_LITERAL(s_, text_) put((s_), (text_), sizeof(text_) - 1)

/* v in decimal, at least `width` characters, zero-padded after any sign:
 * Python's format(v, "0{width}d") */
static size_t int_text(char *dst, long long v, int width)
{
    char digits[20];
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    int n = 0;
    int pad;
    size_t len = 0;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        dst[len++] = '-';
    for (pad = width - (int)len - n; pad > 0; pad--)
        dst[len++] = '0';
    while (n > 0)
        dst[len++] = digits[--n];
    return len;
}

static void put_int(struct sink *s, long long v)
{
    char text[24];
    put(s, text, int_text(text, v, 0));
}

#ifdef __SIZEOF_INT128__
static const unsigned long long POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
};

/*
 * v rounded to `precision` (<= 17) significant digits, half to even on its
 * exact binary value: *digits holds them as an integer in
 * [10^(precision-1), 10^precision) and *exponent the decimal exponent of the
 * first. For v in [1e-6, 2^53), v = m * 2^-shift with m < 2^53 and
 * shift <= 72, so m * 10^k, k <= 22, is exact in 128 bits; the digits are its
 * quotient by 2^shift, rounded on the remainder (Ryu printf, restricted to this
 * range). Returns 0, with nothing stored, where k would leave [0, 22].
 */
static int exact_digits(double v, int precision, unsigned long long *digits, int *exponent)
{
    int binary;
    const unsigned long long m = (unsigned long long)ldexp(frexp(v, &binary), 53);
    const int shift = 53 - binary;
    /* v is in [2^(binary-1), 2^binary), so floor(log10(v)) is
     * floor((binary - 1) * log10(2)) or one more; log10(2) is about
     * 78913 / 2^18, exact in that floor for every binary in range. Start at
     * the larger, and step down once if v is below 10^x. */
    const int scaled = (binary - 1) * 78913;
    int x = (scaled >= 0 ? scaled / 262144 : -((-scaled + 262143) / 262144)) + 1;
    for (;;) {
        const int k = precision - 1 - x;
        unsigned __int128 n, rest, half;
        unsigned long long d;
        if (k < 0 || k > 22)
            return 0;
        n = (unsigned __int128)m * POW10[k < 19 ? k : 19];
        if (k > 19)
            n *= POW10[k - 19];
        d = (unsigned long long)(n >> shift);
        if (d < POW10[precision - 1]) { /* v < 10^x */
            x--;
            continue;
        }
        if (shift > 0) {
            rest = n - ((unsigned __int128)d << shift);
            half = (unsigned __int128)1 << (shift - 1);
            if (rest > half || (rest == half && (d & 1)))
                d++;
            if (d == POW10[precision]) { /* rounded up to the next power of ten */
                d = POW10[precision - 1];
                x++;
            }
        }
        *digits = d;
        *exponent = x;
        return 1;
    }
}

/* the %g layout of digits * 10^(exponent - precision + 1): trailing zeros
 * stripped, fixed notation for -4 <= exponent < precision, else scientific
 * with an exponent of at least two digits */
static size_t g_layout(char *dst, unsigned long long digits, int exponent, int precision)
{
    char text[20];
    int n = precision;
    int i;
    size_t len = 0;
    for (i = precision - 1; i >= 0; i--) {
        text[i] = (char)('0' + digits % 10);
        digits /= 10;
    }
    while (text[n - 1] == '0') /* text[0] is not */
        n--;
    if (exponent < -4 || exponent >= precision) {
        dst[len++] = text[0];
        if (n > 1) {
            dst[len++] = '.';
            memcpy(dst + len, text + 1, (size_t)n - 1);
            len += (size_t)n - 1;
        }
        dst[len++] = 'e';
        dst[len++] = exponent < 0 ? '-' : '+';
        len += int_text(dst + len, exponent < 0 ? -exponent : exponent, 2);
    } else if (exponent >= 0) {
        memcpy(dst, text, (size_t)exponent + 1);
        len = (size_t)exponent + 1;
        if (n > exponent + 1) {
            dst[len++] = '.';
            memcpy(dst + len, text + exponent + 1, (size_t)(n - exponent - 1));
            len += (size_t)(n - exponent - 1);
        }
    } else {
        dst[len++] = '0';
        dst[len++] = '.';
        for (i = -1; i > exponent; i--)
            dst[len++] = '0';
        memcpy(dst + len, text, (size_t)n);
        len += (size_t)n;
    }
    return len;
}
#endif

/* Python's format(v, ".{precision}g"), which is C's %.{precision}g except
 * that every NaN is "nan"; at most 24 characters */
static void put_g(struct sink *s, double v, int precision)
{
    char text[32];
#ifdef __SIZEOF_INT128__
    unsigned long long digits;
    int exponent;
    if (v >= 1e-6 && v < 9007199254740992.0 && exact_digits(v, precision, &digits, &exponent)) {
        put(s, text, g_layout(text, digits, exponent, precision));
        return;
    }
#endif
    if (v != v)
        PUT_LITERAL(s, "nan");
    else
        put(s, text, (size_t)snprintf(text, sizeof text, "%.*g", precision, v));
}

/* node label i: text[start[i] .. start[i + 1]) */
static void put_label(struct sink *s, const char *text, const int *start, int i)
{
    put(s, text + start[i], (size_t)(start[i + 1] - start[i]));
}

/* pykernel.TRACE_KINDS */
static const char *const TRACE_KIND_NAMES[] = {
    "TaskArrival", "TransferComplete", "ExecutionStart", "ExecutionComplete",
    "ResultDelivered", "SimulationEnd",
};

/* The trace columns, in (time, seq) order, and the node ids, ASCII. */
struct trace_text {
    long long n_rows;
    const double *time;
    const long long *seq;
    const int *kind;
    const int *task;
    const int *extra;
    int n_nodes;
    const char *node_text;
    const int *node_start; /* n_nodes + 1 entries */
};

/* pykernel._trace_lines: time, seq, kind and subject, tab-separated */
long long ponedge_trace_text(const struct trace_text *t, long long start, char *buffer,
                             long long capacity, long long *rows)
{
    struct sink s = {buffer, buffer + capacity, 0};
    long long row;
    for (row = start; row < t->n_rows; row++) {
        char *line = s.pos;
        const int kind = t->kind[row];
        const int extra = t->extra[row];
        if (kind < TR_TASK_ARRIVAL || kind > TR_SIMULATION_END
            || (kind != TR_TRANSFER_COMPLETE && kind != TR_SIMULATION_END
                && (extra < 0 || extra >= t->n_nodes)))
            return -1;
        put_g(&s, t->time[row], 17);
        PUT_LITERAL(&s, "\t");
        put_int(&s, t->seq[row]);
        PUT_LITERAL(&s, "\t");
        put(&s, TRACE_KIND_NAMES[kind], strlen(TRACE_KIND_NAMES[kind]));
        if (kind == TR_SIMULATION_END) {
            PUT_LITERAL(&s, "\t-\n");
        } else {
            PUT_LITERAL(&s, "\ttask=t");
            put_int(&s, t->task[row]);
            if (kind == TR_TASK_ARRIVAL) { /* device d is node d */
                PUT_LITERAL(&s, " src=");
                put_label(&s, t->node_text, t->node_start, extra);
                PUT_LITERAL(&s, "\n");
            } else if (kind == TR_TRANSFER_COMPLETE) {
                if (extra == 0)
                    PUT_LITERAL(&s, " leg=up\n");
                else
                    PUT_LITERAL(&s, " leg=down\n");
            } else {
                PUT_LITERAL(&s, " node=");
                put_label(&s, t->node_text, t->node_start, extra);
                PUT_LITERAL(&s, "\n");
            }
        }
        if (s.full) {
            s.pos = line;
            break;
        }
    }
    *rows = row - start;
    return s.pos - buffer;
}

/* The task columns, the cell's quoted scenario, topology, cpu and seed
 * fields, and each node's quoted id, in the file's encoding. */
struct tasks_text {
    int n_tasks;
    const double *created;
    const int *node_of; /* -1: never placed, an empty node id */
    const double *uplink_done;
    const double *exec_start;
    const double *exec_end;
    const double *delivered_at;
    double deadline_s;
    const char *cell;
    int cell_len;
    int n_nodes;
    const char *node_text;
    const int *node_start; /* n_nodes + 1 entries */
};

/* pykernel._timestamp: blank for a phase never reached */
static void put_timestamp(struct sink *s, double v)
{
    if (v == v)
        put_g(s, v, 12);
}

/* pykernel._task_lines: one tasks.csv row, \r\n-terminated */
long long ponedge_tasks_text(const struct tasks_text *t, long long start, char *buffer,
                             long long capacity, long long *rows)
{
    struct sink s = {buffer, buffer + capacity, 0};
    long long task;
    for (task = start; task < t->n_tasks; task++) {
        char *line = s.pos;
        const int node = t->node_of[task];
        const double created = t->created[task];
        const double delivered = t->delivered_at[task];
        if (node < -1 || node >= t->n_nodes)
            return -1;
        PUT_LITERAL(&s, "t");
        put_int(&s, task);
        PUT_LITERAL(&s, ",");
        put(&s, t->cell, (size_t)t->cell_len);
        PUT_LITERAL(&s, ",");
        if (node >= 0)
            put_label(&s, t->node_text, t->node_start, node);
        PUT_LITERAL(&s, ",");
        put_g(&s, created, 12);
        PUT_LITERAL(&s, ",");
        if (delivered != delivered) {
            put_timestamp(&s, t->uplink_done[task]);
            PUT_LITERAL(&s, ",");
            put_timestamp(&s, t->exec_start[task]);
            PUT_LITERAL(&s, ",");
            put_timestamp(&s, t->exec_end[task]);
            PUT_LITERAL(&s, ",,Unfinished,,false\r\n");
        } else { /* a delivered task reached every phase */
            const double latency = delivered - created;
            put_g(&s, t->uplink_done[task], 12);
            PUT_LITERAL(&s, ",");
            put_g(&s, t->exec_start[task], 12);
            PUT_LITERAL(&s, ",");
            put_g(&s, t->exec_end[task], 12);
            PUT_LITERAL(&s, ",");
            put_g(&s, delivered, 12);
            PUT_LITERAL(&s, ",Delivered,");
            put_g(&s, latency, 12);
            if (latency <= t->deadline_s)
                PUT_LITERAL(&s, ",true\r\n");
            else
                PUT_LITERAL(&s, ",false\r\n");
        }
        if (s.full) {
            s.pos = line;
            break;
        }
    }
    *rows = task - start;
    return s.pos - buffer;
}
