/*
 * Compiled simulation kernel: a plain-C mirror of pykernel.run.
 *
 * pykernel.py is the reference. This file processes the same events in the
 * same (time, seq) order under the same sequence numbering, evaluates the
 * same float expressions in the same order, and records the same trace
 * entries, so both backends give bit-identical outputs. Any change to the
 * semantics there must be made here too, and the other way round.
 *
 * No CPython API is used. ckernel.py fills one struct kernel_run with the
 * addresses of the input, output and trace columns it allocated, and calls
 * ponedge_run() through ctypes. Every array allocated here is run-local and
 * freed before the call returns.
 */

#include <math.h>
#include <stdlib.h>

/* internal event codes */
enum { EV_ARRIVAL, EV_SER_END, EV_HOP_ARRIVE, EV_EXEC_END, EV_SIM_END };

/* trace kinds (index-aligned with engine.EventKind declaration order) */
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
enum { KERNEL_OK, KERNEL_PAST, KERNEL_DUPLICATE_MEMBER, KERNEL_NO_MEMORY };

/* One run: the KernelInputs columns, the KernelOutputs columns and the
 * trace columns. ckernel.py declares the same fields in the same order. */
struct kernel_run {
    /* nodes, index-aligned */
    int n_nodes;
    const double *mips_per_core;
    const int *cores;
    const double *weight;
    const double *ram_capacity;
    const double *storage_capacity;
    /* scheduler candidates as node indices, in node-id order */
    int n_candidates;
    const int *candidate_nodes;
    /* links; hop code = link_index * 2 + direction */
    int n_links;
    const double *link_bandwidth;
    const double *link_hop_delay;
    /* route r is route_hops[route_start[r] .. route_start[r + 1]) */
    int n_routes;
    const int *route_start;
    const int *route_hops;
    const int *up_route; /* device * n_candidates + slot -> route id */
    /* arrivals, sorted by (time, device) */
    int n_tasks;
    const double *arrival_time;
    const int *arrival_device;
    /* per-task constants and control */
    double length_mi;
    double request_bits;
    double result_bits;
    double task_ram_mb;
    double task_storage_mb;
    int strategy;
    double control_delay_s;
    double duration_s;
    /* outputs, n_tasks entries each */
    int *node_of;
    double *uplink_done;
    double *exec_start;
    double *exec_end;
    double *delivered_at;
    int *final_phase;
    long long processed_events;
    /* trace columns with room for 6 entries per task plus the simulation
     * end, in (time, seq) order; trace_time is NULL for an untraced run */
    double *trace_time;
    long long *trace_seq;
    int *trace_kind;
    int *trace_task;
    int *trace_extra;
    long long trace_len;
    /* KERNEL_PAST: the event time and the clock;
     * KERNEL_DUPLICATE_MEMBER: the task already on the link */
    double error_time;
    double error_now;
    int error_task;
};

struct event {
    double time;
    long long seq;
    int code;
    int arg; /* the task, or the hop code for EV_SER_END */
};

struct entry {
    double time;
    long long seq;
    int kind;
    int task;
    int extra;
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

static int entry_before(const struct entry *a, const struct entry *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int entry_order(const void *a, const void *b)
{
    return entry_before(a, b) ? -1 : entry_before(b, a);
}

/* Insertion sort for the entries recorded when their event is processed:
 * they are in processing order, except that a delivery, recorded under a
 * fresh seq, can precede events processed later at the same time. */
static void settle(struct entry *e, long long n)
{
    long long i, j;
    for (i = 1; i < n; i++) {
        struct entry item = e[i];
        for (j = i; j > 0 && entry_before(&item, &e[j - 1]); j--)
            e[j] = e[j - 1];
        e[j] = item;
    }
}

/* Merge two sorted entry arrays into the run's trace columns. */
static void write_trace(struct kernel_run *run, const struct entry *a, long long n_a,
                        const struct entry *b, long long n_b)
{
    long long i = 0, j = 0, k;
    for (k = 0; k < n_a + n_b; k++) {
        const struct entry *e =
            j == n_b || (i < n_a && entry_before(&a[i], &b[j])) ? &a[i++] : &b[j++];
        run->trace_time[k] = e->time;
        run->trace_seq[k] = e->seq;
        run->trace_kind[k] = e->kind;
        run->trace_task[k] = e->task;
        run->trace_extra[k] = e->extra;
    }
    run->trace_len = n_a + n_b;
}

static void *zeroed(size_t count, size_t size)
{
    return calloc(count ? count : 1, size);
}

#define PAST(time_, now_)                                                      \
    do {                                                                       \
        run->error_time = (time_);                                             \
        run->error_now = (now_);                                               \
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

#define RECORD(stream_, time_, seq_, kind_, task_, extra_)                     \
    do {                                                                       \
        if (trace != NULL) {                                                   \
            struct entry *e_ = &stream_[n_##stream_++];                        \
            e_->time = (time_);                                                \
            e_->seq = (seq_);                                                  \
            e_->kind = (kind_);                                                \
            e_->task = (task_);                                                \
            e_->extra = (extra_);                                              \
        }                                                                      \
    } while (0)

/*
 * One single-threaded deterministic run: a flat loop over a (time, seq)
 * heap, as in pykernel.run. Each link direction keeps one live
 * serialization-end event, for the member with the smallest (eta, seq); the
 * sequence counter advances by the member count, so that event carries the
 * seq it would have had if every member's end were queued. Execution start
 * and delivery are recorded when they are scheduled, under the seq their
 * event would have had. The event a handler schedules last is held back and
 * merged into the next pop.
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
    /* trace entries: those recorded as their event is processed, and the
     * execution starts, recorded ahead when they are scheduled */
    struct entry *trace = NULL;
    long long n_trace = 0;
    struct entry *starts = NULL;
    long long n_starts = 0;
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
    if (run->trace_time != NULL) {
        /* per task: arrival, two transfers, execution end and delivery,
         * plus the simulation end; and one execution start per task */
        trace = zeroed(5 * (size_t)n_tasks + 1, sizeof *trace);
        starts = zeroed((size_t)n_tasks, sizeof *starts);
        if (trace == NULL || starts == NULL)
            goto no_memory;
    }
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

    if (duration_s < 0.0)
        PAST(duration_s, 0.0);
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
            double arrive;
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
                if (eta < now)
                    PAST(eta, now);
                pending_seq[hop] = seq + rank;
                pending_task[hop] = p->task[rank];
                PUSH(eta, seq + rank, EV_SER_END, hop);
                seq += p->count;
            }
            arrive = now + hop_delay[hop];
            if (arrive < now)
                PAST(arrive, now);
            HOLD(arrive, seq, EV_HOP_ARRIVE, task);
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
                RECORD(trace, now, ev.seq, TR_TRANSFER_COMPLETE, task, 0);
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
                if (start <= duration_s) { /* the execution start falls within the horizon */
                    t_phase[task] = PH_RUNNING;
                    RECORD(starts, start, seq, TR_EXECUTION_START, task, node);
                    processed++;
                } else {
                    t_phase[task] = PH_QUEUED;
                }
                if (end < now)
                    PAST(end, now);
                HOLD(end, seq + 1, EV_EXEC_END, task);
                seq += 2;
            } else { /* downlink complete: the result is delivered now */
                run->delivered_at[task] = now;
                t_phase[task] = PH_DELIVERED;
                RECORD(trace, now, ev.seq, TR_TRANSFER_COMPLETE, task, 1);
                RECORD(trace, now, seq, TR_RESULT_DELIVERED, task, t_node[task]);
                processed++;
                seq++;
            }
        } else if (ev.code == EV_EXEC_END) {
            int node = t_node[task];
            int route = t_route[task];
            queued[node]--;
            free_ram[node] += task_ram_mb;
            free_storage[node] += task_storage_mb;
            RECORD(trace, now, ev.seq, TR_EXECUTION_COMPLETE, task, node);
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
            RECORD(trace, now, ev.seq, TR_TASK_ARRIVAL, task, device);
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
                int route = run->up_route[device * n_candidates + chosen_slot];
                free_ram[node] -= task_ram_mb;
                free_storage[node] -= task_storage_mb;
                t_node[task] = node;
                t_route[task] = route;
                t_phase[task] = PH_UP;
                if (run->control_delay_s > 0.0 || route_start[route + 1] == route_start[route]) {
                    double arrive = now + run->control_delay_s;
                    t_hop[task] = -1;
                    if (arrive < now)
                        PAST(arrive, now);
                    HOLD(arrive, seq, EV_HOP_ARRIVE, task);
                    seq++;
                } else {
                    join = up_hops[route_start[route]];
                }
            }
        } else { /* EV_SIM_END */
            RECORD(trace, now, ev.seq, TR_SIMULATION_END, task, -1);
        }
        if (join >= 0) {
            double bits = t_phase[task] == PH_UP ? run->request_bits : run->result_bits;
            struct pool *p = &members[join];
            double eta;
            if (p->count == 0) { /* an idle link: the transfer gets the whole bandwidth */
                if (pool_append(p, task, bits))
                    goto no_memory;
                last_update[join] = now;
                eta = now + bits / bandwidth[join];
                if (eta < now)
                    PAST(eta, now);
                pending_seq[join] = seq;
                pending_task[join] = task;
                HOLD(eta, seq, EV_SER_END, join);
                seq++;
            } else {
                double elapsed = now - last_update[join];
                int rank;
                for (rank = 0; rank < p->count; rank++) {
                    if (p->task[rank] == task) {
                        run->error_task = task;
                        status = KERNEL_DUPLICATE_MEMBER;
                        goto done;
                    }
                }
                if (elapsed > 0.0)
                    drain(p, bandwidth[join] / p->count, elapsed);
                last_update[join] = now;
                if (pool_append(p, task, bits))
                    goto no_memory;
                rank = next_completion(p, bandwidth[join] / p->count, now, &eta);
                if (eta < now)
                    PAST(eta, now);
                pending_seq[join] = seq + rank;
                pending_task[join] = p->task[rank];
                HOLD(eta, seq + rank, EV_SER_END, join);
                seq += p->count;
            }
        }
        processed++;
    }

    run->processed_events = processed;
    if (trace != NULL) {
        /* into (time, seq) order, which is the processing order */
        settle(trace, n_trace);
        qsort(starts, (size_t)n_starts, sizeof *starts, entry_order);
        write_trace(run, trace, n_trace, starts, n_starts);
    }
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
    free(trace);
    free(starts);
    free(heap.items);
    return status;
}
