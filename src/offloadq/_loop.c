/* The simulator's event loop, compiled: one replication between returns to
 * Python.  simulator._run_replication holds the reference loop, in Python;
 * this one repeats each of its float operations on the same operands and
 * in the same order, so the two agree to the last bit.  Build it with
 * floating-point contraction off (-ffp-contract=off): a fused multiply-add
 * would round once where the reference rounds twice.
 *
 * rep_run returns to the caller, which acts and calls it again:
 *   REP_PAUSE  after an arrival that used up the gaps: refill `gaps`; the
 *              next arrival comes gaps[0] after it;
 *   REP_TRIP   at the loop's top, a job queued and fewer than two triplet
 *              pairs left, as many as one policy application takes: move
 *              the rest to the front of `trip` and append a chunk;
 *   REP_LOG    at the loop's top, the time log full: empty it;
 *   REP_DONE   at the horizon;
 *   REP_ERROR  a queue cannot grow, or a table that is not admissible
 *              dispatched more jobs than are queued or triplets drawn.
 * The caller owns `actions`, `gaps`, `trip` and the log; rep_free frees
 * the two queues, which rep_run grows. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { IDLE, SM1, SM2, SM1_THEN_SM2 };                        /* model.Action */
enum { ARRIVAL, LOCAL_DONE, CLOUD_SM2_DONE, CLOUD_SM1_DONE }; /* kernel.EVENT_KINDS */
enum { REP_DONE, REP_PAUSE, REP_TRIP, REP_LOG, REP_ERROR = -1 };

/* a FIFO of `len` entries of `width` doubles from `head`, in `cap` slots, a power of two */
struct ring {
    double *buf;
    int64_t cap, head, len;
};

struct rep {
    /* inputs, set once */
    const int8_t *actions; /* PolicyTable.actions: id order, axes (i2, i1, n0, n2) */
    int64_t cap, clamps;
    double horizon, warmup, l2_ratio, inv_c1, inv_c2;
    /* buffers the caller refills */
    const double *gaps;
    int64_t chunk, gap_i;
    const double *trip;
    int64_t trip_len, trip_i;
    double *log_t; /* NULL: no time log */
    int8_t *log_kind;
    int64_t log_cap, log_len;
    /* the state carried between events */
    double t, t_area, nf, next_arrival, t_srv;
    double local_arr, local_c2, local_done, sm1_arr, sm1_remaining, sm1_done, cloud_sm2_done;
    double sojourn_sum, area;
    int64_t n0, i2, i1, n2, srv_ev, pending_kind, paused;
    int64_t completed, counted, saturation;
    struct ring base;  /* arrival times of the queued jobs */
    struct ring cloud; /* split jobs at the cloud: (arrival time, sigma_c2) */
};

const size_t rep_size = sizeof(struct rep);

static int ring_push(struct ring *q, int width, double a, double b)
{
    if (q->len == q->cap) { /* double it; the entries that wrapped round move after the old end */
        int64_t cap = q->cap ? 2 * q->cap : 64;
        double *buf = realloc(q->buf, (size_t)(cap * width) * sizeof(double));
        if (!buf)
            return -1;
        memcpy(buf + q->cap * width, buf, (size_t)(q->head * width) * sizeof(double));
        q->buf = buf;
        q->cap = cap;
    }
    double *slot = q->buf + ((q->head + q->len++) & (q->cap - 1)) * width;
    slot[0] = a;
    if (width == 2)
        slot[1] = b;
    return 0;
}

/* the head entry, removed */
static const double *ring_pop(struct ring *q, int width)
{
    const double *head = q->buf + q->head * width;
    q->head = (q->head + 1) & (q->cap - 1);
    q->len--;
    return head;
}

void rep_free(struct rep *r)
{
    free(r->base.buf);
    free(r->cloud.buf);
    r->base = r->cloud = (struct ring){0};
}

int rep_run(struct rep *r)
{
    const int64_t cap = r->cap, side = cap + 1;
    if (r->paused) { /* the refill after the arrival that paused */
        r->paused = 0;
        r->next_arrival = r->t + r->gaps[0];
        r->gap_i = 1;
    }
    for (;;) {
        if (r->n0 && r->trip_len - r->trip_i < 4)
            return REP_TRIP;
        if (r->log_t && r->log_len == r->log_cap)
            return REP_LOG;
        /* ---- apply the policy until it idles ---- */
        while (r->n0 || r->n2 > cap) {
            int64_t n0 = r->n0 < cap ? r->n0 : cap, n2 = r->n2 < cap ? r->n2 : cap;
            if (r->n0 > cap || r->n2 > cap)
                r->saturation += r->clamps;
            int a = r->actions[((r->i2 * 2 + r->i1) * side + n0) * side + n2];
            if (a == IDLE)
                break;
            int64_t jobs = a == SM1 || a == SM2 ? 1 : 2;
            if (r->base.len < jobs || r->trip_len - r->trip_i < 2 * jobs)
                return REP_ERROR;
            if (a != SM2) { /* full offload, alone or first in the composite */
                r->sm1_arr = *ring_pop(&r->base, 1);
                r->sm1_remaining = r->trip[r->trip_i] * r->inv_c1;
                r->trip_i += 2;
                r->n0 -= 1;
                r->i1 = 1;
                if (r->n2 == 0) {
                    r->sm1_done = r->t + r->sm1_remaining;
                    if (r->sm1_done < r->t_srv) {
                        r->t_srv = r->sm1_done;
                        r->srv_ev = CLOUD_SM1_DONE;
                    }
                }
                if (a == SM1)
                    continue;
            }
            /* SM2, or the second half of the composite */
            r->local_arr = *ring_pop(&r->base, 1);
            r->local_done = r->t + r->l2_ratio * (r->trip[r->trip_i] * r->inv_c1);
            r->local_c2 = r->trip[r->trip_i + 1] * r->inv_c2;
            r->trip_i += 2;
            r->n0 -= 1;
            r->i2 = 1;
            if (r->local_done <= r->t_srv) {
                r->t_srv = r->local_done;
                r->srv_ev = LOCAL_DONE;
            }
        }
        if (r->log_t && r->pending_kind >= 0) {
            r->log_t[r->log_len] = r->t;
            r->log_kind[r->log_len++] = (int8_t)r->pending_kind;
        }

        /* ---- next event, an arrival winning ties ---- */
        if (r->next_arrival <= r->t_srv) {
            if (r->next_arrival > r->horizon)
                return REP_DONE;
            r->t = r->next_arrival;
            if (r->t > r->warmup) {
                r->area += r->nf * (r->t - r->t_area);
                r->t_area = r->t;
            }
            r->pending_kind = ARRIVAL;
            if (ring_push(&r->base, 1, r->t, 0.0))
                return REP_ERROR;
            r->n0 += 1;
            r->nf += 1.0;
            if (r->gap_i == r->chunk) {
                r->paused = 1;
                return REP_PAUSE;
            }
            r->next_arrival = r->t + r->gaps[r->gap_i++];
            continue;
        }
        if (r->t_srv > r->horizon)
            return REP_DONE;
        r->t = r->t_srv;
        if (r->t > r->warmup) {
            r->area += r->nf * (r->t - r->t_area);
            r->t_area = r->t;
        }
        r->pending_kind = r->srv_ev;
        if (r->srv_ev == LOCAL_DONE) {
            r->i2 = 0;
            r->local_done = INFINITY;
            if (r->n2 == 0) {
                if (r->sm1_done < INFINITY) {
                    r->sm1_remaining = r->sm1_done - r->t;
                    r->sm1_done = INFINITY;
                }
                r->cloud_sm2_done = r->t + r->local_c2;
            }
            if (ring_push(&r->cloud, 2, r->local_arr, r->local_c2))
                return REP_ERROR;
            r->n2 += 1;
            r->t_srv = r->cloud_sm2_done;
            r->srv_ev = CLOUD_SM2_DONE;
        } else if (r->srv_ev == CLOUD_SM2_DONE) {
            double arr = ring_pop(&r->cloud, 2)[0];
            r->n2 -= 1;
            r->nf -= 1.0;
            r->completed += 1;
            if (arr >= r->warmup) {
                r->counted += 1;
                r->sojourn_sum += r->t - arr;
            }
            if (r->n2 > 0) {
                r->cloud_sm2_done = r->t_srv = r->t + r->cloud.buf[r->cloud.head * 2 + 1];
                r->srv_ev = CLOUD_SM2_DONE;
            } else {
                r->cloud_sm2_done = INFINITY;
                if (r->i1 == 1)
                    r->sm1_done = r->t + r->sm1_remaining;
                r->t_srv = r->sm1_done;
                r->srv_ev = CLOUD_SM1_DONE;
            }
            if (r->local_done <= r->t_srv) {
                r->t_srv = r->local_done;
                r->srv_ev = LOCAL_DONE;
            }
        } else {
            r->i1 = 0;
            r->sm1_done = INFINITY;
            r->nf -= 1.0;
            r->completed += 1;
            if (r->sm1_arr >= r->warmup) {
                r->counted += 1;
                r->sojourn_sum += r->t - r->sm1_arr;
            }
            r->t_srv = r->local_done;
            r->srv_ev = LOCAL_DONE;
        }
    }
}
