/*
 * The compiled half of the reg-cluster miner and of the RWave^gamma index.
 *
 * Built and bound by repro/core/_runs.py.  Per table width it exports:
 *
 *   tables  builds the six RWave^gamma tables of every gene
 *           (repro.core.rwave.chain_tables): a stable sort of each row,
 *           the closest regulation predecessor and successor of every
 *           position, the longest-chain tables, scattered back to
 *           condition ids;
 *   search  runs the Fig. 5 depth-first search from one start condition
 *           (RegClusterMiner makes one call per start), on an explicit
 *           node stack.  Each node takes the steps below, then its
 *           children are visited in candidate then window order;
 *   walk    computes each member's run of sorted positions and counts the
 *           p-member support of every condition;
 *   emit    lists the (condition, member) pairs of the viable conditions,
 *           member by member and in run order, and returns each
 *           condition's coherent gene windows.  From depth 2 it scores
 *           every pair with Eq. 7, drops (and counts) non-finite scores,
 *           applies the coherence bucket prefilter, sorts each condition's
 *           pairs by (score, gene) and scans their maximal windows; at
 *           depth 1 each condition's pairs form one window.
 *
 * walk and emit are also exported alone, as the seams the tests drive.
 * The search calls into Python through one hook only where Python must
 * act: at an emit-eligible node, for each set observer, and every
 * TICK_NODES nodes otherwise (so Ctrl-C is answered).
 *
 * Every array the calls read or write belongs to one RunPass, which
 * hands over their addresses once, as a struct pass_t; the buffers that
 * grow with the search (pairs, windows, the node stack) are allocated
 * here, recorded in its heap_t and freed by runs_release.  Every float
 * operation is the one the numpy transcription performs, in the same
 * order and on the same operands: compiled without fast-math or
 * floating-point contraction the results are bit-identical.
 *
 * The tables come in the index's table dtype; each entry point is
 * instantiated for 1-, 2- and 4-byte tables from one always-inlined body.
 *
 * Two entry points take no table width: runs_release, and
 * runs_json_matrix, which reads a JSON array of equal-length arrays of
 * numbers from a request body straight into float64
 * (repro.service.router.decode_body), every value bit-identical to
 * Python's json followed by numpy's float64 cast.  It declines any other
 * array, and any number it cannot convert exactly, back to Python.
 */

#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define INLINE static inline __attribute__((always_inline))

/* One pair of an emit, grouped by condition. */
typedef struct {
    double score;
    intptr_t gene;
    intptr_t in_p;
} slot_t;

/* A node of the search whose children are still to be visited.  Its
 * arena entries, from base: (condition, degenerate) per candidate,
 * (condition, first, last) per window, then gene << 1 | p-member flag
 * per listed slot. */
typedef struct {
    intptr_t depth, base, n_cands, n_windows;
    intptr_t next_cand, next_window, cand_end;
} frame_t;

/* The buffers this file allocates for one RunPass. */
typedef struct {
    intptr_t n_genes, n_conditions;  /* set by RunPass */
    intptr_t capacity;               /* pairs the grown pass_t buffers hold */
    intptr_t **reach;                /* per need: up_end[], down_start[] */
    frame_t *frames;
    intptr_t n_frames, frames_capacity;
    intptr_t *arena;
    intptr_t arena_top, arena_capacity;
} heap_t;

/* The arrays of one RunPass, in the order _runs.py lists them.  The
 * tables and values are n_genes x n_conditions; members, first and stop
 * hold 2 * n_genes entries; support, viable and degenerate n_conditions;
 * offsets and chain n_conditions + 1; hist n_conditions * (cap + 1).
 * The pair, slot, gene, flag and window buffers after the heap are grown
 * by reserve_pairs to the walk's total run length. */
typedef struct {
    const void *order, *successor_bound, *predecessor_bound, *max_up,
        *max_down;
    const double *values;
    intptr_t *members, *first, *stop, *support;
    uint8_t *viable;
    intptr_t *degenerate, *hist, *offsets, *chain;
    heap_t *heap;
    intptr_t *conds, *owners;
    double *scores;
    slot_t *slots;
    intptr_t *genes;
    uint8_t *in_p;
    intptr_t *windows;
} pass_t;

/* The hook's answers, and what a search call returns. */
enum { CONTINUE = 0, REDUNDANT = 1, STOP = 2 };
enum { DONE = 0, STOPPED = 1, NO_MEMORY = -1 };

/* What the hook is called for; trace events are Figure 6's. */
enum {
    EVENT_NODE, EVENT_TICK, EVENT_EMIT, EVENT_EXPANDED,
    EVENT_PRUNED_MIN_GENES, EVENT_PRUNED_P_MAJORITY,
    EVENT_PRUNED_REACHABILITY, EVENT_PRUNED_COHERENCE,
};

/* An unobserved search calls the hook once per TICK_NODES nodes. */
#define TICK_NODES 4096

typedef int (*hook_t)(int event);

/* One mine()'s settings and hook, set by RegClusterMiner; the node a
 * hook call reports; the counters and phase seconds of the mine(). */
typedef struct {
    intptr_t min_genes, min_conditions, min_support, cap;
    double epsilon;
    intptr_t prune_min_genes, prune_p_majority, reachability, probe, trace;
    hook_t hook;
    intptr_t depth, n_pm, n_n;
    intptr_t nodes_expanded, candidates_examined, pruned_min_genes,
        pruned_p_majority, coherence_rejections, max_depth,
        degenerate_genes_dropped;
    double candidates, windows, emit;
} search_t;

/* Rows of insertion sort below which the table sort does not merge. */
#define INSERTION_RUN 16

INLINE intptr_t entry(const void *table, intptr_t at, int width)
{
    switch (width) {
    case 1:
        return ((const int8_t *)table)[at];
    case 2:
        return ((const int16_t *)table)[at];
    default:
        return ((const int32_t *)table)[at];
    }
}

INLINE void put(void *table, intptr_t at, intptr_t value, int width)
{
    switch (width) {
    case 1:
        ((int8_t *)table)[at] = (int8_t)value;
        break;
    case 2:
        ((int16_t *)table)[at] = (int16_t)value;
        break;
    default:
        ((int32_t *)table)[at] = (int32_t)value;
    }
}

/* Grows *buffer to hold count items of size bytes; on failure leaves
 * it as it was and returns -1. */
static int grow(void **buffer, intptr_t count, size_t size)
{
    void *grown = realloc(*buffer, (size_t)count * size);
    if (grown == NULL)
        return -1;
    *buffer = grown;
    return 0;
}

/* Makes the pair buffers hold total pairs (at least 1024, doubling). */
static int reserve_pairs(pass_t *p, intptr_t total)
{
    heap_t *heap = p->heap;
    if (total <= heap->capacity)
        return 0;
    intptr_t capacity = 2 * heap->capacity;
    if (capacity < 1024)
        capacity = 1024;
    if (capacity < total)
        capacity = total;
    if (grow((void **)&p->conds, capacity, sizeof(intptr_t))
        || grow((void **)&p->owners, capacity, sizeof(intptr_t))
        || grow((void **)&p->scores, capacity, sizeof(double))
        || grow((void **)&p->slots, capacity, sizeof(slot_t))
        || grow((void **)&p->genes, capacity, sizeof(intptr_t))
        || grow((void **)&p->in_p, capacity, sizeof(uint8_t))
        || grow((void **)&p->windows, 3 * capacity, sizeof(intptr_t)))
        return -1;
    heap->capacity = capacity;
    return 0;
}

/* Makes the arena hold top more entries than it has; returns them. */
static intptr_t *reserve_arena(heap_t *heap, intptr_t top)
{
    if (heap->arena_top + top > heap->arena_capacity) {
        intptr_t capacity = 2 * heap->arena_capacity;
        if (capacity < heap->arena_top + top)
            capacity = heap->arena_top + top;
        if (grow((void **)&heap->arena, capacity, sizeof(intptr_t)))
            return NULL;
        heap->arena_capacity = capacity;
    }
    return heap->arena + heap->arena_top;
}

/*
 * Pruning (2) as per-gene limits on sorted positions, built once per
 * need: up_end[g] counts the conditions with max_up[g, c] >= need,
 * n_conditions - down_start[g] those with max_down[g, c] >= need.  As
 * max_up never increases along a gene's sorted conditions, the positions
 * before up_end[g] are the ones whose longest up-chain reaches need;
 * likewise the positions from down_start[g] going down.
 */
INLINE const intptr_t *reach(pass_t *p, intptr_t need, int width)
{
    heap_t *heap = p->heap;
    intptr_t n_genes = heap->n_genes, n_conditions = heap->n_conditions;
    if (need < 1)
        need = 1;
    if (need > n_conditions + 1)
        need = n_conditions + 1;
    if (heap->reach == NULL) {
        heap->reach = calloc((size_t)n_conditions + 2, sizeof(intptr_t *));
        if (heap->reach == NULL)
            return NULL;
    }
    intptr_t *limits = heap->reach[need];
    if (limits != NULL)
        return limits;
    limits = malloc((size_t)(2 * n_genes + 1) * sizeof(intptr_t));
    if (limits == NULL)
        return NULL;
    for (intptr_t g = 0; g < n_genes; ++g) {
        intptr_t up = 0, down = 0, row = g * n_conditions;
        for (intptr_t c = 0; c < n_conditions; ++c) {
            up += entry(p->max_up, row + c, width) >= need;
            down += entry(p->max_down, row + c, width) >= need;
        }
        limits[g] = up;
        limits[n_genes + g] = n_conditions - down;
    }
    heap->reach[need] = limits;
    return limits;
}

/*
 * A p-member's run is [successor_bound[g, last], up_end[g]), an
 * n-member's [down_start[g], predecessor_bound[g, last] + 1); an empty
 * run has stop == first.  Members are the first n_pm p-members, then
 * the n-members.  Writes the runs to first/stop and the support to
 * support[0 .. n_conditions); returns the total run length.
 */
INLINE intptr_t walk(
    const pass_t *p, intptr_t n_conditions, intptr_t last,
    const intptr_t *up_end, const intptr_t *down_start,
    intptr_t n_members, intptr_t n_pm, int width)
{
    intptr_t total = 0;
    memset(p->support, 0, (size_t)n_conditions * sizeof(intptr_t));
    for (intptr_t i = 0; i < n_members; ++i) {
        intptr_t gene = p->members[i];
        intptr_t row = gene * n_conditions;
        intptr_t lo, hi;
        if (i < n_pm) {
            lo = entry(p->successor_bound, row + last, width);
            hi = up_end[gene];
        } else {
            lo = down_start[gene];
            hi = entry(p->predecessor_bound, row + last, width) + 1;
        }
        if (hi < lo)
            hi = lo;
        p->first[i] = lo;
        p->stop[i] = hi;
        total += hi - lo;
        if (i < n_pm)
            for (intptr_t h = lo; h < hi; ++h)
                p->support[entry(p->order, row + h, width)] += 1;
    }
    return total;
}

/*
 * Lists the pairs of the conditions flagged in viable, in member then
 * run order: conds[k] and owners[k] (the index into members).  When
 * scored, scores[k] = (d[g, c] - d[g, last]) / (d[g, c2] - d[g, c1])
 * (Eq. 7), and a non-finite score drops its pair and counts it in
 * degenerate[c].  Returns the number of pairs listed.
 */
INLINE intptr_t list_pairs(
    const pass_t *p, intptr_t n_conditions, intptr_t n_members, int scored,
    intptr_t last, intptr_t c1, intptr_t c2, int width)
{
    intptr_t kept = 0;
    for (intptr_t i = 0; i < n_members; ++i) {
        intptr_t row = p->members[i] * n_conditions;
        double from = 0.0, baseline = 0.0;
        if (scored) {
            from = p->values[row + last];
            baseline = p->values[row + c2] - p->values[row + c1];
        }
        for (intptr_t h = p->first[i]; h < p->stop[i]; ++h) {
            intptr_t condition = entry(p->order, row + h, width);
            if (!p->viable[condition])
                continue;
            if (scored) {
                double score =
                    (p->values[row + condition] - from) / baseline;
                if (!isfinite(score)) {
                    p->degenerate[condition] += 1;
                    continue;
                }
                p->scores[kept] = score;
            }
            p->conds[kept] = condition;
            p->owners[kept] = i;
            ++kept;
        }
    }
    return kept;
}

/*
 * The coherence prefilter.  The pairs' scores are bucketed by
 * trunc(min((s - low) / epsilon, cap)), low the least score.  A window
 * of spread <= epsilon spans at most four adjacent buckets (two, plus
 * the slack of the float bucketing), so a condition whose best four
 * adjacent buckets hold fewer than min_genes pairs has no coherent
 * window: it is cleared from viable.  Clipping at cap only merges
 * buckets, which relaxes the bound.
 */
INLINE void prefilter(
    const pass_t *p, intptr_t n_conditions, intptr_t kept, double epsilon,
    intptr_t min_genes, intptr_t cap)
{
    double low = INFINITY;
    for (intptr_t k = 0; k < kept; ++k)
        if (p->scores[k] < low)
            low = p->scores[k];
    intptr_t width_hist = cap + 1;
    for (intptr_t c = 0; c < n_conditions; ++c)
        if (p->viable[c])
            memset(p->hist + c * width_hist, 0,
                   (size_t)width_hist * sizeof(intptr_t));
    for (intptr_t k = 0; k < kept; ++k) {
        double bucket = (p->scores[k] - low) / epsilon;
        if (bucket > (double)cap)
            bucket = (double)cap;
        p->hist[p->conds[k] * width_hist + (intptr_t)bucket] += 1;
    }
    for (intptr_t c = 0; c < n_conditions; ++c) {
        if (!p->viable[c])
            continue;
        const intptr_t *row = p->hist + c * width_hist;
        intptr_t quad = row[0] + row[1] + row[2] + row[3];
        intptr_t best = quad;
        for (intptr_t j = 4; j <= cap; ++j) {
            quad += row[j] - row[j - 4];
            if (quad > best)
                best = quad;
        }
        p->viable[c] = best >= min_genes;
    }
}

/* (score, gene) order; -0.0 and 0.0 tie and fall through to the gene,
 * as in numpy's lexsort. */
static int by_score_then_gene(const void *left, const void *right)
{
    const slot_t *a = left, *b = right;
    if (a->score < b->score)
        return -1;
    if (a->score > b->score)
        return 1;
    return (a->gene > b->gene) - (a->gene < b->gene);
}

/*
 * The maximal windows of the sorted slots [lo, hi) whose spread is at
 * most epsilon, of at least min_genes slots: the two-pointer scan of
 * repro.core.window._scan_maximal_windows.  Appends (condition, first,
 * last) triples at windows + 3 * n_windows; returns the new count.
 */
INLINE intptr_t scan_windows(
    const pass_t *p, intptr_t condition, intptr_t lo, intptr_t hi,
    double epsilon, intptr_t min_genes, intptr_t n_windows)
{
    const slot_t *slots = p->slots;
    intptr_t end = lo, previous = lo - 1;
    for (intptr_t start = lo; start < hi; ++start) {
        if (end < start)
            end = start;
        while (end + 1 < hi
               && slots[end + 1].score - slots[start].score <= epsilon)
            ++end;
        if (end > previous) {
            if (end - start + 1 >= min_genes) {
                intptr_t *window = p->windows + 3 * n_windows++;
                window[0] = condition;
                window[1] = start;
                window[2] = end;
            }
            previous = end;
        }
        if (end == hi - 1)
            break;
    }
    return n_windows;
}

/*
 * Lists (and when scored, filters) the pairs, then groups them by
 * condition with a stable counting sort and writes each group's
 * windows.  Scored (depth >= 2) groups are sorted by (score, gene) and
 * scanned; unscored (depth 1) groups are one window each, in member
 * order.  The grouped pairs' genes and p-member flags go to genes and
 * in_p; the windows, ascending by condition then first slot, index
 * them.  Returns the number of windows.
 */
INLINE intptr_t emit(
    const pass_t *p, intptr_t n_conditions, intptr_t n_members,
    intptr_t n_pm, int scored, intptr_t last, intptr_t c1, intptr_t c2,
    double epsilon, intptr_t min_genes, intptr_t cap, int width)
{
    memset(p->degenerate, 0, (size_t)n_conditions * sizeof(intptr_t));
    intptr_t kept = list_pairs(
        p, n_conditions, n_members, scored, last, c1, c2, width);
    if (scored && epsilon > 0.0 && kept > 0)
        prefilter(p, n_conditions, kept, epsilon, min_genes, cap);

    /* offsets[c] counts the slots of the conditions before c, then,
     * once every slot is placed, those up to and including c. */
    memset(p->offsets, 0, (size_t)(n_conditions + 1) * sizeof(intptr_t));
    for (intptr_t k = 0; k < kept; ++k)
        if (p->viable[p->conds[k]])
            p->offsets[p->conds[k] + 1] += 1;
    for (intptr_t c = 1; c < n_conditions; ++c)
        p->offsets[c] += p->offsets[c - 1];
    for (intptr_t k = 0; k < kept; ++k) {
        if (!p->viable[p->conds[k]])
            continue;
        intptr_t owner = p->owners[k];
        slot_t *slot = p->slots + p->offsets[p->conds[k]]++;
        slot->score = scored ? p->scores[k] : 0.0;
        slot->gene = p->members[owner];
        slot->in_p = owner < n_pm;
    }

    intptr_t n_windows = 0, lo = 0;
    for (intptr_t c = 0; c < n_conditions; ++c) {
        intptr_t hi = p->offsets[c];
        if (hi == lo)
            continue;
        if (scored) {
            qsort(p->slots + lo, (size_t)(hi - lo), sizeof(slot_t),
                  by_score_then_gene);
            n_windows = scan_windows(
                p, c, lo, hi, epsilon, min_genes, n_windows);
        } else {
            intptr_t *window = p->windows + 3 * n_windows++;
            window[0] = c;
            window[1] = lo;
            window[2] = hi - 1;
        }
        for (intptr_t s = lo; s < hi; ++s) {
            p->genes[s] = p->slots[s].gene;
            p->in_p[s] = (uint8_t)p->slots[s].in_p;
        }
        lo = hi;
    }
    return n_windows;
}

static double now(void)
{
    struct timespec clock;
    clock_gettime(CLOCK_MONOTONIC, &clock);
    return (double)clock.tv_sec + 1e-9 * (double)clock.tv_nsec;
}

/* Asks the hook about the chain[0 .. depth) node: CONTINUE, REDUNDANT
 * (an emit only) or STOP. */
static int call(search_t *s, int event, intptr_t depth, intptr_t n_pm,
                intptr_t n_n)
{
    s->depth = depth;
    s->n_pm = n_pm;
    s->n_n = n_n;
    return s->hook(event);
}

/* A Figure 6 event, when traced: DONE, or STOPPED if the hook failed. */
static int trace(search_t *s, int event, intptr_t depth)
{
    if (s->trace && call(s, event, depth, 0, 0) == STOP)
        return STOPPED;
    return DONE;
}

/* chain.is_representative: the p-members' majority, or on a tie the
 * orientation starting with the larger condition id. */
INLINE int representative(
    const intptr_t *chain, intptr_t depth, intptr_t n_pm, intptr_t n_n)
{
    if (n_pm != n_n)
        return n_pm > n_n;
    return depth < 2 || chain[0] >= chain[depth - 1];
}

/*
 * Expands the node chain[0 .. depth) whose members are the first n_pm
 * p-members, then n_n n-members, in members; total counts its distinct
 * genes.  The steps and their order are RegClusterMiner._expand's:
 * prunings 1 and 3a, the emit check, the walk, the support filter, the
 * emit.  A node with candidates is pushed as a frame, its candidates,
 * windows, genes and flags copied to the arena (the next node's emit
 * overwrites the pass buffers).
 */
INLINE int visit(
    pass_t *p, search_t *s, intptr_t depth, intptr_t n_pm, intptr_t n_n,
    intptr_t total, int width)
{
    heap_t *heap = p->heap;
    intptr_t n_conditions = heap->n_conditions;
    const intptr_t *chain = p->chain;
    s->nodes_expanded += 1;
    if (depth > s->max_depth)
        s->max_depth = depth;
    if (s->probe || s->nodes_expanded % TICK_NODES == 0) {
        int event = s->probe ? EVENT_NODE : EVENT_TICK;
        if (call(s, event, depth, n_pm, n_n) == STOP)
            return STOPPED;
    }
    if (total < s->min_genes && s->prune_min_genes) {
        s->pruned_min_genes += 1;
        return trace(s, EVENT_PRUNED_MIN_GENES, depth);
    }
    if (s->prune_p_majority && 2 * n_pm < s->min_genes) {
        s->pruned_p_majority += 1;
        return trace(s, EVENT_PRUNED_P_MAJORITY, depth);
    }
    if (trace(s, EVENT_EXPANDED, depth) == STOPPED)
        return STOPPED;
    if (depth >= s->min_conditions && total >= s->min_genes
        && representative(chain, depth, n_pm, n_n)) {
        double started = now();
        int answer = call(s, EVENT_EMIT, depth, n_pm, n_n);
        s->emit += now() - started;
        if (answer == STOP)
            return STOPPED;
        if (answer == REDUNDANT)
            return DONE;
    }
    if (depth >= n_conditions)
        return DONE;

    double started = now();
    const intptr_t *limits =
        reach(p, s->reachability ? s->min_conditions - depth : 1, width);
    if (limits == NULL)
        return NO_MEMORY;
    intptr_t last = chain[depth - 1];
    intptr_t pairs = walk(p, n_conditions, last, limits,
                          limits + heap->n_genes, n_pm + n_n, n_pm, width);
    if (reserve_pairs(p, pairs))
        return NO_MEMORY;
    intptr_t n_cands = 0;
    for (intptr_t c = 0; c < n_conditions; ++c) {
        p->viable[c] = p->support[c] >= s->min_support;
        n_cands += p->viable[c];
    }
    if (s->trace) {
        /* The candidates the support filter drops, as Figure 6 labels
         * them; chain conditions are no candidates. */
        for (intptr_t c = 0; c < n_conditions; ++c) {
            int in_chain = 0;
            for (intptr_t k = 0; k < depth; ++k)
                in_chain |= chain[k] == c;
            if (p->viable[c] || in_chain)
                continue;
            p->chain[depth] = c;
            if (trace(s, p->support[c] == 0 ? EVENT_PRUNED_REACHABILITY
                                            : EVENT_PRUNED_P_MAJORITY,
                      depth + 1) == STOPPED)
                return STOPPED;
        }
    }
    double listed = now();
    s->candidates += listed - started;
    if (n_cands == 0)
        return DONE;

    /* The candidates before the prefilter clears any from viable. */
    intptr_t *cands = reserve_arena(heap, 2 * n_cands);
    if (cands == NULL)
        return NO_MEMORY;
    for (intptr_t c = 0, k = 0; c < n_conditions; ++c)
        if (p->viable[c])
            cands[2 * k++] = c;
    intptr_t n_windows = emit(
        p, n_conditions, n_pm + n_n, n_pm, depth >= 2, last, chain[0],
        depth >= 2 ? chain[1] : chain[0], s->epsilon, s->min_genes, s->cap,
        width);
    intptr_t listed_slots =
        n_windows ? p->windows[3 * (n_windows - 1) + 2] + 1 : 0;
    intptr_t size = 2 * n_cands + 3 * n_windows + listed_slots;
    if (heap->n_frames == heap->frames_capacity) {
        intptr_t capacity = 2 * heap->frames_capacity + 16;
        if (grow((void **)&heap->frames, capacity, sizeof(frame_t)))
            return NO_MEMORY;
        heap->frames_capacity = capacity;
    }
    cands = reserve_arena(heap, size);
    if (cands == NULL)
        return NO_MEMORY;
    for (intptr_t k = 0; k < n_cands; ++k)
        cands[2 * k + 1] = p->degenerate[cands[2 * k]];
    intptr_t *windows = cands + 2 * n_cands;
    memcpy(windows, p->windows, (size_t)(3 * n_windows) * sizeof(intptr_t));
    intptr_t *genes = windows + 3 * n_windows;
    for (intptr_t k = 0; k < listed_slots; ++k)
        genes[k] = p->genes[k] << 1 | p->in_p[k];
    frame_t *frame = heap->frames + heap->n_frames++;
    *frame = (frame_t){
        .depth = depth, .base = heap->arena_top, .n_cands = n_cands,
        .n_windows = n_windows,
    };
    heap->arena_top += size;
    if (depth >= 2)
        s->windows += now() - listed;
    else
        s->candidates += now() - listed;
    return DONE;
}

/*
 * The search from the start condition whose root members the caller put
 * in members: the first n_pm p-members, then n_n n-members, total
 * distinct genes.  Each frame books its candidates one at a time
 * (candidates_examined, degenerate genes, coherence rejections) and
 * visits each window of the candidate as a child before the next
 * candidate, as RegClusterMiner._expand's loop does.  The root and every
 * child go through the one visit below (one inlined copy of it).
 */
INLINE int search(
    pass_t *p, search_t *s, intptr_t start, intptr_t n_pm, intptr_t n_n,
    intptr_t total, int width)
{
    heap_t *heap = p->heap;
    heap->n_frames = 0;
    heap->arena_top = 0;
    p->chain[0] = start;
    intptr_t depth = 1;
    int status = DONE;
    for (;;) {
        if (depth) {
            status = visit(p, s, depth, n_pm, n_n, total, width);
            depth = 0;
        }
        if (status != DONE || heap->n_frames == 0)
            return status;
        frame_t *frame = heap->frames + heap->n_frames - 1;
        const intptr_t *cands = heap->arena + frame->base;
        const intptr_t *windows = cands + 2 * frame->n_cands;
        const intptr_t *genes = windows + 3 * frame->n_windows;
        if (frame->next_window < frame->cand_end) {
            /* A window's genes were one node's members, so they fit. */
            const intptr_t *window = windows + 3 * frame->next_window++;
            n_pm = n_n = 0;
            for (intptr_t k = window[1]; k <= window[2]; ++k)
                if (genes[k] & 1)
                    p->members[n_pm++] = genes[k] >> 1;
            for (intptr_t k = window[1]; k <= window[2]; ++k)
                if (!(genes[k] & 1))
                    p->members[n_pm + n_n++] = genes[k] >> 1;
            depth = frame->depth + 1;
            total = n_pm + n_n;
        } else if (frame->next_cand < frame->n_cands) {
            intptr_t condition = cands[2 * frame->next_cand];
            s->candidates_examined += 1;
            s->degenerate_genes_dropped += cands[2 * frame->next_cand + 1];
            frame->next_cand += 1;
            p->chain[frame->depth] = condition;
            intptr_t end = frame->next_window;
            while (end < frame->n_windows && windows[3 * end] == condition)
                ++end;
            if (end == frame->next_window) {
                s->coherence_rejections += 1;
                status = trace(s, EVENT_PRUNED_COHERENCE, frame->depth + 1);
            }
            frame->cand_end = end;
        } else {
            heap->arena_top = frame->base;
            heap->n_frames -= 1;
        }
    }
}

/* Sorts idx[0 .. n) stably by row[idx[k]], ties kept in id order as
 * numpy's stable argsort keeps them: insertion sort within runs of
 * INSERTION_RUN, then bottom-up merges through tmp. */
static void sort_row(const double *row, intptr_t *idx, intptr_t *tmp,
                     intptr_t n)
{
    for (intptr_t lo = 0; lo < n; lo += INSERTION_RUN) {
        intptr_t hi = lo + INSERTION_RUN < n ? lo + INSERTION_RUN : n;
        for (intptr_t k = lo + 1; k < hi; ++k) {
            intptr_t moving = idx[k], j = k;
            for (; j > lo && row[idx[j - 1]] > row[moving]; --j)
                idx[j] = idx[j - 1];
            idx[j] = moving;
        }
    }
    intptr_t *from = idx, *to = tmp;
    for (intptr_t run = INSERTION_RUN; run < n; run *= 2) {
        for (intptr_t lo = 0; lo < n; lo += 2 * run) {
            intptr_t mid = lo + run < n ? lo + run : n;
            intptr_t hi = lo + 2 * run < n ? lo + 2 * run : n;
            intptr_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi)
                to[out++] = row[from[b]] < row[from[a]] ? from[b++]
                                                        : from[a++];
            while (a < mid)
                to[out++] = from[a++];
            while (b < hi)
                to[out++] = from[b++];
        }
        intptr_t *swap = from;
        from = to;
        to = swap;
    }
    if (from != idx)
        memcpy(idx, from, (size_t)n * sizeof(intptr_t));
}

/*
 * chain_tables for every gene, written to the six (n_genes,
 * n_conditions) tables.  Over a row's sorted values s the Eq. 3
 * predicate s[h] - s[q] > threshold holds on a prefix of q and on a
 * suffix of h (float subtraction is monotone), so two pointers walking
 * the same comparison find each position's closest predecessor and
 * successor.  Returns 0, or -1 when the row scratch cannot be had.
 */
INLINE int tables(
    const double *values, const double *thresholds, intptr_t n_genes,
    intptr_t n_conditions, void *order, void *position,
    void *successor_bound, void *predecessor_bound, void *max_up,
    void *max_down, int width)
{
    intptr_t n = n_conditions;
    intptr_t *scratch = malloc((size_t)(6 * n + 2) * sizeof(intptr_t));
    double *sorted = malloc((size_t)(n + 1) * sizeof(double));
    if (scratch == NULL || sorted == NULL) {
        free(scratch);
        free(sorted);
        return -1;
    }
    intptr_t *idx = scratch, *tmp = idx + n, *pred = tmp + n,
             *succ = pred + n, *up = succ + n, *down = up + n + 1;
    for (intptr_t g = 0; g < n_genes; ++g) {
        const double *row = values + g * n;
        double threshold = thresholds[g];
        for (intptr_t k = 0; k < n; ++k)
            idx[k] = k;
        sort_row(row, idx, tmp, n);
        for (intptr_t k = 0; k < n; ++k)
            sorted[k] = row[idx[k]];
        for (intptr_t h = 0, q = 0; h < n; ++h) {
            while (q < n && sorted[h] - sorted[q] > threshold)
                ++q;
            pred[h] = q - 1;
        }
        for (intptr_t q = 0, h = 0; q < n; ++q) {
            while (h < n && !(sorted[h] - sorted[q] > threshold))
                ++h;
            succ[q] = h;
        }
        memset(up, 0, (size_t)(2 * n + 2) * sizeof(intptr_t));
        for (intptr_t at = n - 1; at >= 0; --at)
            up[at] = 1 + up[succ[at]];
        for (intptr_t at = 0; at < n; ++at)
            down[at + 1] = 1 + down[pred[at] + 1];
        intptr_t cell = g * n;
        for (intptr_t h = 0; h < n; ++h) {
            intptr_t at = cell + idx[h];
            put(order, cell + h, idx[h], width);
            put(position, at, h, width);
            put(successor_bound, at, succ[h], width);
            put(predecessor_bound, at, pred[h], width);
            put(max_up, at, up[h], width);
            put(max_down, at, down[h + 1], width);
        }
    }
    free(scratch);
    free(sorted);
    return 0;
}

/* Powers of ten a double holds exactly. */
static const double EXACT_POWERS[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};
#define MAX_EXACT_POWER 22
#define MAX_EXACT_SIGNIFICAND (UINT64_C(1) << 53)
/* Integer literals of up to this many digits are exact doubles. */
#define MAX_INTEGER_DIGITS 15
/* Exponents beyond this are left to strtod. */
#define MAX_EXPONENT 100000000

INLINE int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

INLINE const char *skip_space(const char *at, const char *end)
{
    while (at < end
           && (*at == ' ' || *at == '\t' || *at == '\n' || *at == '\r'))
        ++at;
    return at;
}

/* Appends a decimal digit; past 2^53 the significand saturates, which
 * leaves the token to strtod. */
INLINE uint64_t append_digit(uint64_t significand, char digit)
{
    if (significand > MAX_EXACT_SIGNIFICAND)
        return UINT64_MAX;
    return significand * 10 + (uint64_t)(digit - '0');
}

/* Reads the JSON number token -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? at
 * `at` and, unless value is NULL, converts it as Python's json does
 * before numpy's float64 cast: a float to the correctly rounded double,
 * an integer literal to the double of its integer (so -0 is +0.0).
 * Returns the end of the token, or NULL when there is none or it is one
 * left to Python: an integer of more than MAX_INTEGER_DIGITS digits, or
 * a float strtod does not read exactly to the token's end (a non-C
 * LC_NUMERIC) or reads out of range. */
static const char *json_number(const char *at, const char *end,
                               double *value)
{
    const char *token = at;
    int negative = at < end && *at == '-';
    at += negative;
    if (at >= end || !is_digit(*at))
        return NULL;
    uint64_t significand = 0;
    intptr_t digits = 0, power = 0;
    int integer = 1;
    if (*at == '0') {
        ++at;
        digits = 1;
    } else {
        for (; at < end && is_digit(*at); ++at, ++digits)
            significand = append_digit(significand, *at);
    }
    if (at < end && *at == '.') {
        integer = 0;
        if (++at >= end || !is_digit(*at))
            return NULL;
        for (; at < end && is_digit(*at); ++at, --power)
            significand = append_digit(significand, *at);
    }
    if (at < end && (*at == 'e' || *at == 'E')) {
        integer = 0;
        int minus = ++at < end && *at == '-';
        at += at < end && (*at == '-' || *at == '+');
        if (at >= end || !is_digit(*at))
            return NULL;
        intptr_t exponent = 0;
        for (; at < end && is_digit(*at); ++at) {
            if (exponent < MAX_EXPONENT)
                exponent = exponent * 10 + (*at - '0');
            else
                significand = UINT64_MAX;
        }
        power += minus ? -exponent : exponent;
    }
    if (integer) {
        if (digits > MAX_INTEGER_DIGITS)
            return NULL;
        if (value != NULL)
            *value = negative && significand != 0 ? -(double)significand
                                                  : (double)significand;
        return at;
    }
    if (value == NULL)
        return at;
    if (significand <= MAX_EXACT_SIGNIFICAND && power >= -MAX_EXACT_POWER
        && power <= MAX_EXACT_POWER) {
        /* Both operands are exact doubles: one IEEE operation rounds the
         * decimal value correctly. */
        double exact = (double)significand;
        exact = power < 0 ? exact / EXACT_POWERS[-power]
                          : exact * EXACT_POWERS[power];
        *value = negative ? -exact : exact;
        return at;
    }
    char *stop;
    errno = 0;
    double read = strtod(token, &stop);
    if (stop != at || errno == ERANGE)
        return NULL;
    *value = read;
    return at;
}

/* Reads the JSON array whose '[' is text[start] as a matrix: one or more
 * rows of equal length, each one or more JSON numbers, with only JSON
 * whitespace between the tokens.  With values NULL it checks the array
 * and sets shape to its (rows, columns); with values it writes the
 * numbers there row by row, within the shape the checking call set.
 * Returns the offset just past the array, or -1 when it is no such
 * matrix or holds a number json_number leaves to Python.  text must be
 * NUL-terminated (strtod reads up to a character no number holds). */
intptr_t runs_json_matrix(const char *text, intptr_t length, intptr_t start,
                          intptr_t *shape, double *values)
{
    const char *at = text + start, *end = text + length;
    intptr_t rows = 0, columns = 0;
    if (start < 0 || start >= length || *at != '[')
        return -1;
    do {
        at = skip_space(at + 1, end);
        if (at >= end || *at != '[')
            return -1;
        intptr_t column = 0;
        do {
            double *out = NULL;
            if (values != NULL) {
                if (rows >= shape[0] || column >= shape[1])
                    return -1;
                out = values + rows * shape[1] + column;
            }
            at = json_number(skip_space(at + 1, end), end, out);
            if (at == NULL)
                return -1;
            ++column;
            at = skip_space(at, end);
        } while (at < end && *at == ',');
        if (at >= end || *at != ']' || (rows > 0 && column != columns))
            return -1;
        columns = column;
        ++rows;
        at = skip_space(at + 1, end);
    } while (at < end && *at == ',');
    if (at >= end || *at != ']')
        return -1;
    if (values == NULL) {
        shape[0] = rows;
        shape[1] = columns;
    } else if (rows != shape[0] || columns != shape[1]) {
        return -1;
    }
    return at + 1 - text;
}

/* Frees what the pass's calls allocated; the pass may be used again. */
void runs_release(pass_t *p)
{
    heap_t *heap = p->heap;
    void **owned[] = {
        (void **)&p->conds, (void **)&p->owners, (void **)&p->scores,
        (void **)&p->slots, (void **)&p->genes, (void **)&p->in_p,
        (void **)&p->windows, (void **)&heap->frames,
        (void **)&heap->arena,
    };
    for (size_t k = 0; k < sizeof(owned) / sizeof(owned[0]); ++k) {
        free(*owned[k]);
        *owned[k] = NULL;
    }
    if (heap->reach != NULL)
        for (intptr_t need = 0; need <= heap->n_conditions + 1; ++need)
            free(heap->reach[need]);
    free(heap->reach);
    heap->reach = NULL;
    heap->capacity = heap->n_frames = heap->frames_capacity = 0;
    heap->arena_top = heap->arena_capacity = 0;
}

#define INSTANTIATE(suffix, width)                                          \
    intptr_t runs_walk_##suffix(                                            \
        pass_t *p, intptr_t last, intptr_t need, intptr_t n_members,        \
        intptr_t n_pm)                                                      \
    {                                                                       \
        const intptr_t *limits = reach(p, need, width);                     \
        if (limits == NULL)                                                 \
            return -1;                                                      \
        intptr_t total = walk(p, p->heap->n_conditions, last, limits,       \
                              limits + p->heap->n_genes, n_members, n_pm,   \
                              width);                                       \
        return reserve_pairs(p, total) ? -1 : total;                        \
    }                                                                       \
    intptr_t runs_emit_##suffix(                                            \
        const pass_t *p, intptr_t n_members, intptr_t n_pm, int scored,     \
        intptr_t last, intptr_t c1, intptr_t c2, double epsilon,            \
        intptr_t min_genes, intptr_t cap)                                   \
    {                                                                       \
        return emit(p, p->heap->n_conditions, n_members, n_pm, scored,      \
                    last, c1, c2, epsilon, min_genes, cap, width);          \
    }                                                                       \
    int runs_search_##suffix(                                               \
        pass_t *p, search_t *s, intptr_t start, intptr_t n_pm,              \
        intptr_t n_n, intptr_t total)                                       \
    {                                                                       \
        return search(p, s, start, n_pm, n_n, total, width);                \
    }                                                                       \
    int runs_tables_##suffix(                                               \
        const double *values, const double *thresholds, intptr_t n_genes,   \
        intptr_t n_conditions, void *order, void *position,                 \
        void *successor_bound, void *predecessor_bound, void *max_up,       \
        void *max_down)                                                     \
    {                                                                       \
        return tables(values, thresholds, n_genes, n_conditions, order,     \
                      position, successor_bound, predecessor_bound, max_up, \
                      max_down, width);                                     \
    }

INSTANTIATE(i8, 1)
INSTANTIATE(i16, 2)
INSTANTIATE(i32, 4)
