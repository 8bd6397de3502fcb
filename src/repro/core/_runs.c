/*
 * The per-node pass of the reg-cluster miner over the RWave^gamma runs.
 *
 * Built and bound by repro/core/_runs.py; called twice per search node
 * by RegClusterMiner (repro/core/miner.py):
 *
 *   walk  computes each member's run of sorted positions and counts the
 *         p-member support of every condition;
 *   emit  lists the (condition, member) pairs of the viable conditions,
 *         member by member and in run order, and returns each
 *         condition's coherent gene windows.  From depth 2 it scores
 *         every pair with Eq. 7, drops (and counts) non-finite scores,
 *         applies the coherence bucket prefilter, sorts each condition's
 *         pairs by (score, gene) and scans their maximal windows; at
 *         depth 1 each condition's pairs form one window.
 *
 * Every array either call reads or writes belongs to one RunPass, which
 * hands over their addresses once, as a struct pass_t.  Every float
 * operation is the one the numpy transcription performs, in the same
 * order and on the same operands: compiled without fast-math or
 * floating-point contraction the results are bit-identical.
 *
 * The tables (order, successor_bound, predecessor_bound) come in the
 * index's table dtype; each entry point is instantiated for 1-, 2- and
 * 4-byte tables from one always-inlined body.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* One pair of an emit, grouped by condition. */
typedef struct {
    double score;
    intptr_t gene;
    intptr_t in_p;
} slot_t;

/* RunPass allocates three float64 per slot. */
_Static_assert(sizeof(slot_t) <= 3 * sizeof(double), "slot_t too wide");

/* The arrays of one RunPass, in the order _runs.py lists them.  The
 * pair, slot, gene, flag and window buffers hold the walk's total run
 * length; members, first and stop 2 * n_genes; the rest n_conditions
 * entries (offsets one more, hist n_conditions * (cap + 1)). */
typedef struct {
    const void *order, *successor_bound, *predecessor_bound;
    const double *values;
    intptr_t *members, *first, *stop, *support;
    uint8_t *viable;
    intptr_t *conds, *owners;
    double *scores;
    intptr_t *degenerate, *hist, *offsets;
    slot_t *slots;
    intptr_t *genes;
    uint8_t *in_p;
    intptr_t *windows;
} pass_t;

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

#define INSTANTIATE(suffix, width)                                          \
    intptr_t runs_walk_##suffix(                                            \
        const pass_t *p, intptr_t n_conditions, intptr_t last,              \
        const intptr_t *up_end, const intptr_t *down_start,                 \
        intptr_t n_members, intptr_t n_pm)                                  \
    {                                                                       \
        return walk(p, n_conditions, last, up_end, down_start, n_members,   \
                    n_pm, width);                                           \
    }                                                                       \
    intptr_t runs_emit_##suffix(                                            \
        const pass_t *p, intptr_t n_conditions, intptr_t n_members,         \
        intptr_t n_pm, int scored, intptr_t last, intptr_t c1,              \
        intptr_t c2, double epsilon, intptr_t min_genes, intptr_t cap)      \
    {                                                                       \
        return emit(p, n_conditions, n_members, n_pm, scored, last, c1, c2, \
                    epsilon, min_genes, cap, width);                        \
    }

INSTANTIATE(i8, 1)
INSTANTIATE(i16, 2)
INSTANTIATE(i32, 4)
