/*
 * The per-node pass of the reg-cluster miner over the RWave^gamma runs.
 *
 * Built and bound by repro/core/_runs.py; called twice per search node
 * by RegClusterMiner (repro/core/miner.py):
 *
 *   walk  computes each member's run of sorted positions and counts the
 *         p-member support of every condition;
 *   emit  lists the (condition, member) pairs of the viable conditions,
 *         member by member and in run order.  Given the values it also
 *         scores every pair with Eq. 7, drops (and counts) non-finite
 *         scores and applies the coherence bucket prefilter, keeping only
 *         the pairs of conditions that pass it.
 *
 * Every float operation is the one the numpy transcription performs, in
 * the same order and on the same operands: compiled without fast-math or
 * floating-point contraction the results are bit-identical.
 *
 * The tables (order, successor_bound, predecessor_bound) come in the
 * index's table dtype; each entry point is instantiated for 1-, 2- and
 * 4-byte tables from one always-inlined body.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

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
 * run has stop == first.  Writes the runs to first/stop and the support
 * to support[0 .. n_conditions); returns the total run length.
 */
INLINE intptr_t walk(
    const void *order, const void *successor_bound,
    const void *predecessor_bound, intptr_t n_conditions, intptr_t last,
    const intptr_t *up_end, const intptr_t *down_start,
    const intptr_t *members, intptr_t n_members, intptr_t n_pm,
    intptr_t *first, intptr_t *stop, intptr_t *support, int width)
{
    intptr_t total = 0;
    memset(support, 0, (size_t)n_conditions * sizeof(intptr_t));
    for (intptr_t i = 0; i < n_members; ++i) {
        intptr_t gene = members[i];
        intptr_t row = gene * n_conditions;
        intptr_t lo, hi;
        if (i < n_pm) {
            lo = entry(successor_bound, row + last, width);
            hi = up_end[gene];
        } else {
            lo = down_start[gene];
            hi = entry(predecessor_bound, row + last, width) + 1;
        }
        if (hi < lo)
            hi = lo;
        first[i] = lo;
        stop[i] = hi;
        total += hi - lo;
        if (i < n_pm)
            for (intptr_t h = lo; h < hi; ++h)
                support[entry(order, row + h, width)] += 1;
    }
    return total;
}

/*
 * Pairs of the conditions flagged in viable, in member then run order:
 * conds[k] and owners[k] (the index into members).  Without values that
 * is all; the caller sizes conds/owners to the walk's total.
 *
 * With values, scores[k] = (d[g, c] - d[g, last]) / (d[g, c2] - d[g, c1])
 * (Eq. 7).  A non-finite score drops its pair and counts it in
 * degenerate[c].  With epsilon > 0 the survivors' scores are bucketed
 * by trunc(min((s - low) / epsilon, cap)), low the least score; a
 * condition whose best four adjacent buckets hold fewer than min_genes
 * pairs has no coherent window and loses its pairs.  Returns the number
 * of pairs kept.
 */
INLINE intptr_t emit(
    const void *order, intptr_t n_conditions,
    const intptr_t *members, intptr_t n_members,
    const intptr_t *first, const intptr_t *stop, const uint8_t *viable,
    intptr_t *conds, intptr_t *owners,
    const double *values, intptr_t last, intptr_t c1, intptr_t c2,
    double epsilon, intptr_t min_genes, intptr_t cap,
    double *scores, intptr_t *degenerate, intptr_t *hist, uint8_t *alive,
    int width)
{
    intptr_t kept = 0;
    double low = INFINITY;
    if (values != NULL)
        memset(degenerate, 0, (size_t)n_conditions * sizeof(intptr_t));
    for (intptr_t i = 0; i < n_members; ++i) {
        intptr_t row = members[i] * n_conditions;
        double from = 0.0, baseline = 0.0;
        if (values != NULL) {
            from = values[row + last];
            baseline = values[row + c2] - values[row + c1];
        }
        for (intptr_t h = first[i]; h < stop[i]; ++h) {
            intptr_t condition = entry(order, row + h, width);
            if (!viable[condition])
                continue;
            if (values != NULL) {
                double score = (values[row + condition] - from) / baseline;
                if (!isfinite(score)) {
                    degenerate[condition] += 1;
                    continue;
                }
                if (score < low)
                    low = score;
                scores[kept] = score;
            }
            conds[kept] = condition;
            owners[kept] = i;
            ++kept;
        }
    }
    if (values == NULL || !(epsilon > 0.0) || kept == 0)
        return kept;

    intptr_t width_hist = cap + 1;
    for (intptr_t c = 0; c < n_conditions; ++c)
        if (viable[c])
            memset(hist + c * width_hist, 0,
                   (size_t)width_hist * sizeof(intptr_t));
    for (intptr_t k = 0; k < kept; ++k) {
        double bucket = (scores[k] - low) / epsilon;
        if (bucket > (double)cap)
            bucket = (double)cap;
        hist[conds[k] * width_hist + (intptr_t)bucket] += 1;
    }
    /* A window of spread <= epsilon spans at most four adjacent buckets
     * (two, plus the slack of the float bucketing). */
    for (intptr_t c = 0; c < n_conditions; ++c) {
        if (!viable[c])
            continue;
        const intptr_t *row = hist + c * width_hist;
        intptr_t quad = row[0] + row[1] + row[2] + row[3];
        intptr_t best = quad;
        for (intptr_t j = 4; j <= cap; ++j) {
            quad += row[j] - row[j - 4];
            if (quad > best)
                best = quad;
        }
        alive[c] = best >= min_genes;
    }
    intptr_t survivors = 0;
    for (intptr_t k = 0; k < kept; ++k) {
        if (!alive[conds[k]])
            continue;
        conds[survivors] = conds[k];
        owners[survivors] = owners[k];
        scores[survivors] = scores[k];
        ++survivors;
    }
    return survivors;
}

#define INSTANTIATE(suffix, width)                                          \
    intptr_t runs_walk_##suffix(                                            \
        const void *order, const void *successor_bound,                     \
        const void *predecessor_bound, intptr_t n_conditions,               \
        intptr_t last, const intptr_t *up_end, const intptr_t *down_start,  \
        const intptr_t *members, intptr_t n_members, intptr_t n_pm,         \
        intptr_t *first, intptr_t *stop, intptr_t *support)                \
    {                                                                       \
        return walk(order, successor_bound, predecessor_bound,              \
                    n_conditions, last, up_end, down_start, members,        \
                    n_members, n_pm, first, stop, support, width);          \
    }                                                                       \
    intptr_t runs_emit_##suffix(                                            \
        const void *order, intptr_t n_conditions, const intptr_t *members,  \
        intptr_t n_members, const intptr_t *first, const intptr_t *stop,    \
        const uint8_t *viable, intptr_t *conds, intptr_t *owners,           \
        const double *values, intptr_t last, intptr_t c1, intptr_t c2,      \
        double epsilon, intptr_t min_genes, intptr_t cap, double *scores,   \
        intptr_t *degenerate, intptr_t *hist, uint8_t *alive)               \
    {                                                                       \
        return emit(order, n_conditions, members, n_members, first, stop,   \
                    viable, conds, owners, values, last, c1, c2, epsilon,   \
                    min_genes, cap, scores, degenerate, hist, alive,        \
                    width);                                                 \
    }

INSTANTIATE(i8, 1)
INSTANTIATE(i16, 2)
INSTANTIATE(i32, 4)
