/* The compiled search tier of repro.perf.kernels, loaded through ctypes.
 *
 * feline_dfs is FelineSearch._walk line for line, feline_batch its
 * survivor sweep, bibfs repro.graph.traversal's bidirectional BFS.
 * Arrays are int64 and C-contiguous (checked at bind time); NULL marks
 * a structure the index lacks.  Returns 0 = not reachable,
 * 1 = reachable, 2 = step budget exhausted at the vertex just expanded
 * (budget < 0: none), 3 = a vertex outside 0..n-1 (nothing touched).
 */
#include <stdint.h>

typedef int64_t i64;

#define OUT_OF_RANGE(c, a, b) ((uint64_t)(a) >= (uint64_t)(c)->n \
                               || (uint64_t)(b) >= (uint64_t)(c)->n)

typedef struct {
    i64 n;                              /* vertex count */
    const i64 *indptr, *indices, *keys; /* X-sorted out-adjacency */
    const i64 *x, *y, *bx, *by;         /* i(w); FELINE-B's reversed i'(w) */
    const i64 *levels, *start, *post;   /* level filter, tree intervals */
    i64 *visited, *stack;               /* timestamped marks, DFS stack */
} feline_ctx;

/* One pruned DFS from u towards v; out = {expanded, pruned}. */
i64 feline_dfs(const feline_ctx *c, i64 stamp, i64 u, i64 v, i64 budget,
               i64 *out)
{
    if (OUT_OF_RANGE(c, u, v))
        return 3;
    const i64 xv = c->x[v], yv = c->y[v];
    const i64 rxv = c->bx ? c->bx[v] : 0, ryv = c->by ? c->by[v] : 0;
    const i64 level_v = c->levels ? c->levels[v] : 0;
    const i64 start_v = c->start ? c->start[v] : 0;
    const i64 post_v = c->start ? c->post[v] : 0;
    i64 *visited = c->visited, *stack = c->stack;
    i64 expanded = 0, pruned = 0, top = 1, code = 0;

    visited[u] = stamp;
    stack[0] = u;
    while (top > 0) {
        const i64 w = stack[--top];
        if (++expanded > budget && budget >= 0) { code = 2; goto done; }
        const i64 lo = c->indptr[w], hi = c->indptr[w + 1];
        /* bisect_right(keys, xv, lo, hi): children from `cut` on have
         * X above X[v] and are cut as a block. */
        i64 cut = lo, end = hi;
        while (cut < end) {
            const i64 mid = (cut + end) >> 1;
            if (c->keys[mid] > xv) end = mid; else cut = mid + 1;
        }
        pruned += hi - cut;
        for (i64 k = lo; k < cut; k++) {
            const i64 child = c->indices[k];
            if (child == v) { code = 1; goto done; }
            if (visited[child] == stamp) continue;
            visited[child] = stamp;
            if (c->y[child] > yv
                || (c->bx && (c->bx[child] < rxv || c->by[child] < ryv))
                || (c->levels && c->levels[child] >= level_v)) {
                pruned++;
                continue;
            }
            if (c->start && c->start[child] <= start_v
                && post_v <= c->post[child]) { code = 1; goto done; }
            stack[top++] = child;
        }
    }
done:
    out[0] = expanded;
    out[1] = pruned;
    return code;
}

/* Survivor i searches with stamp0 + i + 1: one bump per search, as the
 * scalar path does.  Returns -1, or the first pair out of range. */
i64 feline_batch(const feline_ctx *c, i64 stamp0, i64 m, const i64 *us,
                 const i64 *vs, uint8_t *answers, i64 *expanded,
                 i64 *pruned)
{
    i64 out[2];
    for (i64 i = 0; i < m; i++) {
        const i64 code = feline_dfs(c, stamp0 + i + 1, us[i], vs[i], -1, out);
        if (code == 3)
            return i;
        answers[i] = code == 1;
        expanded[i] = out[0];
        pruned[i] = out[1];
    }
    return -1;
}

typedef struct {
    i64 n;                            /* vertex count */
    const i64 *out_indptr, *out_indices, *in_indptr, *in_indices;
    i64 *fwd_seen, *bwd_seen;         /* timestamped marks per side */
    i64 *buf_a, *buf_b, *buf_c, *buf_d; /* frontiers, n + 1 each */
} bibfs_ctx;

/* Expands the smaller frontier (forward on ties); out = {expanded}.
 * Requires source != target. */
i64 bibfs(const bibfs_ctx *c, i64 stamp, i64 source, i64 target,
          i64 budget, i64 *out)
{
    if (OUT_OF_RANGE(c, source, target))
        return 3;
    i64 *fwd = c->buf_a, *bwd = c->buf_b, *fwd_spare = c->buf_c;
    i64 *bwd_spare = c->buf_d;
    i64 fwd_len = 1, bwd_len = 1, expanded = 0, code = 0;

    c->fwd_seen[source] = stamp;
    c->bwd_seen[target] = stamp;
    fwd[0] = source;
    bwd[0] = target;
    while (fwd_len > 0 && bwd_len > 0) {
        const int forward = fwd_len <= bwd_len;
        const i64 *frontier = forward ? fwd : bwd;
        const i64 flen = forward ? fwd_len : bwd_len;
        i64 *seen = forward ? c->fwd_seen : c->bwd_seen;
        const i64 *other = forward ? c->bwd_seen : c->fwd_seen;
        const i64 *indptr = forward ? c->out_indptr : c->in_indptr;
        const i64 *indices = forward ? c->out_indices : c->in_indices;
        i64 *next = forward ? fwd_spare : bwd_spare, nlen = 0;
        for (i64 f = 0; f < flen; f++) {
            const i64 w = frontier[f];
            if (++expanded > budget && budget >= 0) { code = 2; goto done; }
            for (i64 k = indptr[w]; k < indptr[w + 1]; k++) {
                const i64 child = indices[k];
                if (other[child] == stamp) { code = 1; goto done; }
                if (seen[child] != stamp) {
                    seen[child] = stamp;
                    next[nlen++] = child;
                }
            }
        }
        if (forward) { fwd_spare = fwd; fwd = next; fwd_len = nlen; }
        else { bwd_spare = bwd; bwd = next; bwd_len = nlen; }
    }
done:
    out[0] = expanded;
    return code;
}
