/* The compiled tier of repro.perf.kernels, with _edge.c one CPython
 * extension module: the two sources are compiled as one translation
 * unit, this file first (repro.perf.kernels.build_search_library), and
 * every entry point is a METH_FASTCALL function.
 *
 * rank_dfs is repro.perf.cut_table.RankCuts.search, the pruned DFS of
 * every rank-row family, and rank_batch its survivor sweep; bibfs is
 * repro.graph.traversal's bidirectional BFS and bibfs_batch the bibfs
 * family's sweep.  classify_batch is the batch engine's cut pass: the
 * reflexive cut, the observer layer and a rank-row table in the scalar
 * chain's order.  A search or cut pass reads a context struct that the
 * caller built once per bind (its address is the first argument);
 * arrays are int64 and C-contiguous (checked at bind time) and NULL
 * marks a structure the index lacks.  A search returns 0 = not
 * reachable, 1 = reachable, 2 = step budget exhausted at the vertex just
 * expanded (budget < 0: none), 3 = a vertex outside 0..n-1 (nothing
 * touched), which the module's calls raise as IndexError.
 *
 * The set-up passes at the end of the file are the sequential loops of
 * repro.graph.toposort and repro.graph.spanning, step for step: the
 * DFS post-order, the LIFO Kahn order, the spanning forest traversal
 * and the min-post labels' two passes over its visit order.  Each
 * checks every vertex it reads and returns -2 at the first one outside
 * 0..n-1, after which its python wrapper runs the python loop instead.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdarg.h>
#include <string.h>
#include <stdint.h>

typedef int64_t i64;

#define OUT_OF_RANGE(c, a, b) ((uint64_t)(a) >= (uint64_t)(c)->n \
                               || (uint64_t)(b) >= (uint64_t)(c)->n)

#if defined(__GNUC__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

typedef struct {
    i64 n;                            /* vertex count */
    const i64 *out_indptr, *out_indices, *in_indptr, *in_indices;
    i64 *fwd_seen, *bwd_seen;         /* timestamped marks per side */
    i64 *buf_a, *buf_b, *buf_c, *buf_d; /* frontiers, n + 1 each */
} bibfs_ctx;

/* Expands the smaller frontier (forward on ties); out = {expanded}.
 * Requires source != target. */
static i64 bibfs(const bibfs_ctx *c, i64 stamp, i64 source, i64 target,
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

/* bibfs over m pairs (u == v answers 1 unsearched), search i with
 * stamp0 + i + 1 under its own step budget; codes as rank_batch.
 * Returns -1, or the first pair out of range. */
static i64 bibfs_batch(const bibfs_ctx *c, i64 stamp0, i64 m, const i64 *us,
                const i64 *vs, i64 budget, uint8_t *codes)
{
    i64 out[1];
    for (i64 i = 0; i < m; i++) {
        const i64 code = OUT_OF_RANGE(c, us[i], vs[i]) ? 3
            : us[i] == vs[i] ? 1
            : bibfs(c, stamp0 + i + 1, us[i], vs[i], budget, out);
        if (code == 3)
            return i;
        codes[i] = (uint8_t)code;
    }
    return -1;
}

/* One rank row: left[s] <= right[t] (< when strict), (s, t) = (u, v),
 * or (v, u) when reverse (repro.perf.cut_table.RankRow). */
typedef struct {
    const i64 *left, *right;
    i64 strict, reverse;
} rank_row;

typedef struct {
    i64 n;                            /* vertex count */
    i64 num_observer;                 /* observer rank rows (0: no layer) */
    i64 width;                        /* bytes per support bitset (0: k = 0) */
    const uint8_t *fwd_bits, *bwd_bits; /* (n, width) support bitsets */
    i64 num_negative, num_positive;   /* the table's rows */
    const rank_row *rows;             /* observer, negative, positive group */
} classify_ctx;

/* The codes of repro.perf.engine: how each pair was decided. */
enum { EQUAL, OBSERVER_POSITIVE, OBSERVER_NEGATIVE, CUT_POSITIVE,
       CUT_NEGATIVE, SURVIVOR, NUM_CODES };

static int row_holds(const rank_row *r, i64 u, i64 v)
{
    const i64 a = r->reverse ? r->left[v] : r->left[u];
    const i64 b = r->reverse ? r->right[u] : r->right[v];
    return r->strict ? a < b : a <= b;
}

/* ReachabilityIndex._answer's cuts for one pair: the observer layer as
 * ObserverLayer.decide (rank rows, then the positive support bits, then
 * the two contrapositives), then the table's negative rows in order,
 * then its positive group (an empty group proves nothing). */
static int classify_pair(const classify_ctx *c, i64 u, i64 v)
{
    if (u == v)
        return EQUAL;
    const rank_row *row = c->rows, *end = row + c->num_observer;
    for (; row < end; row++)
        if (!row_holds(row, u, v))
            return OBSERVER_NEGATIVE;
    const i64 w = c->width;
    if (w) {
        const uint8_t *fu = c->fwd_bits + u * w, *fv = c->fwd_bits + v * w;
        const uint8_t *bu = c->bwd_bits + u * w, *bv = c->bwd_bits + v * w;
        for (i64 k = 0; k < w; k++)
            if (bu[k] & fv[k])
                return OBSERVER_POSITIVE;
        for (i64 k = 0; k < w; k++)
            if ((fu[k] & ~fv[k]) | (bv[k] & ~bu[k]))
                return OBSERVER_NEGATIVE;
    }
    for (end += c->num_negative; row < end; row++)
        if (!row_holds(row, u, v))
            return CUT_NEGATIVE;
    if (c->num_positive == 0)
        return SURVIVOR;
    for (end += c->num_positive; row < end; row++)
        if (!row_holds(row, u, v))
            return SURVIVOR;
    return CUT_POSITIVE;
}

/* codes[i] = pair i's code; counts[code] = its pairs in the batch.
 * Returns -1, or the first pair out of range (counts untouched). */
static i64 classify_batch(const classify_ctx *c, i64 m, const i64 *us,
                   const i64 *vs, uint8_t *codes, i64 *counts)
{
    i64 tally[NUM_CODES] = {0};
    for (i64 i = 0; i < m; i++) {
        if (OUT_OF_RANGE(c, us[i], vs[i]))
            return i;
        const int code = classify_pair(c, us[i], vs[i]);
        codes[i] = (uint8_t)code;
        tally[code]++;
    }
    for (int k = 0; k < NUM_CODES; k++)
        counts[k] = tally[k];
    return -1;
}

/* A rank row as a bound on a child c for the fixed target v
 * (cut_table._child_bounds): a forward row holds iff
 * left[c] <= right[v] - strict, a "below" bound over left; a reversed
 * row iff right[c] >= left[v] + strict, an "above" bound over right. */
typedef struct {
    const i64 *values;
    i64 bound;
} child_bound;

typedef struct {
    i64 n;                            /* vertex count */
    const i64 *indptr, *indices;      /* the out-adjacency the DFS walks */
    const i64 *keys;                  /* the key row's value per slot (NULL: no key) */
    const rank_row *key;              /* the negative row the rows are sorted by */
    i64 num_negative, num_positive;   /* the rows each child is tested by */
    const rank_row *rows;             /* negative rows but the key, positive group */
    i64 *visited, *stack;             /* timestamped marks, DFS stack */
    child_bound *bounds;              /* per-search scratch, one per row */
} rank_ctx;

/* The rows as bounds for target v, each group's below bounds from its
 * front and above bounds from its back; counts = {negative below,
 * negative above, positive below, positive above}. */
static void set_bounds(const rank_ctx *c, i64 v, i64 *counts)
{
    const rank_row *row = c->rows;
    child_bound *group = c->bounds;
    for (int g = 0; g < 2; g++) {
        const i64 size = g ? c->num_positive : c->num_negative;
        i64 below = 0, above = size;
        for (const rank_row *end = row + size; row < end; row++) {
            if (row->reverse)
                group[--above] = (child_bound){row->right,
                                               row->left[v] + row->strict};
            else
                group[below++] = (child_bound){row->left,
                                               row->right[v] - row->strict};
        }
        counts[2 * g] = below;
        counts[2 * g + 1] = size - below;
        group += size;
    }
}

/* Whether child meets the nb below bounds, then the na above ones. */
ALWAYS_INLINE int admits(const child_bound *b, i64 nb, i64 na, i64 child)
{
    for (i64 j = 0; j < nb; j++)
        if (b[j].values[child] > b[j].bound)
            return 0;
    for (i64 j = nb; j < nb + na; j++)
        if (b[j].values[child] < b[j].bound)
            return 0;
    return 1;
}

/* The DFS over bounds set by set_bounds, with their counts as arguments
 * so that a call with constants compiles to a loop of its own. */
ALWAYS_INLINE i64 dfs(const rank_ctx *c, const child_bound *bounds,
                      i64 stamp, i64 u, i64 v, i64 budget, i64 *out,
                      i64 nb, i64 na, i64 pb, i64 pa)
{
    const child_bound *negative = bounds, *positive = bounds + nb + na;
    const i64 *keys = c->keys;
    const i64 key_bound = keys ? c->key->right[v] - c->key->strict : 0;
    i64 *restrict visited = c->visited, *restrict stack = c->stack;
    i64 expanded = 0, pruned = 0, top = 1, code = 0;

    visited[u] = stamp;
    stack[0] = u;
    while (top > 0) {
        const i64 w = stack[--top];
        if (++expanded > budget && budget >= 0) { code = 2; goto done; }
        const i64 lo = c->indptr[w], hi = c->indptr[w + 1];
        i64 cut = hi;
        if (keys) {
            /* bisect_right(keys, key_bound, lo, hi): children from `cut`
             * on fail the key row and are cut as a block. */
            i64 end = hi;
            cut = lo;
            while (cut < end) {
                const i64 mid = (cut + end) >> 1;
                if (keys[mid] > key_bound) end = mid; else cut = mid + 1;
            }
            pruned += hi - cut;
        }
        for (i64 k = lo; k < cut; k++) {
            const i64 child = c->indices[k];
            if (child == v) { code = 1; goto done; }
            if (visited[child] == stamp) continue;
            visited[child] = stamp;
            if (!admits(negative, nb, na, child)) { pruned++; continue; }
            if (pb + pa > 0 && admits(positive, pb, pa, child)) {
                code = 1;
                goto done;
            }
            stack[top++] = child;
        }
    }
done:
    out[0] = expanded;
    out[1] = pruned;
    return code;
}

/* One pruned DFS from u towards v; out = {expanded, pruned}. */
static i64 rank_dfs(const rank_ctx *c, i64 stamp, i64 u, i64 v, i64 budget,
             i64 *out)
{
    if (OUT_OF_RANGE(c, u, v))
        return 3;
    i64 n[4];
    set_bounds(c, v, n);
    /* FELINE with both filters (Y and the level filter, then the tree
     * interval), its bounds copied where no store of the search can
     * reach them, so they stay in registers. */
    if (n[0] == 2 && n[1] == 0 && n[2] == 1 && n[3] == 1) {
        child_bound local[4];
        for (int j = 0; j < 4; j++)
            local[j] = c->bounds[j];
        return dfs(c, local, stamp, u, v, budget, out, 2, 0, 1, 1);
    }
    return dfs(c, c->bounds, stamp, u, v, budget, out, n[0], n[1], n[2],
               n[3]);
}

/* Survivor i searches with stamp0 + i + 1 (one bump per search, as the
 * scalar path does) under its own step budget, and its code (0, 1 or
 * 2) lands in codes[i].  Returns -1, or the first pair out of range. */
static i64 rank_batch(const rank_ctx *c, i64 stamp0, i64 m, const i64 *us,
               const i64 *vs, i64 budget, uint8_t *codes, i64 *expanded,
               i64 *pruned)
{
    i64 out[2];
    for (i64 i = 0; i < m; i++) {
        const i64 code = rank_dfs(c, stamp0 + i + 1, us[i], vs[i], budget,
                                  out);
        if (code == 3)
            return i;
        codes[i] = (uint8_t)code;
        expanded[i] = out[0];
        pruned[i] = out[1];
    }
    return -1;
}

/* ---- set-up passes ------------------------------------------------ */

#define BAD_VERTEX(x, n) ((uint64_t)(x) >= (uint64_t)(n))

/* toposort._dfs_post_order: ranks[v] = v's rank in the post-order of
 * the DFS that tries roots[0..num_roots) in turn (roots NULL: 0..n-1)
 * and each out-row in edge order.  state (zeroed, n bytes) is 0 unseen,
 * 1 on the path, 2 finished; path holds n.  Returns 0, 1 when
 * stop_at_cycle and an edge leads back into the path (ranks partial),
 * or -2. */
static i64 dfs_post_order(i64 n, const i64 *indptr, const i64 *indices,
                   const i64 *roots, i64 num_roots, i64 stop_at_cycle,
                   i64 *cursor, uint8_t *state, i64 *path, i64 *ranks)
{
    const uint8_t entered = stop_at_cycle ? 1 : 2;
    i64 counter = 0;
    if (!roots)
        num_roots = n;
    for (i64 v = 0; v < n; v++)
        cursor[v] = indptr[v];
    for (i64 r = 0; r < num_roots; r++) {
        i64 v = roots ? roots[r] : r, top = 0;
        if (BAD_VERTEX(v, n))
            return -2;
        if (state[v])
            continue;
        state[v] = entered;
        for (;;) {
            i64 pos = cursor[v], child = -1;
            for (const i64 end = indptr[v + 1]; pos < end;) {
                const i64 w = indices[pos++];
                if (BAD_VERTEX(w, n))
                    return -2;
                if (state[w] != 2) {
                    if (state[w])
                        return 1;
                    child = w;
                    break;
                }
            }
            if (child >= 0) {
                cursor[v] = pos;
                state[child] = entered;
                path[top++] = v;
                v = child;
                continue;
            }
            state[v] = 2;
            ranks[v] = counter++;
            if (top == 0)
                break;
            v = path[--top];
        }
    }
    return 0;
}

/* toposort.lifo_kahn_order: the roots (roots NULL: 0..n-1) whose
 * indegree is 0 are pushed in order, each once (a repeat is skipped, so
 * the order is the one without it); each pop is emitted to order and
 * frees its children in row order.  indegree is consumed; worklist and
 * order hold num_roots + n.  Returns the count emitted (n unless stuck
 * on a cycle), or -2. */
static i64 lifo_kahn(i64 n, const i64 *indptr, const i64 *indices,
              const i64 *roots, i64 num_roots, i64 *indegree,
              i64 *worklist, i64 *order)
{
    i64 top = 0, count = 0;
    if (!roots)
        num_roots = n;
    for (i64 r = 0; r < num_roots; r++) {
        const i64 v = roots ? roots[r] : r;
        if (BAD_VERTEX(v, n))
            return -2;
        if (indegree[v] == 0) {
            indegree[v] = -1;         /* pushed: a repeat is skipped */
            worklist[top++] = v;
        }
    }
    for (i64 t = 0; t < top; t++)
        indegree[worklist[t]] = 0;
    while (top > 0) {
        const i64 u = worklist[--top];
        order[count++] = u;
        for (i64 k = indptr[u]; k < indptr[u + 1]; k++) {
            const i64 w = indices[k];
            if (BAD_VERTEX(w, n))
                return -2;
            if (--indegree[w] == 0)
                worklist[top++] = w;
        }
    }
    return count;
}

/* spanning.extract_spanning_forest's traversal: from each unvisited
 * root in turn (roots NULL: 0..n-1), a popped vertex is appended to
 * order and claims its unvisited children, pushed last edge first.
 * parent (preset to -1) gets each claimed child's claimer; visited
 * (zeroed, n bytes); stack holds n.  Returns the count visited, or
 * -2. */
static i64 spanning_forest(i64 n, const i64 *indptr, const i64 *indices,
                    const i64 *roots, i64 num_roots, i64 *parent,
                    uint8_t *visited, i64 *stack, i64 *order)
{
    i64 count = 0;
    if (!roots)
        num_roots = n;
    for (i64 r = 0; r < num_roots; r++) {
        const i64 root = roots ? roots[r] : r;
        if (BAD_VERTEX(root, n))
            return -2;
        if (visited[root])
            continue;
        visited[root] = 1;
        i64 top = 0;
        stack[top++] = root;
        while (top > 0) {
            const i64 u = stack[--top];
            order[count++] = u;
            for (i64 k = indptr[u + 1] - 1; k >= indptr[u]; k--) {
                const i64 w = indices[k];
                if (BAD_VERTEX(w, n))
                    return -2;
                if (!visited[w]) {
                    visited[w] = 1;
                    parent[w] = u;
                    stack[top++] = w;
                }
            }
        }
    }
    return count;
}

/* Slot of v's parent in a size or base array of n + 1 (slot n stands
 * for a root's parent, -1), or -1 when v or its parent is out of
 * range. */
ALWAYS_INLINE i64 parent_slot(i64 n, const i64 *parent, i64 v)
{
    if (BAD_VERTEX(v, n))
        return -1;
    const i64 p = parent[v];
    return p == -1 ? n : BAD_VERTEX(p, n) ? -1 : p;
}

/* spanning.minpost_intervals_tree's pass up the visit order: size[v]
 * becomes 1 plus the sizes of v's tree children (size holds n + 1, all
 * 1 on entry).  Returns 0, or -2. */
static i64 subtree_sizes(i64 n, i64 count, const i64 *order, const i64 *parent,
                  i64 *size)
{
    for (i64 i = count - 1; i >= 0; i--) {
        const i64 v = order[i], slot = parent_slot(n, parent, v);
        if (slot < 0)
            return -2;
        size[slot] += size[v];
    }
    return 0;
}

/* Its pass down the visit order: base[v] += base[parent slot of v]
 * (base holds n + 1, slot n 0).  Returns 0, or -2 with base untouched:
 * the caller's python loop then reads the same base. */
static i64 subtree_bases(i64 n, i64 count, const i64 *order, const i64 *parent,
                  i64 *base)
{
    for (i64 i = 0; i < count; i++)
        if (parent_slot(n, parent, order[i]) < 0)
            return -2;
    for (i64 i = 0; i < count; i++)
        base[order[i]] += base[parent_slot(n, parent, order[i])];
    return 0;
}

/* ---- the module's calls ------------------------------------------- */

/* A buffer argument: its data and its length in items. */
typedef struct {
    void *data;
    Py_ssize_t len;
} buf;

/* Reads a call's arguments by fmt, one letter each, into the pointers
 * that follow: 'O' any object (PyObject **, borrowed), 'i' an int
 * (i64 *), 'p' a context address (void **),
 * 'q' a C-contiguous buffer of 8-byte items and 'b' one of 1-byte items
 * (buf *), and 'Q'/'B' the same or None (data NULL, len 0); a capital
 * 'W' before a buffer letter asks for a writable one.  The caller's
 * arguments keep every exporter alive through the call, and no Python
 * code runs while C reads the data.  Returns -1 with an error set. */
static int parse(const char *name, PyObject *const *args, Py_ssize_t nargs,
                 const char *fmt, ...)
{
    va_list out;
    Py_ssize_t k = 0, want = 0;
    int writable = 0, ok = 1;
    for (const char *f = fmt; *f; f++)
        want += *f != 'W';
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    va_start(out, fmt);
    for (const char *f = fmt; *f && ok; f++) {
        const char letter = *f;
        if (letter == 'W') {
            writable = 1;
            continue;
        }
        PyObject *arg = args[k++];
        if (letter == 'O') {
            *va_arg(out, PyObject **) = arg;
        } else if (letter == 'i') {
            i64 *slot = va_arg(out, i64 *);
            *slot = PyLong_AsLongLong(arg);
            ok = !(*slot == -1 && PyErr_Occurred());
        } else if (letter == 'p') {
            void **slot = va_arg(out, void **);
            *slot = PyLong_AsVoidPtr(arg);
            ok = !(*slot == NULL && PyErr_Occurred());
        } else {
            buf *slot = va_arg(out, buf *);
            const Py_ssize_t itemsize = (letter == 'q' || letter == 'Q') ? 8 : 1;
            slot->data = NULL;
            slot->len = 0;
            if (arg != Py_None || !(letter == 'Q' || letter == 'B')) {
                Py_buffer view;
                const int flags = PyBUF_C_CONTIGUOUS
                    | (writable ? PyBUF_WRITABLE : 0);
                if (PyObject_GetBuffer(arg, &view, flags) < 0) {
                    ok = 0;
                } else {
                    ok = view.itemsize == itemsize;
                    slot->data = view.buf;
                    slot->len = ok ? view.len / itemsize : 0;
                    PyBuffer_Release(&view);
                    if (!ok)
                        PyErr_Format(PyExc_TypeError,
                                     "%s: argument %zd has %zd-byte items, "
                                     "not %zd", name, k, view.itemsize,
                                     itemsize);
                }
            }
            writable = 0;
        }
    }
    va_end(out);
    return ok ? 0 : -1;
}

/* -1 with a ValueError unless every buffer length in lens[0..count)
 * reaches its minimum in need[]. */
static int check_lengths(const char *name, int count, const Py_ssize_t *lens,
                         const i64 *need)
{
    for (int k = 0; k < count; k++)
        if (need[k] < 0 || lens[k] < need[k]) {
            PyErr_Format(PyExc_ValueError, "%s: buffer %d holds %zd items, "
                         "needs %lld", name, k, lens[k], (long long)need[k]);
            return -1;
        }
    return 0;
}

static PyObject *out_of_range(const char *where, i64 u, i64 v)
{
    PyErr_Format(PyExc_IndexError, "vertex out of range in %s %lld -> %lld",
                 where, (long long)u, (long long)v);
    return NULL;
}

/* A new tuple of count ints. */
static PyObject *int_tuple(int count, const i64 *values)
{
    PyObject *tuple = PyTuple_New(count);
    for (int k = 0; tuple != NULL && k < count; k++) {
        PyObject *item = PyLong_FromLongLong(values[k]);
        if (item == NULL) {
            Py_CLEAR(tuple);
            break;
        }
        PyTuple_SET_ITEM(tuple, k, item);
    }
    return tuple;
}

/* rank_dfs(ctx, stamp, u, v, budget) -> (code, expanded, pruned) */
static PyObject *py_rank_dfs(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    void *c;
    i64 stamp, u, v, budget, out[3];
    if (parse("rank_dfs", args, nargs, "piiii", &c, &stamp, &u, &v, &budget))
        return NULL;
    out[0] = rank_dfs(c, stamp, u, v, budget, out + 1);
    if (out[0] == 3)
        return out_of_range("search", u, v);
    return int_tuple(3, out);
}

/* bibfs(ctx, stamp, source, target, budget) -> (code, expanded) */
static PyObject *py_bibfs(PyObject *module, PyObject *const *args,
                          Py_ssize_t nargs)
{
    void *c;
    i64 stamp, u, v, budget, out[2];
    if (parse("bibfs", args, nargs, "piiii", &c, &stamp, &u, &v, &budget))
        return NULL;
    out[0] = bibfs(c, stamp, u, v, budget, out + 1);
    if (out[0] == 3)
        return out_of_range("search", u, v);
    return int_tuple(2, out);
}

/* rank_batch(ctx, stamp0, us, vs, budget, codes, expanded, pruned) and
 * bibfs_batch(ctx, stamp0, us, vs, budget, codes): the sweeps over
 * len(us) pairs; None, or IndexError naming the first pair out of
 * range. */
static PyObject *py_rank_batch(PyObject *module, PyObject *const *args,
                               Py_ssize_t nargs)
{
    void *c;
    i64 stamp0, budget;
    buf us, vs, codes, expanded, pruned;
    if (parse("rank_batch", args, nargs, "piqqiWbWqWq", &c, &stamp0, &us,
              &vs, &budget, &codes, &expanded, &pruned))
        return NULL;
    const i64 m = us.len, need[] = {m, m, m, m};
    const Py_ssize_t lens[] = {vs.len, codes.len, expanded.len, pruned.len};
    if (check_lengths("rank_batch", 4, lens, need))
        return NULL;
    const i64 bad = rank_batch(c, stamp0, m, us.data, vs.data, budget,
                               codes.data, expanded.data, pruned.data);
    if (bad >= 0)
        return out_of_range("search", ((i64 *)us.data)[bad],
                            ((i64 *)vs.data)[bad]);
    Py_RETURN_NONE;
}

static PyObject *py_bibfs_batch(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    void *c;
    i64 stamp0, budget;
    buf us, vs, codes;
    if (parse("bibfs_batch", args, nargs, "piqqiWb", &c, &stamp0, &us, &vs,
              &budget, &codes))
        return NULL;
    const i64 m = us.len, need[] = {m, m};
    const Py_ssize_t lens[] = {vs.len, codes.len};
    if (check_lengths("bibfs_batch", 2, lens, need))
        return NULL;
    const i64 bad = bibfs_batch(c, stamp0, m, us.data, vs.data, budget,
                                codes.data);
    if (bad >= 0)
        return out_of_range("search", ((i64 *)us.data)[bad],
                            ((i64 *)vs.data)[bad]);
    Py_RETURN_NONE;
}

/* classify_batch(ctx, us, vs, codes) -> the six code counts as a list;
 * IndexError naming the first pair out of range. */
static PyObject *py_classify_batch(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    void *c;
    buf us, vs, codes;
    i64 counts[NUM_CODES];
    if (parse("classify_batch", args, nargs, "pqqWb", &c, &us, &vs, &codes))
        return NULL;
    const i64 m = us.len, need[] = {m, m};
    const Py_ssize_t lens[] = {vs.len, codes.len};
    if (check_lengths("classify_batch", 2, lens, need))
        return NULL;
    const i64 bad = classify_batch(c, m, us.data, vs.data, codes.data,
                                   counts);
    if (bad >= 0)
        return out_of_range("classify", ((i64 *)us.data)[bad],
                            ((i64 *)vs.data)[bad]);
    PyObject *list = PyList_New(NUM_CODES);
    for (int k = 0; list != NULL && k < NUM_CODES; k++) {
        PyObject *item = PyLong_FromLongLong(counts[k]);
        if (item == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, k, item);
    }
    return list;
}

/* The set-up passes: n, the CSR's indptr and indices, the roots (None:
 * 0..n-1), then their buffers; each returns the pass's result as an
 * int.  Lengths are checked against n and the roots; the rows' contents
 * are the caller's CSR. */
#define SETUP_PASS_HEAD(name, fmt, ...)                                   \
    i64 n;                                                                \
    buf indptr, indices, roots;                                           \
    if (parse(name, args, nargs, fmt, &n, &indptr, &indices, &roots,      \
              __VA_ARGS__))                                               \
        return NULL;                                                      \
    if (n < 0 || indptr.len < n + 1) {                                    \
        PyErr_Format(PyExc_ValueError, "%s: indptr too short", name);     \
        return NULL;                                                      \
    }                                                                     \
    const i64 edges = ((i64 *)indptr.data)[n], room = n + roots.len;      \
    if (indices.len < edges) {                                            \
        PyErr_Format(PyExc_ValueError, "%s: indices too short", name);    \
        return NULL;                                                      \
    }

/* dfs_post_order(n, indptr, indices, roots, stop_at_cycle, cursor,
 * state, path, ranks) */
static PyObject *py_dfs_post_order(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    i64 stop;
    buf cursor, state, path, ranks;
    SETUP_PASS_HEAD("dfs_post_order", "iqqQiWqWbWqWq", &stop, &cursor,
                    &state, &path, &ranks)
    const i64 need[] = {n, n, room, n};
    const Py_ssize_t lens[] = {cursor.len, state.len, path.len, ranks.len};
    if (check_lengths("dfs_post_order", 4, lens, need))
        return NULL;
    return PyLong_FromLongLong(dfs_post_order(
        n, indptr.data, indices.data, roots.data, roots.len, stop,
        cursor.data, state.data, path.data, ranks.data));
}

/* lifo_kahn(n, indptr, indices, roots, indegree, worklist, order) */
static PyObject *py_lifo_kahn(PyObject *module, PyObject *const *args,
                              Py_ssize_t nargs)
{
    buf indegree, worklist, order;
    SETUP_PASS_HEAD("lifo_kahn", "iqqQWqWqWq", &indegree, &worklist, &order)
    const i64 need[] = {n, room, room};
    const Py_ssize_t lens[] = {indegree.len, worklist.len, order.len};
    if (check_lengths("lifo_kahn", 3, lens, need))
        return NULL;
    return PyLong_FromLongLong(lifo_kahn(
        n, indptr.data, indices.data, roots.data, roots.len, indegree.data,
        worklist.data, order.data));
}

/* spanning_forest(n, indptr, indices, roots, parent, visited, stack,
 * order) */
static PyObject *py_spanning_forest(PyObject *module, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    buf parent, visited, stack, order;
    SETUP_PASS_HEAD("spanning_forest", "iqqQWqWbWqWq", &parent, &visited,
                    &stack, &order)
    const i64 need[] = {n, n, room, room};
    const Py_ssize_t lens[] = {parent.len, visited.len, stack.len, order.len};
    if (check_lengths("spanning_forest", 4, lens, need))
        return NULL;
    return PyLong_FromLongLong(spanning_forest(
        n, indptr.data, indices.data, roots.data, roots.len, parent.data,
        visited.data, stack.data, order.data));
}

/* subtree_sizes(n, order, parent, values) and subtree_bases(...): the
 * min-post passes over the visit order, values holding n + 1. */
static PyObject *subtree_pass(const char *name, PyObject *const *args,
                              Py_ssize_t nargs, int sizes)
{
    i64 n;
    buf order, parent, values;
    if (parse(name, args, nargs, "iqqWq", &n, &order, &parent, &values))
        return NULL;
    const i64 need[] = {n, n + 1};
    const Py_ssize_t lens[] = {parent.len, values.len};
    if (check_lengths(name, 2, lens, need))
        return NULL;
    return PyLong_FromLongLong(
        (sizes ? subtree_sizes : subtree_bases)(
            n, order.len, order.data, parent.data, values.data));
}

static PyObject *py_subtree_sizes(PyObject *module, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    return subtree_pass("subtree_sizes", args, nargs, 1);
}

static PyObject *py_subtree_bases(PyObject *module, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    return subtree_pass("subtree_bases", args, nargs, 0);
}
