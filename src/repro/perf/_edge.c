/* The edges of a batch, and the module itself: compiled after _search.c
 * as one translation unit, so this file calls its kernels directly and
 * ends with the module's method table (every call METH_FASTCALL).
 *
 * flatten_pairs is repro.perf.engine.as_pair_array for its common input,
 * a list or tuple of (u, v) rows: it writes the rows into an (m, 2)
 * int64 buffer.  answer_list is the engine's final answers.tolist():
 * the answer list built from the bool buffer.  batch is a whole facade
 * or query_many batch in one call: the boundary, the cut pass, the
 * deduplicated survivor sweep and the answer list, for an index that
 * binds a compiled cut pass and a C sweep (repro.perf.engine.
 * compiled_query_many holds the python side).  Every call holds the GIL,
 * so a batch cannot change under the walk.
 */

/* Writes row i of seq, an exact list or tuple of m rows, to out[2i] and
 * out[2i + 1].  A row must be an exact tuple or list of two exact ints,
 * each in 0..n-1.  Returns -1 when every row was taken, else the first
 * row that was not (0 when seq itself is not such a sequence of m rows);
 * the caller then re-runs the python route for its exact error.  Sets no
 * Python error: an exact int's overflow comes back in the flag.  With a
 * map (NULL: none), each id is then replaced by map[id], which must lie
 * in 0..mapped_n-1. */
static i64 flatten_rows(PyObject *seq, i64 m, i64 n, const i64 *map,
                        i64 mapped_n, i64 *out)
{
    if (!(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
        || PySequence_Fast_GET_SIZE(seq) != m)
        return 0;
    PyObject **rows = PySequence_Fast_ITEMS(seq);
    for (i64 i = 0; i < m; i++) {
        PyObject *row = rows[i];
        if (!(PyTuple_CheckExact(row) || PyList_CheckExact(row))
            || PySequence_Fast_GET_SIZE(row) != 2)
            return i;
        PyObject **ids = PySequence_Fast_ITEMS(row);
        for (int j = 0; j < 2; j++) {
            int overflow;
            if (!PyLong_CheckExact(ids[j]))
                return i;
            long long id = PyLong_AsLongLongAndOverflow(ids[j], &overflow);
            if (overflow || id < 0 || id >= n)
                return i;
            if (map != NULL && BAD_VERTEX(id = map[id], mapped_n))
                return i;
            out[2 * i + j] = id;
        }
    }
    return -1;
}

/* flatten_pairs(seq, n, out): flatten_rows into out, which holds
 * 2 * len(seq) items (m is out's row count). */
static PyObject *py_flatten_pairs(PyObject *module, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    PyObject *seq;
    i64 n;
    buf out;
    if (parse("flatten_pairs", args, nargs, "OiWq", &seq, &n, &out))
        return NULL;
    return PyLong_FromLongLong(
        flatten_rows(seq, out.len / 2, n, NULL, 0, out.data));
}

/* answer_list(answers) -> a new list of bools, True where answers[i] is
 * nonzero. */
static PyObject *py_answer_list(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    buf answers;
    if (parse("answer_list", args, nargs, "b", &answers))
        return NULL;
    const uint8_t *flags = answers.data;
    PyObject *list = PyList_New(answers.len);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < answers.len; i++) {
        PyObject *answer = flags[i] ? Py_True : Py_False;
        Py_INCREF(answer);
        PyList_SET_ITEM(list, i, answer);
    }
    return list;
}

/* The answer each code of classify_pair gives; a survivor's is its
 * search's. */
static const uint8_t CODE_ANSWER[NUM_CODES] = {1, 1, 0, 1, 0, 0};

/* Reads an (m, 2) batch into pairs (2m ids), each id in 0..n-1 mapped
 * through map when it is not NULL (into 0..mapped_n-1): an exact list or
 * tuple of exact int pairs, or a C-contiguous numpy int64 array.  *m gets
 * the row count (-1: not such a batch).  Returns the pairs, PyMem
 * memory the caller frees, or NULL: with an error set, or without one
 * when the batch is declined (an empty batch is declined too). */
static i64 *read_batch(PyObject *batch, i64 n, const i64 *map, i64 mapped_n,
                       i64 *m)
{
    i64 *pairs = NULL;
    *m = -1;
    if (PyList_CheckExact(batch) || PyTuple_CheckExact(batch)) {
        const i64 rows = PySequence_Fast_GET_SIZE(batch);
        if (rows == 0)
            return NULL;
        if ((pairs = PyMem_New(i64, 2 * rows)) == NULL)
            return (i64 *)PyErr_NoMemory();
        if (flatten_rows(batch, rows, n, map, mapped_n, pairs) >= 0) {
            PyMem_Free(pairs);
            return NULL;
        }
        *m = rows;
        return pairs;
    }
    if (strcmp(Py_TYPE(batch)->tp_name, "numpy.ndarray") != 0)
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(batch, &view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return NULL;
    }
    const i64 rows = view.ndim == 2 && view.shape[1] == 2 && view.itemsize == 8
        && view.format != NULL && (strcmp(view.format, "l") == 0
                                   || strcmp(view.format, "q") == 0)
        ? view.shape[0] : 0;
    if (rows > 0 && (pairs = PyMem_New(i64, 2 * rows)) == NULL) {
        PyErr_NoMemory();
    } else if (rows > 0) {
        const i64 *ids = view.buf;
        for (i64 k = 0; k < 2 * rows; k++) {
            i64 id = ids[k];
            if (BAD_VERTEX(id, n)
                || (map != NULL && BAD_VERTEX(id = map[id], mapped_n))) {
                PyMem_Free(pairs);
                pairs = NULL;
                break;
            }
            pairs[k] = id;
        }
    }
    PyBuffer_Release(&view);
    if (pairs != NULL)
        *m = rows;
    return pairs;
}

/* A 64-bit mix of a pair, for the survivor table. */
static inline uint64_t pair_hash(i64 u, i64 v)
{
    uint64_t h = (uint64_t)u * 0x9E3779B97F4A7C15u ^ (uint64_t)v;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9u;
    return h ^ (h >> 32);
}

/* batch(classify, kind, search, owner, swap, pairs, map, budget, stop)
 *
 * One batch on one index: classify is the CClassify context's address
 * and search the sweep's (kind 0 a rank_ctx searched by rank_dfs, 1 a
 * bibfs_ctx), whose timestamps live in owner._stamp; swap searches
 * (v, u) for the pair (u, v) (FELINE-I's delegate).  pairs is read by
 * read_batch, its ids in 0..len(map)-1 mapped through map, or in
 * 0..n-1 when map is None.  Each survivor pair is searched once, in
 * first-occurrence order, under its own step budget (budget < 0: none);
 * with stop, the sweep ends at the first exhausted search.
 *
 * Returns None when the batch is declined (nothing touched; the caller
 * takes the python route, which raises the batch's exact error), else
 * (counts, expanded, pruned, answers, exhausted): the six code counts;
 * the survivors' expanded and pruned totals, each search weighted by its
 * pair's multiplicity, except that with stop and an exhausted search,
 * the searches before it count so and it counts once (a rank search's
 * only; a bibfs search counts nothing); the answer list (False at an
 * exhausted pair; None when stop ended the sweep early); and None, or
 * the exhausted pairs in first-occurrence order as (u, v, positions). */
static PyObject *py_batch(PyObject *module, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static PyObject *stamp_name;
    const classify_ctx *cc;
    void *sc;
    PyObject *owner, *batch;
    i64 kind, swap, budget, stop, m;
    buf map_buf;
    if (parse("batch", args, nargs, "pipOiOQii", &cc, &kind, &sc, &owner,
              &swap, &batch, &map_buf, &budget, &stop))
        return NULL;
    const i64 *map = map_buf.data;
    const i64 n = map != NULL ? map_buf.len : cc->n;
    i64 *pairs = read_batch(batch, n, map, cc->n, &m);
    if (pairs == NULL)
        return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);

    PyObject *result = NULL, *answers = NULL, *exhausted = NULL;
    uint8_t *codes = PyMem_New(uint8_t, m);
    i64 tally[NUM_CODES] = {0}, totals[2] = {0, 0};
    i64 *slot = NULL, *reps = NULL;
    if (codes == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i64 i = 0; i < m; i++)
        tally[codes[i] = classify_pair(cc, pairs[2 * i], pairs[2 * i + 1])]++;

    /* The survivors' distinct pairs in first-occurrence order: reps holds
     * (u, v, multiplicity, code) per pair and slot[i] survivor i's pair,
     * through an open-addressed table of at least twice their count. */
    const i64 survivors = tally[SURVIVOR];
    i64 num_reps = 0, head = -1;
    i64 size = 2;
    while (size < 2 * survivors)
        size <<= 1;
    slot = PyMem_New(i64, m + size);
    reps = PyMem_New(i64, 4 * survivors + 1);
    if (slot == NULL || reps == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    i64 *table = slot + m;
    for (i64 k = 0; k < size; k++)
        table[k] = -1;
    for (i64 i = 0; i < m; i++) {
        if (codes[i] != SURVIVOR)
            continue;
        const i64 u = pairs[2 * i], v = pairs[2 * i + 1];
        uint64_t k = pair_hash(u, v) & (uint64_t)(size - 1);
        while (table[k] >= 0
               && (reps[4 * table[k]] != u || reps[4 * table[k] + 1] != v))
            k = (k + 1) & (uint64_t)(size - 1);
        if (table[k] < 0) {
            table[k] = num_reps;
            reps[4 * num_reps] = u;
            reps[4 * num_reps + 1] = v;
            reps[4 * num_reps + 2] = 0;
            num_reps++;
        }
        reps[4 * table[k] + 2]++;
        slot[i] = table[k];
    }

    /* The sweep takes the stamps after owner._stamp, advanced past them
     * first, so not even an error leaves a stamp to reuse. */
    if (num_reps > 0) {
        if (stamp_name == NULL
            && (stamp_name = PyUnicode_InternFromString("_stamp")) == NULL)
            goto done;
        PyObject *stamp = PyObject_GetAttr(owner, stamp_name);
        const i64 stamp0 = stamp != NULL ? PyLong_AsLongLong(stamp) : -1;
        Py_XDECREF(stamp);
        if (stamp0 == -1 && PyErr_Occurred())
            goto done;
        PyObject *next = PyLong_FromLongLong(stamp0 + num_reps);
        const int failed = next == NULL
            || PyObject_SetAttr(owner, stamp_name, next) < 0;
        Py_XDECREF(next);
        if (failed)
            goto done;
        for (i64 r = 0; r < num_reps; r++) {
            i64 *rep = reps + 4 * r, out[2] = {0, 0};
            const i64 u = swap ? rep[1] : rep[0], v = swap ? rep[0] : rep[1];
            const i64 code = kind == 0
                ? rank_dfs(sc, stamp0 + r + 1, u, v, budget, out)
                : bibfs(sc, stamp0 + r + 1, u, v, budget, out);
            if (code == 3) {
                out_of_range("search", u, v);
                goto done;
            }
            rep[3] = code;
            i64 weight = rep[2];
            if (code == 2 && head < 0) {
                head = r;
                if (stop)
                    weight = 1;
            }
            if (kind == 0) {
                totals[0] += out[0] * weight;
                totals[1] += out[1] * weight;
            }
            if (code == 2 && stop) {
                num_reps = r + 1;
                break;
            }
        }
    }

    if (!(stop && head >= 0)) {
        if ((answers = PyList_New(m)) == NULL)
            goto done;
        for (i64 i = 0; i < m; i++) {
            const int yes = codes[i] == SURVIVOR ? reps[4 * slot[i] + 3] == 1
                                                 : CODE_ANSWER[codes[i]];
            PyObject *answer = yes ? Py_True : Py_False;
            Py_INCREF(answer);
            PyList_SET_ITEM(answers, i, answer);
        }
    } else {
        answers = Py_NewRef(Py_None);
    }
    if (head >= 0) {
        /* reps[4r + 2] becomes the exhausted pair's entry in the list
         * (-1: none) once its multiplicity is no longer needed. */
        if ((exhausted = PyList_New(0)) == NULL)
            goto done;
        for (i64 r = head; r < num_reps; r++) {
            i64 *rep = reps + 4 * r;
            rep[2] = -1;
            if (rep[3] != 2)
                continue;
            PyObject *entry = Py_BuildValue("(LLN)", (long long)rep[0],
                                            (long long)rep[1], PyList_New(0));
            if (entry == NULL || PyList_Append(exhausted, entry) < 0) {
                Py_XDECREF(entry);
                goto done;
            }
            Py_DECREF(entry);
            rep[2] = PyList_GET_SIZE(exhausted) - 1;
        }
        for (i64 i = 0; i < m; i++) {
            if (codes[i] != SURVIVOR || slot[i] < head || slot[i] >= num_reps
                || reps[4 * slot[i] + 2] < 0)
                continue;
            PyObject *entry = PyList_GET_ITEM(exhausted, reps[4 * slot[i] + 2]);
            PyObject *position = PyLong_FromLongLong(i);
            const int failed = position == NULL
                || PyList_Append(PyTuple_GET_ITEM(entry, 2), position) < 0;
            Py_XDECREF(position);
            if (failed)
                goto done;
        }
    } else {
        exhausted = Py_NewRef(Py_None);
    }
    PyObject *counts = int_tuple(NUM_CODES, tally);
    if (counts != NULL)
        result = Py_BuildValue("(NLLOO)", counts, (long long)totals[0],
                               (long long)totals[1], answers, exhausted);
done:
    Py_XDECREF(answers);
    Py_XDECREF(exhausted);
    PyMem_Free(pairs);
    PyMem_Free(codes);
    PyMem_Free(slot);
    PyMem_Free(reps);
    return result;
}

#define CALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    CALL(rank_dfs, "One pruned rank-row DFS: (code, expanded, pruned)."),
    CALL(rank_batch, "The rank-row DFS over a batch of survivor pairs."),
    CALL(bibfs, "One bidirectional BFS: (code, expanded)."),
    CALL(bibfs_batch, "The bidirectional BFS over a batch of pairs."),
    CALL(classify_batch, "The batch cut pass: codes, and their counts."),
    CALL(dfs_post_order, "toposort._dfs_post_order's DFS."),
    CALL(lifo_kahn, "toposort.lifo_kahn_order's peel."),
    CALL(spanning_forest, "spanning.extract_spanning_forest's traversal."),
    CALL(subtree_sizes, "minpost_intervals_tree's pass up the order."),
    CALL(subtree_bases, "minpost_intervals_tree's pass down the order."),
    CALL(flatten_pairs, "A list or tuple batch into an (m, 2) buffer."),
    CALL(answer_list, "The answer list of a bool buffer."),
    CALL(batch, "A whole batch: boundary, cuts, sweep and answers."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_search",
    "The compiled tier of repro.perf.kernels.", 0, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__search(void)
{
    return PyModuleDef_Init(&module_def);
}
