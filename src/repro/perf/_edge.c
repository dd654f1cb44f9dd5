/* The list edges of a batch, over the CPython C API.
 *
 * flatten_pairs is repro.perf.engine.as_pair_array for its common input,
 * a list or tuple of (u, v) rows: it writes the rows into an (m, 2)
 * int64 buffer.  answer_list is the engine's final answers.tolist():
 * the answer list built from the bool buffer.  Compiled against this
 * interpreter's headers (the object is cached per ABI) and loaded through
 * ctypes.PyDLL, so every call holds the GIL and a batch cannot change
 * under the walk.  _search.c stays free of Python.h, so a box without
 * the headers keeps the compiled search tier.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Writes row i of seq, an exact list or tuple of m rows, to out[2i] and
 * out[2i + 1].  A row must be an exact tuple or list of two exact ints,
 * each in 0..n-1.  Returns -1 when every row was taken, else the first
 * row that was not (0 when seq itself is not such a sequence of m rows);
 * the caller then re-runs the python route for its exact error.  Sets no
 * Python error: an exact int's overflow comes back in the flag. */
int64_t flatten_pairs(PyObject *seq, int64_t m, int64_t n, int64_t *out)
{
    if (!(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
        || PySequence_Fast_GET_SIZE(seq) != m)
        return 0;
    PyObject **rows = PySequence_Fast_ITEMS(seq);
    for (int64_t i = 0; i < m; i++) {
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
            out[2 * i + j] = id;
        }
    }
    return -1;
}

/* A new list of m bools, True where answers[i] is nonzero. */
PyObject *answer_list(const uint8_t *answers, int64_t m)
{
    PyObject *list = PyList_New(m);
    if (list == NULL)
        return NULL;
    for (int64_t i = 0; i < m; i++) {
        PyObject *answer = answers[i] ? Py_True : Py_False;
        Py_INCREF(answer);
        PyList_SET_ITEM(list, i, answer);
    }
    return list;
}
