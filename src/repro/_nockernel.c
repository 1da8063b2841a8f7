/* Compiled NoC route-reservation kernel (repro._nockernel).
 *
 * Whole-route link reservation over flat per-link interval slabs: parallel
 * start/end arrays of IEEE doubles (sorted, disjoint, non-touching) plus
 * an in-order watermark, a logical-prune head and a frontier-resume
 * cursor per link.  Placement is the earliest-gap algorithm whose
 * executable specification is repro.sim.queueing.ResourceSchedule.reserve
 * (the per-link walk of the "reference" backend): an O(1) watermark fast
 * path for arrivals at or after the last interval end, exact-touch
 * coalescing, and an earliest-gap search for out-of-order arrivals that
 * resumes from the frontier cursor when provably safe.  Pruning is one
 * batched sweep every sweep_period route reservations.  Every arithmetic
 * operation is on doubles, which CPython floats are, so placements, busy
 * totals and delivery times are bit-identical to the reference backend;
 * the randomized equivalence and property suites hold the module to that
 * contract.
 *
 * The Python side (repro.noc.kernel.CompiledKernel) keeps route
 * compilation policy, the Link -> slab-id mapping and serialization
 * choice; this module is pure interval arithmetic:
 *
 *   Kernel(hop_latency, prune_slack, sweep_period, compact_threshold)
 *       .new_link() -> id                  allocate one per-link slab
 *       .compile_route(ids, serialization) -> Route
 *       .sweep(arrival)                    batched prune of every slab
 *       .busy_time(id) / .intervals(id)    introspection (live suffix)
 *       .reset()                           drop all slabs, bump generation
 *   Route.reserve(time) -> depart          THE hot path: one builtin call
 *                                          per message, whole route
 *
 * Route.reserve is a bound built-in method (METH_O), not an opaque
 * tp_call object, deliberately: cProfile records C_CALL events for
 * PyCFunctions, so profiled kernel time stays attributable to the
 * noc.kernel bucket instead of silently landing in the caller's frame.
 *
 * The tuning constants are passed in from repro.noc.kernel at
 * construction time so the single source of truth stays in Python and
 * the two implementations can never drift apart.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"
#include <math.h>
#include <stddef.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Per-link slab state                                                 */
/* ------------------------------------------------------------------ */

typedef struct {
    double wm;          /* watermark: end of last retained interval */
    double busy;        /* total busy time ever reserved */
    double *starts;     /* interval start slab (sorted, disjoint) */
    double *ends;       /* interval end slab (strictly increasing) */
    Py_ssize_t n;       /* intervals stored (dead prefix included) */
    Py_ssize_t cap;     /* slab capacity */
    Py_ssize_t head;    /* first live interval (logical prune point) */
    Py_ssize_t frontier;/* last out-of-order placement (search resume) */
} LinkState;

typedef struct {
    PyObject_HEAD
    double hop_latency;
    double prune_slack;
    long sweep_period;
    long compact_threshold;
    long countdown;      /* route reservations until the next sweep */
    unsigned long generation;  /* bumped by reset(); stale routes fail */
    LinkState *links;
    Py_ssize_t n_links;
    Py_ssize_t cap_links;
} KernelObject;

typedef struct {
    PyObject_HEAD
    KernelObject *kernel;      /* strong reference */
    unsigned long generation;  /* kernel generation at compile time */
    double serialization;
    Py_ssize_t n_links;
    Py_ssize_t *link_ids;
} RouteObject;

static PyTypeObject Kernel_Type;
static PyTypeObject Route_Type;

/* Mirrors bisect.bisect_left on a C double array. */
static inline Py_ssize_t
bisect_left_d(const double *a, double x, Py_ssize_t lo, Py_ssize_t hi)
{
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int
link_ensure_capacity(LinkState *link, Py_ssize_t need)
{
    Py_ssize_t cap;
    double *starts, *ends;
    if (need <= link->cap)
        return 0;
    cap = link->cap ? link->cap : 16;
    while (cap < need)
        cap += cap >> 1 ? cap >> 1 : 8;
    starts = (double *)PyMem_Realloc(link->starts, cap * sizeof(double));
    if (starts == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    link->starts = starts;
    ends = (double *)PyMem_Realloc(link->ends, cap * sizeof(double));
    if (ends == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    link->ends = ends;
    link->cap = cap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Kernel type                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"hop_latency", "prune_slack", "sweep_period",
                             "compact_threshold", NULL};
    double hop_latency, prune_slack;
    long sweep_period, compact_threshold;
    KernelObject *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ddll", kwlist,
                                     &hop_latency, &prune_slack,
                                     &sweep_period, &compact_threshold))
        return NULL;
    if (sweep_period < 1 || compact_threshold < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep_period and compact_threshold must be >= 1");
        return NULL;
    }
    self = (KernelObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->hop_latency = hop_latency;
    self->prune_slack = prune_slack;
    self->sweep_period = sweep_period;
    self->compact_threshold = compact_threshold;
    self->countdown = sweep_period;
    self->generation = 0;
    self->links = NULL;
    self->n_links = 0;
    self->cap_links = 0;
    return (PyObject *)self;
}

static void
kernel_free_links(KernelObject *self)
{
    Py_ssize_t i;
    for (i = 0; i < self->n_links; i++) {
        PyMem_Free(self->links[i].starts);
        PyMem_Free(self->links[i].ends);
    }
    PyMem_Free(self->links);
    self->links = NULL;
    self->n_links = 0;
    self->cap_links = 0;
}

static void
Kernel_dealloc(KernelObject *self)
{
    kernel_free_links(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Kernel_new_link(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    LinkState *link;
    if (self->n_links == self->cap_links) {
        Py_ssize_t cap = self->cap_links ? self->cap_links * 2 : 16;
        LinkState *links = (LinkState *)PyMem_Realloc(
            self->links, cap * sizeof(LinkState));
        if (links == NULL)
            return PyErr_NoMemory();
        self->links = links;
        self->cap_links = cap;
    }
    link = &self->links[self->n_links];
    link->wm = -Py_HUGE_VAL;
    link->busy = 0.0;
    link->starts = NULL;
    link->ends = NULL;
    link->n = 0;
    link->cap = 0;
    link->head = 0;
    link->frontier = 0;
    return PyLong_FromSsize_t(self->n_links++);
}

/* Batched prune: advance every link's head past intervals that can no
 * longer influence any placement (end below arrival - prune_slack);
 * physically compact dead prefixes of compact_threshold or more. */
static void
kernel_sweep(KernelObject *self, double arrival)
{
    double cutoff = arrival - self->prune_slack;
    Py_ssize_t i;
    for (i = 0; i < self->n_links; i++) {
        LinkState *link = &self->links[i];
        Py_ssize_t head = bisect_left_d(link->ends, cutoff,
                                        link->head, link->n);
        if (head >= self->compact_threshold) {
            Py_ssize_t live = link->n - head;
            memmove(link->starts, link->starts + head,
                    live * sizeof(double));
            memmove(link->ends, link->ends + head,
                    live * sizeof(double));
            link->n = live;
            link->frontier = link->frontier - head > 0
                                 ? link->frontier - head : 0;
            head = 0;
        }
        link->head = head;
    }
}

static PyObject *
Kernel_sweep(KernelObject *self, PyObject *arg)
{
    double arrival = PyFloat_AsDouble(arg);
    if (arrival == -1.0 && PyErr_Occurred())
        return NULL;
    kernel_sweep(self, arrival);
    Py_RETURN_NONE;
}

static LinkState *
kernel_link(KernelObject *self, PyObject *arg)
{
    Py_ssize_t lid = PyLong_AsSsize_t(arg);
    if (lid == -1 && PyErr_Occurred())
        return NULL;
    if (lid < 0 || lid >= self->n_links) {
        PyErr_Format(PyExc_IndexError, "no link slab %zd", lid);
        return NULL;
    }
    return &self->links[lid];
}

static PyObject *
Kernel_busy_time(KernelObject *self, PyObject *arg)
{
    LinkState *link = kernel_link(self, arg);
    if (link == NULL)
        return NULL;
    return PyFloat_FromDouble(link->busy);
}

/* The live interval suffix (from the head cursor), as two float lists —
 * the same shape every repro.noc.kernel backend's intervals() returns. */
static PyObject *
Kernel_intervals(KernelObject *self, PyObject *arg)
{
    LinkState *link = kernel_link(self, arg);
    PyObject *starts, *ends, *result;
    Py_ssize_t i, live;
    if (link == NULL)
        return NULL;
    live = link->n - link->head;
    starts = PyList_New(live);
    if (starts == NULL)
        return NULL;
    ends = PyList_New(live);
    if (ends == NULL) {
        Py_DECREF(starts);
        return NULL;
    }
    for (i = 0; i < live; i++) {
        PyObject *value = PyFloat_FromDouble(link->starts[link->head + i]);
        if (value == NULL)
            goto fail;
        PyList_SET_ITEM(starts, i, value);
        value = PyFloat_FromDouble(link->ends[link->head + i]);
        if (value == NULL)
            goto fail;
        PyList_SET_ITEM(ends, i, value);
    }
    result = PyTuple_Pack(2, starts, ends);
    Py_DECREF(starts);
    Py_DECREF(ends);
    return result;
fail:
    Py_DECREF(starts);
    Py_DECREF(ends);
    return NULL;
}

static PyObject *
Kernel_reset(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    kernel_free_links(self);
    self->countdown = self->sweep_period;
    self->generation++;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_compile_route(KernelObject *self, PyObject *args)
{
    PyObject *ids;
    double serialization;
    RouteObject *route;
    Py_ssize_t i, n;

    if (!PyArg_ParseTuple(args, "O!d", &PyTuple_Type, &ids, &serialization))
        return NULL;
    if (serialization <= 0.0) {
        /* Zero-width reservations never occupy a link; the Python
         * wrapper handles them with a flat closure and never gets here. */
        PyErr_SetString(PyExc_ValueError,
                        "compile_route requires serialization > 0");
        return NULL;
    }
    n = PyTuple_GET_SIZE(ids);
    route = (RouteObject *)Route_Type.tp_alloc(&Route_Type, 0);
    if (route == NULL)
        return NULL;
    Py_INCREF(self);
    route->kernel = self;
    route->generation = self->generation;
    route->serialization = serialization;
    route->n_links = n;
    route->link_ids = (Py_ssize_t *)PyMem_Malloc(
        (n ? n : 1) * sizeof(Py_ssize_t));
    if (route->link_ids == NULL) {
        Py_DECREF(route);
        return PyErr_NoMemory();
    }
    for (i = 0; i < n; i++) {
        Py_ssize_t lid = PyLong_AsSsize_t(PyTuple_GET_ITEM(ids, i));
        if (lid == -1 && PyErr_Occurred()) {
            Py_DECREF(route);
            return NULL;
        }
        if (lid < 0 || lid >= self->n_links) {
            Py_DECREF(route);
            PyErr_Format(PyExc_IndexError, "no link slab %zd", lid);
            return NULL;
        }
        route->link_ids[i] = lid;
    }
    return (PyObject *)route;
}

static PyMethodDef Kernel_methods[] = {
    {"new_link", (PyCFunction)Kernel_new_link, METH_NOARGS,
     "Allocate one per-link interval slab; returns its id."},
    {"compile_route", (PyCFunction)Kernel_compile_route, METH_VARARGS,
     "compile_route(link_ids, serialization) -> Route"},
    {"sweep", (PyCFunction)Kernel_sweep, METH_O,
     "Batched prune of every link slab at the given arrival time."},
    {"busy_time", (PyCFunction)Kernel_busy_time, METH_O,
     "Total time ever reserved on one link slab."},
    {"intervals", (PyCFunction)Kernel_intervals, METH_O,
     "The live (starts, ends) interval suffix of one link slab."},
    {"reset", (PyCFunction)Kernel_reset, METH_NOARGS,
     "Drop all slabs; routes compiled before the reset become invalid."},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject Kernel_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._nockernel.Kernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Flat per-link reservation slabs shared by compiled routes.",
    .tp_methods = Kernel_methods,
    .tp_new = Kernel_new,
};

/* ------------------------------------------------------------------ */
/* Route type                                                          */
/* ------------------------------------------------------------------ */

static void
Route_dealloc(RouteObject *self)
{
    PyMem_Free(self->link_ids);
    Py_XDECREF(self->kernel);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* THE hot path.  One call per message: walk the route's links in order,
 * placing the serialization at the earliest idle instant at or after the
 * message's arrival on each link (bit-identical to
 * ResourceSchedule.reserve), advance by the hop latency,
 * and return the delivery time including the pipeline drain. */
static PyObject *
Route_reserve(RouteObject *self, PyObject *arg)
{
    KernelObject *kernel = self->kernel;
    double time, s, hop;
    Py_ssize_t i;

    time = PyFloat_AsDouble(arg);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (self->generation != kernel->generation) {
        PyErr_SetString(PyExc_RuntimeError,
                        "route was compiled before the kernel was reset; "
                        "recompile it (the mesh drops its send cache on "
                        "reset_contention)");
        return NULL;
    }
    if (--kernel->countdown <= 0) {
        kernel_sweep(kernel, time);
        kernel->countdown = kernel->sweep_period;
    }
    s = self->serialization;
    hop = kernel->hop_latency;
    for (i = 0; i < self->n_links; i++) {
        LinkState *link = &kernel->links[self->link_ids[i]];
        double last = link->wm;
        if (time > last) {
            /* Idle at (and after) the arrival: append at the tail. */
            double end = time + s;
            if (link_ensure_capacity(link, link->n + 1) < 0)
                return NULL;
            link->wm = end;
            link->busy += s;
            link->starts[link->n] = time;
            link->ends[link->n] = end;
            link->n++;
        }
        else if (time == last) {
            /* Exact touch with the tail interval: serialize behind it by
             * extending the interval. */
            double end = last + s;
            link->wm = end;
            link->busy += s;
            link->ends[link->n - 1] = end;
        }
        else {
            /* Out-of-order: earliest idle gap at or after the arrival.
             * Mirrors ResourceSchedule.reserve's general path exactly (same
             * gap walk, same exact-touch coalescing), searching only the
             * live suffix and resuming from the frontier when safe. */
            double *starts = link->starts;
            double *ends = link->ends;
            Py_ssize_t head = link->head;
            Py_ssize_t n = link->n;
            Py_ssize_t lo = link->frontier;
            Py_ssize_t pos;
            double start, end;
            int touches_prev;

            link->busy += s;
            if (!(head < lo && lo < n && ends[lo - 1] < time))
                lo = head;
            pos = bisect_left_d(ends, time, lo, n);
            start = time;
            if (pos < n && starts[pos] - start < s) {
                double end_here = ends[pos];
                if (end_here > start)
                    start = end_here;
                pos++;
                while (pos < n) {
                    if (starts[pos] - start >= s)
                        break;
                    start = ends[pos];
                    pos++;
                }
            }
            end = start + s;
            touches_prev = (pos > head && ends[pos - 1] == start);
            if (pos < n && starts[pos] == end) {
                if (touches_prev) {
                    /* Bridges both neighbours: merge all three. */
                    ends[pos - 1] = ends[pos];
                    memmove(starts + pos, starts + pos + 1,
                            (n - pos - 1) * sizeof(double));
                    memmove(ends + pos, ends + pos + 1,
                            (n - pos - 1) * sizeof(double));
                    link->n = n - 1;
                    pos--;
                }
                else {
                    starts[pos] = start;
                }
            }
            else if (touches_prev) {
                pos--;
                ends[pos] = end;
                if (pos == n - 1)
                    link->wm = end;   /* extended the tail */
            }
            else {
                if (link_ensure_capacity(link, n + 1) < 0)
                    return NULL;
                starts = link->starts;
                ends = link->ends;
                memmove(starts + pos + 1, starts + pos,
                        (n - pos) * sizeof(double));
                memmove(ends + pos + 1, ends + pos,
                        (n - pos) * sizeof(double));
                starts[pos] = start;
                ends[pos] = end;
                link->n = n + 1;
                if (pos == n)
                    link->wm = end;   /* inserted a new tail */
            }
            link->frontier = pos;
            time = start;
        }
        time += hop;
    }
    return PyFloat_FromDouble(time + s);
}

static PyMethodDef Route_methods[] = {
    {"reserve", (PyCFunction)Route_reserve, METH_O,
     "reserve(time) -> delivery time of a message injected at ``time``."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef Route_members[] = {
    {"serialization", T_DOUBLE, offsetof(RouteObject, serialization),
     READONLY, "per-link serialization time compiled into the route"},
    {NULL}
};

static PyTypeObject Route_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._nockernel.Route",
    .tp_basicsize = sizeof(RouteObject),
    .tp_dealloc = (destructor)Route_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One compiled route: link slab ids + serialization.",
    .tp_methods = Route_methods,
    .tp_members = Route_members,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static struct PyModuleDef nockernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._nockernel",
    .m_doc = "Compiled NoC route-reservation kernel (flat per-link "
             "interval slabs; bit-identical to the reference backend).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__nockernel(void)
{
    PyObject *module;
    if (PyType_Ready(&Kernel_Type) < 0)
        return NULL;
    if (PyType_Ready(&Route_Type) < 0)
        return NULL;
    module = PyModule_Create(&nockernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&Kernel_Type);
    if (PyModule_AddObject(module, "Kernel",
                           (PyObject *)&Kernel_Type) < 0) {
        Py_DECREF(&Kernel_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&Route_Type);
    if (PyModule_AddObject(module, "Route",
                           (PyObject *)&Route_Type) < 0) {
        Py_DECREF(&Route_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
