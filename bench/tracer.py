"""Per-layer tracing of the geomqm package, done from outside the package.

`Tracer.install()` replaces every public function of the package modules
with a timing wrapper at every binding site: the defining module, each
module that imported the function by name, and module-level dicts such as
`cli.COMMANDS`.  Function-local imports (``from .kernel import ...`` inside a
function body) read the patched module attribute at call time, so they are
covered too.  `Tracer.uninstall()` puts the originals back, which makes the
untraced ops of a traced run really untraced.

Each wrapped call is a span (name, start, end, parent, op id).  Its self
time is its duration minus the time covered by its child spans; the self
time of every span is charged to the metric group of its function, so the
groups' self times of one op add up to the time the op spent inside the
package.  Functions listed in `SPANLESS` are called 10^3..10^5 times per op;
they are timed and counted like the others but not kept in the span list,
whose memory would otherwise distort the run.  Their children name the
nearest recorded ancestor as parent.

Methods of classes are not wrapped (their time is charged to the calling
function), except the methods of the report classes, which form the
`report` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("kernel", "algebra", "dual", "distributions", "kahler", "dynamics", "report", "cli")

# metric group -> public functions (or classes, whose methods are wrapped)
GROUPS = {
    "kernel": {
        "kernel.eig_hermitian": ("eig_hermitian",),
        "kernel.unitary_exp": ("unitary_exp",),
        "kernel.rng": ("make_rng", "random_hermitian", "random_complex_vector"),
        "kernel.validate": ("require_square", "require_same_dim", "is_hermitian", "hermitian_part"),
        "kernel.io.parse": ("parse_matrix", "parse_vector"),
        "kernel.io.serialize": ("serialize_matrix",),
        "kernel.linalg": ("frobenius", "dagger"),
    },
    "algebra": {
        "algebra.products": ("lie_bracket", "jordan_product", "associator_defect"),
        "algebra.trace_form": ("trace_form",),
        "algebra.suite": ("verify_jordan_lie",),
    },
    "dual": {
        "dual.eval": ("hat_eval", "lambda_eval", "r_eval", "star_eval", "star_generators",
                      "r_invariance_defect", "hamiltonian_field_dual", "su2_golden_tables"),
        "dual.suite": ("verify_dual_geometry",),
        "dual.is_state": ("is_state", "random_state"),
    },
    "distributions": {
        "distributions.basis": ("hermitian_basis", "distribution_basis"),
        "distributions.coords": ("vectorize", "devectorize"),
        "distributions.tensors": ("jhat", "rhat"),
        "distributions.membership": ("membership_residual",),
        "distributions.suite": ("involutivity_evidence", "commutation_defect", "unitary_from_seed"),
        "distributions.orbit": ("orbit_invariants",),
    },
    "kahler": {
        "kahler.eigensolve": ("eigensolve_gradient_flow",),
        "kahler.pullback": ("pullback_checks", "function_brackets", "f_quadratic"),
        "kahler.fields": ("momentum_map", "expectation", "dispersion", "gradient_field_e",
                          "hamiltonian_field_e", "hamiltonian_field_f", "to_real", "from_real",
                          "g_eval", "omega_eval", "j_apply"),
    },
    "dynamics": {
        "dynamics.flow": ("exact_flow", "schrodinger_flow", "heisenberg_flow",
                          "vonneumann_flow", "rk4_flow"),
        "dynamics.conserved": ("conserved_report",),
        "dynamics.relatedness": ("mu_relatedness_check",),
    },
    "report": {"report": ("IdentityCheck", "VerificationReport")},
    "cli": {"cli": ("*",)},  # every public function of the module
}

SPANLESS = frozenset({
    "kernel.require_square", "kernel.require_same_dim", "kernel.frobenius", "kernel.dagger",
    "algebra.trace_form", "algebra.lie_bracket", "algebra.jordan_product",
    "distributions.vectorize", "distributions.jhat", "distributions.rhat",
    "report.IdentityCheck.passed",
})

GROUP_NAMES = tuple(g for groups in GROUPS.values() for g in groups)
COUNTER_NAMES = ("kernel.io.parse.bytes", "kahler.eigensolve.iterations",
                 "kahler.eigensolve.nonconverged", "dynamics.flow.samples")


def _parsed_bytes(args, kwargs, result):
    return "kernel.io.parse.bytes", len(args[0] if args else kwargs["text"])


def _iterations(args, kwargs, result):
    return "kahler.eigensolve.iterations", result.iterations


def _samples(args, kwargs, result):
    return "dynamics.flow.samples", len(result)


# counters read at the boundary of the function that does the work; exact_flow
# only dispatches to the three picture flows, so it is not counted twice
COUNTERS = {
    "kernel.parse_matrix": _parsed_bytes,
    "kernel.parse_vector": _parsed_bytes,
    "kahler.eigensolve_gradient_flow": _iterations,
    "dynamics.schrodinger_flow": _samples,
    "dynamics.heisenberg_flow": _samples,
    "dynamics.vonneumann_flow": _samples,
}
ERROR_COUNTERS = {"kahler.eigensolve_gradient_flow": "kahler.eigensolve.nonconverged"}


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Wraps the package's public functions; keeps spans and per-op totals."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"geomqm.{m}") for m in MODULES}
        self.namespaces = [importlib.import_module("geomqm"), *self.modules.values()]
        self.group_index = {g: i for i, g in enumerate(GROUP_NAMES)}
        self.span_names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(GROUP_NAMES)
        self.calls = [0] * len(GROUP_NAMES)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.stack = [[0.0, -1]]
        self.op_id = -1
        self.unmapped: list[str] = []
        self._func_wrappers: dict = {}   # original function -> wrapper
        self._class_patches: list = []   # (class, attribute, original, replacement)
        self._restore: list = []         # (container, key, original)
        self._build()

    # --- wrapping ---------------------------------------------------------

    def _build(self):
        for mod_name, groups in GROUPS.items():
            module = self.modules[mod_name]
            public = _public_functions(module)
            for group, names in groups.items():
                gid = self.group_index[group]
                if names == ("*",):
                    names = tuple(public)
                for name in names:
                    obj = getattr(module, name, None)
                    if inspect.isclass(obj):
                        self._wrap_class(mod_name, obj, gid)
                    elif obj is not None:
                        self._func_wrappers[obj] = self._wrap(f"{mod_name}.{name}", obj, gid)
                    public.pop(name, None)
            self.unmapped += [f"{mod_name}.{n}" for n in public]

    def _wrap_class(self, mod_name, cls, gid):
        for attr, value in vars(cls).items():
            if attr.startswith("_") and attr != "__init__":
                continue
            qual = f"{mod_name}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._class_patches.append((cls, attr, value, self._wrap(qual, value, gid)))
            elif isinstance(value, property) and value.fget is not None:
                wrapped = property(self._wrap(qual, value.fget, gid))
                self._class_patches.append((cls, attr, value, wrapped))

    def _wrap(self, qualname, fn, gid):
        name_id = len(self.span_names)
        self.span_names.append(qualname)
        record = qualname not in SPANLESS
        counter = COUNTERS.get(qualname)
        error_counter = ERROR_COUNTERS.get(qualname)
        perf = time.perf_counter
        tracer = self
        self_s, calls, counters = self.self_s, self.calls, self.counters
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if record:
                sid = len(names)
                names.append(name_id)
                parents.append(parent[1])
                ops.append(tracer.op_id)
                starts.append(0.0)
                ends.append(0.0)
                frame = [0.0, sid]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_counter is not None:
                    counters[error_counter] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                parent[0] += dur
                self_s[gid] += dur - frame[0]
                calls[gid] += 1
                if record:
                    starts[sid] = t0
                    ends[sid] = t0 + dur
            if counter is not None:
                key, value = counter(args, kwargs, result)
                counters[key] += value
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Patch every binding site with its wrapper; uninstall() undoes it."""
        wrappers = self._func_wrappers
        for ns in self.namespaces:
            d = vars(ns)
            for name, value in list(d.items()):
                if name.startswith("__"):
                    continue
                if callable(value) and value in wrappers:
                    self._restore.append((d, name, value))
                    d[name] = wrappers[value]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and item in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[item]
        for cls, attr, _, replacement in self._class_patches:
            setattr(cls, attr, replacement)

    def uninstall(self):
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()
        for cls, attr, original, _ in self._class_patches:
            setattr(cls, attr, original)

    # --- per-op accounting ------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack = [[0.0, -1]]
        for i in range(len(self.self_s)):
            self.self_s[i] = 0.0
            self.calls[i] = 0
        for key in self.counters:
            self.counters[key] = 0

    def end_op(self) -> dict:
        """Totals of the op just traced: self time and calls per group, counters."""
        return {
            "self_s": dict(zip(GROUP_NAMES, self.self_s)),
            "calls": dict(zip(GROUP_NAMES, self.calls)),
            "counters": dict(self.counters),
        }

    def write_spans(self, path):
        """Write the recorded spans as arrays: name, parent, op, start, end."""
        import numpy as np

        np.savez(path, names=np.array(self.span_names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
