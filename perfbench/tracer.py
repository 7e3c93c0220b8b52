"""Outside-in layer tracer: timing wrappers at periodpoly's public functions.

Nothing here edits the program.  ``Tracer.install`` rebinds each target
function in the module that defines it and in every periodpoly module that
imported it by name (``hecke.slash_poly`` and ``polyspace.reduced_column_basis``
are such imported names); ``uninstall`` puts every original back.  Spans
(name, start, end, parent, job) stay in memory; a layer's self time is its
span minus the time its child spans cover.  The two functions called
hundreds of thousands of times per job get count-only wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter

# Timed layers, as (module, qualified name) under ``periodpoly``.
TIMED = (
    ("cosets", "build_coset_space"),
    ("cosets", "CosetSpace.cusp_classes"),
    ("polyspace", "w_dimensions"),
    ("polyspace", "wtilde_dimension"),
    ("polyspace", "build_coboundary_and_D"),
    ("polyspace", "build_W"),
    ("polyspace", "eps_split"),
    ("polyspace", "chi_component"),
    ("polyspace", "Subspace.restricted_matrix"),
    ("exactalg", "sparse_int_pivots"),
    ("exactalg", "reduced_column_basis"),
    ("exactalg", "kernel_basis"),
    ("exactalg", "solve_columns"),
    ("hecke", "hecke_matrix"),
    ("hecke", "universal_hecke_element"),
    ("hecke", "merel_family"),
    ("hecke", "verify_hecke_property"),
    ("analytic", "manin_coefficient"),
    ("analytic", "completed_lvalue"),
    ("analytic", "petersson_product"),
    ("analytic", "eta_product"),
    ("gamma02", "extra_relations_check"),
)
# Called ~10^5 times per job: counted, never timed.
COUNTED = (
    ("hecke", "resolve_sigma_coset"),
    ("polyspace", "slash_poly"),
)
# Counters that hold a maximum rather than a sum.
MAXIMA = ("exactalg.sparse_int_pivots.max_coeff_bits",)


def _as_list(args: tuple, i: int) -> tuple:
    """Materialize argument i so a counting hook can read it after the call."""
    if isinstance(args[i], (list, tuple)):
        return args
    return args[:i] + (list(args[i]),) + args[i + 1:]


def _pivots(counts, args, kwargs, result):
    rows = args[0]
    counts["exactalg.sparse_int_pivots.rows"] += len(rows)
    counts["exactalg.sparse_int_pivots.nnz_in"] += sum(len(r) for r in rows)
    counts["exactalg.sparse_int_pivots.nnz_out"] += sum(len(r) for _, r in result)
    bits = max((abs(v).bit_length() for _, r in result for v in r.values()), default=0)
    key = "exactalg.sparse_int_pivots.max_coeff_bits"
    counts[key] = max(counts[key], bits)


def _column_basis(counts, args, kwargs, result):
    ambient = args[2] if len(args) > 2 else kwargs["ambient"]
    counts["exactalg.reduced_column_basis.entries"] += len(args[1]) * ambient


def _coset_space(counts, args, kwargs, result):
    counts["cosets.labels"] += result.size


def _hecke_element(counts, args, kwargs, result):
    counts["hecke.universal_hecke_element.support"] += len(result.coeffs)


def _lvalue(counts, args, kwargs, result):
    f = args[0]
    terms = args[2] if len(args) > 2 else kwargs.get("terms", 200)
    # the series stops at the length of the q-expansion
    counts["analytic.completed_lvalue.terms"] += min(terms, f.qseries.order)


def _resolve(counts, args, kwargs, result):
    if result is not None:
        counts["hecke.resolve_sigma_coset.hits"] += 1


# name -> (index of an argument to materialize or None, counting hook)
HOOKS = {
    "exactalg.sparse_int_pivots": (0, _pivots),
    "exactalg.reduced_column_basis": (1, _column_basis),
    "cosets.build_coset_space": (None, _coset_space),
    "hecke.universal_hecke_element": (None, _hecke_element),
    "analytic.completed_lvalue": (None, _lvalue),
    "hecke.resolve_sigma_coset": (None, _resolve),
}


def program_modules() -> dict:
    """name -> module, for periodpoly and its submodules."""
    return {name: m for name, m in list(sys.modules.items())
            if m is not None and (name == "periodpoly" or name.startswith("periodpoly."))}


def _resolve_target(module: str, qual: str):
    """(owner, attribute, original) of a target; owner is the class for
    methods and the defining module for functions."""
    owner = importlib.import_module("periodpoly." + module)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Spans and counters of one traced stretch of the run."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, job)
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = program_modules().values()
        for timed, targets in ((True, TIMED), (False, COUNTED)):
            for module, qual in targets:
                owner, attr, orig = _resolve_target(module, qual)
                name = "%s.%s" % (module, qual)
                wrapper = self._timed(name, orig) if timed else self._counted(name, orig)
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, alias, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, orig):
        spans, stack, counts = self.spans, self._stack, self.counts
        materialize, hook = HOOKS.get(name, (None, None))
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if materialize is not None:
                args = _as_list(args, materialize)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, orig):
        counts = self.counts
        _, hook = HOOKS.get(name, (None, None))
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    # -- job spans and aggregation -----------------------------------------

    @contextlib.contextmanager
    def job_span(self, name: str, job: str):
        """The root span of one job."""
        self.job = job
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, job)
            self.job = None

    def self_times(self) -> Counter:
        """Self time per span name: duration minus covered child time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
