"""In-memory span tracer for the kantor package, installed from outside.

The package has no instrumentation of its own, so the tracer replaces
public functions and ``Poly`` methods with timing wrappers.  Modules bind
names with ``from .algebra import multiply``, so replacing the attribute on
the defining module alone would miss most callers: every ``kantor`` module
(and class) that holds the original object gets the wrapper, and
``restore`` puts every original back.

For each span name the tracer keeps the call count, the total time of
outermost calls (nested calls of the same name are not counted twice) and
the self time, which is a span's duration minus the time its child spans
cover.  Coarse layers also keep one record per span (name, start, end,
parent span, job) for the trace file; the fine-grained ``Poly`` operations
and ``multiply`` only keep the aggregates, since they run millions of times.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _poly_mul_pairs(counts, args):
    left, right = args[0], args[1]
    terms = getattr(right, "terms", None)
    counts["poly.mul.term_pairs"] += len(left.terms) * (len(terms) if terms is not None else 1)


def _linsolve_result(counts, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    counts["linsolve.rows"] += len(system)
    counts["linsolve.kernel_dim"] += len(result.free)


def _check_identity_result(counts, args, kwargs, result):
    counts["identities.obstructions"] += len(result.obstructions)


def _families_result(counts, args, kwargs, result):
    counts["classify.families"] += len(result)
    counts["classify.families_unverified"] += sum(
        1 for f in result if f.equations or not f.is_polynomial()
    )
    counts["classify.depth_capped"] += sum(1 for f in result if "depth cap" in f.label)


# (span name, defining module, attribute or "Class.method", keep span records,
#  hook called with the arguments, hook called with the result)
TARGETS = (
    ("poly.mul", "kantor.poly", "Poly.__mul__", False, _poly_mul_pairs, None),
    ("poly.add", "kantor.poly", "Poly.__add__", False, None, None),
    ("poly.substitute", "kantor.poly", "Poly.substitute", False, None, None),
    ("poly.str", "kantor.poly", "Poly.__str__", False, None, None),
    ("algebra.multiply", "kantor.algebra", "multiply", False, None, None),
    ("product.kantor_product", "kantor.product", "kantor_product", True, None, None),
    ("identities.check_identity", "kantor.identities", "check_identity", True, None,
     _check_identity_result),
    ("linsolve.solve_linear", "kantor.linsolve", "solve_linear", True, None, _linsolve_result),
    ("classify.stage1", "kantor.classify", "poisson_stage1", True, None, None),
    ("classify.stage1", "kantor.classify", "postlie_stage1", True, None, None),
    ("classify.case_split_solve", "kantor.classify", "case_split_solve", True, None, None),
    ("classify.structures", "kantor.classify", "poisson_structures", True, None, _families_result),
    ("classify.structures", "kantor.classify", "postlie_structures", True, None, _families_result),
    ("un.un_bracket", "kantor.un", "un_bracket", True, None, None),
    ("catalog.load_catalog", "kantor.catalog", "load_catalog", True, None, None),
    ("catalog.verify_entry", "kantor.catalog", "verify_entry", True, None, None),
    ("cli.main", "kantor.cli", "main", True, None, None),
    ("files.parse_algebra", "kantor.files", "parse_algebra", True, None, None),
)


def _owners():
    """Every loaded kantor module and every class defined in one."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kantor" or name.startswith("kantor.")):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                owners.append(value)
    return owners


class Tracer:
    """Wraps the kantor layers while installed; aggregates stay after ``restore``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.job = None
        self._frames = []
        self._open = []
        self._depth = defaultdict(int)
        self._patches = []

    # -- spans -----------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run one job as the root span ``job``; its spans carry ``job_id``."""
        self.job = job_id
        try:
            return self._wrap("job", fn, True, None, None)()
        finally:
            self.job = None

    def _wrap(self, name, fn, record, on_call, on_result):
        frames, open_spans, depth, counts = self._frames, self._open, self._depth, self.counts
        calls, total_s, self_s, spans = self.calls, self.total_s, self.self_s, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counts, args)
            frame = [0.0]
            frames.append(frame)
            depth[name] += 1
            if record:
                span = [len(spans), open_spans[-1][0] if open_spans else None, name, self.job, 0.0, 0.0]
                spans.append(span)
                open_spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                frames.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if not depth[name]:
                    total_s[name] += duration
                if frames:
                    frames[-1][0] += duration
                if record:
                    open_spans.pop()
                    span[4], span[5] = start, end
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.kantor_tracer = True
        return traced

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every target in every kantor module and class that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            importlib.import_module(target[1])
        owners = _owners()
        for name, module, attr, record, on_call, on_result in TARGETS:
            original = sys.modules[module]
            for part in attr.split("."):
                original = getattr(original, part)
            wrapper = self._wrap(name, original, record, on_call, on_result)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def snapshot(self):
        return dict(self.self_s), dict(self.total_s)

    def scale_since(self, snapshot, factor):
        """Scale the times recorded since ``snapshot`` by ``factor`` (speed calibration)."""
        for now, before in zip((self.self_s, self.total_s), snapshot):
            for name, value in now.items():
                base = before.get(name, 0.0)
                now[name] = base + (value - base) * factor

    def metrics(self, epochs=1):
        """Per-layer figures per epoch: ``name.calls``, ``name.self_s``, ``name.total_s``."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name] / epochs
            out[f"{name}.self_s"] = self.self_s[name] / epochs
            out[f"{name}.total_s"] = self.total_s[name] / epochs
        for name, value in self.counts.items():
            out[name] = value / epochs
        return out


def find_unrestored():
    """Names of traced targets that some kantor module or class still wraps."""
    left = []
    for owner in _owners():
        for key, value in vars(owner).items():
            if getattr(value, "kantor_tracer", False):
                left.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return left
