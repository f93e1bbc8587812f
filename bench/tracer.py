"""Outside-in tracer for the dworksum modules.

The tracer wraps public functions and methods of the package from outside:
no file of the package changes.  A wrapped function is rebound on its module,
and on every package module that imported it by name, so calls through
module attributes and through names imported with ``from ... import`` both
pass through the wrapper.

Three kinds of hook:

* ``span``  -- timed; every call is kept as a span (id, parent, name, start,
  end) in memory and handed back at the end;
* ``hot``   -- timed like a span, but only aggregated (calls, self time),
  because the function is called tens of thousands of times;
* ``count`` -- counts calls and nothing else.  Its time stays in the
  caller's self time.

Self time is a span's duration minus the time of the timed spans nested in
it.  Work counts (points, i_cut, basis size, multiply-adds, ...) are taken
from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

SPAN, HOT, COUNT = "span", "hot", "count"
MODULES = ("cli", "lfunction", "dwork", "padic", "finitefield", "polytope", "gkz")


def _route(bound):
    return bound.arguments.get("route")


def _torus_points(bound):
    a = bound.arguments
    return (a["twist"].q ** a["m"] - 1) ** a["config"].n


def _on_jobconfig(tr, bound, result):
    tr.job_m_max = bound.arguments["self"].m_max


def _on_characters(tr, bound, result):
    pts = _torus_points(bound)
    tr.add("lfunction.sums_oracle_characters.points", pts)
    if tr.job_m_max is not None and bound.arguments["m"] > tr.job_m_max:
        tr.add("lfunction.recognition_points", pts)


def _on_series_oracle(tr, bound, result):
    tr.add("lfunction.sums_oracle_series.points", _torus_points(bound))


def _on_h_series(tr, bound, result):
    a = bound.arguments
    tr.add("dwork.h_series.support", len(result.coeffs))
    tr.h_series_keys.add(
        (a["m"], tuple(x.coords for x in a["a_lifts"]), a["twist"].k)
    )


def _on_precision_cut(tr, bound, result):
    tr.maximum("dwork.h_series.i_cut", result)


def _on_dwork_matrix(tr, bound, result):
    tr.maximum("dwork.basis_dim", bound.arguments["self"].dim)


def _on_matmul(tr, bound, result):
    A, B = bound.arguments["A"], bound.arguments["B"]
    rows = 1 if A.ndim == 1 else A.shape[0]
    cols = 1 if B.ndim == 1 else B.shape[1]
    tr.add("padic.matmul_mod.madds", rows * A.shape[-1] * cols)


def _on_enumerate(tr, bound, result):
    tr.add("polytope.enumerate_points.points", len(result))


class Hook:
    def __init__(self, name, module, path, kind, on_return=None, split=None):
        self.name = name  # metric prefix, e.g. "padic.mul_coords"
        self.module = module  # package module, e.g. "padic"
        self.path = path  # attribute path inside it, e.g. "RingParams.mul_coords"
        self.kind = kind
        self.on_return = on_return
        self.split = split  # bound arguments -> suffix of the span name


HOOKS = [
    Hook("cli.run", "cli", "run", SPAN),
    Hook("cli.JobConfig", "cli", "JobConfig.__init__", SPAN, _on_jobconfig),
    Hook("cli.render_report", "cli", "render_report", SPAN),
    Hook("lfunction.sums_oracle_characters", "lfunction",
         "sums_oracle_characters", SPAN, _on_characters),
    Hook("lfunction.sums_oracle_series", "lfunction", "sums_oracle_series",
         SPAN, _on_series_oracle),
    Hook("lfunction.l_series_from_sums", "lfunction", "l_series_from_sums", SPAN),
    Hook("lfunction.l_from_charseries", "lfunction", "l_from_charseries", SPAN),
    Hook("lfunction.rational_recognition", "lfunction", "rational_recognition",
         SPAN),
    Hook("lfunction.newton_polygon", "lfunction", "newton_polygon", SPAN),
    Hook("lfunction.hyp_table", "lfunction", "hyp_table", SPAN),
    Hook("dwork.h_series", "dwork", "h_series", SPAN, _on_h_series),
    Hook("dwork.precision_cut", "dwork", "precision_cut", COUNT,
         _on_precision_cut),
    Hook("dwork.DworkMatrix", "dwork", "DworkMatrix.__init__", SPAN,
         _on_dwork_matrix),
    Hook("dwork.SeriesOnCone.coeff", "dwork", "SeriesOnCone.coeff", COUNT),
    Hook("dwork.trace", "dwork", "trace", SPAN, split=_route),
    Hook("dwork.char_series", "dwork", "char_series", SPAN),
    Hook("padic.mul_coords", "padic", "RingParams.mul_coords", COUNT),
    Hook("padic.splitting_coefficients", "padic", "splitting_coefficients", SPAN),
    Hook("padic.teichmueller", "padic", "teichmueller", SPAN),
    Hook("padic.ring_embed", "padic", "ring_embed", COUNT),
    Hook("padic.ring_restrict", "padic", "ring_restrict", SPAN),
    Hook("padic.matmul_mod", "padic", "matmul_mod", SPAN, _on_matmul),
    Hook("padic.encode_ring_matrix", "padic", "encode_ring_matrix", SPAN),
    Hook("padic.char_series_division_free", "padic",
         "char_series_division_free", SPAN),
    Hook("finitefield.absolute_trace_int", "finitefield", "absolute_trace_int",
         HOT),
    Hook("finitefield.multiplicative_generator", "finitefield",
         "multiplicative_generator", SPAN),
    Hook("finitefield.min_irreducible_poly", "finitefield",
         "min_irreducible_poly", HOT),
    Hook("finitefield.embed", "finitefield", "embed", SPAN),
    Hook("polytope.NewtonData.weight", "polytope", "NewtonData.weight", COUNT),
    Hook("polytope.enumerate_points", "polytope", "enumerate_points", SPAN,
         _on_enumerate),
    Hook("polytope.nondegeneracy_check", "polytope", "nondegeneracy_check", SPAN),
    Hook("polytope.newton_data", "polytope", "newton_data", SPAN),
    Hook("polytope.normalized_volume", "polytope", "normalized_volume", SPAN),
]

HOOK_NAMES = [h.name for h in HOOKS]


class Tracer:
    """Spans and counters of one process; install() once, dump() at the end."""

    def __init__(self):
        self.calls = {}  # span name -> calls
        self.total_ns = {}
        self.self_ns = {}
        self.counts = {}  # work counters
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.errors = {}  # module -> number of exceptions leaving its hooks
        self.absent = []  # hooks whose target no longer exists
        self.job_m_max = None
        self.h_series_keys = set()
        self._stack = []  # [span id or None, recorded ancestor id, child ns]
        self._next_id = 0
        self._seen_errors = {}  # module -> {id(exc): exc}

    # -- counters ------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    def _error(self, module, exc):
        seen = self._seen_errors.setdefault(module, {})
        if id(exc) not in seen:
            seen[id(exc)] = exc  # keeps the id from being reused
            self.errors[module] = self.errors.get(module, 0) + 1

    # -- wrappers ------------------------------------------------------

    def _counting(self, hook, orig):
        tracer, name, calls = self, hook.name, self.calls
        calls[name] = 0
        sig = inspect.signature(orig) if hook.on_return else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer._error(hook.module, exc)
                raise
            if sig is not None:
                hook.on_return(tracer, sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _timing(self, hook, orig):
        tracer, stack = self, self._stack
        record = hook.kind == SPAN
        sig = inspect.signature(orig) if (hook.on_return or hook.split) else None
        if hook.split is None:
            self.calls[hook.name] = 0

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = None
            name = hook.name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if hook.split is not None:
                    name = f"{name}.{hook.split(bound)}"
            ancestor = stack[-1][1] if stack else None
            span_id = None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, span_id if record else ancestor, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer._error(hook.module, exc)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_ns[name] = tracer.total_ns.get(name, 0) + dur
                tracer.self_ns[name] = (
                    tracer.self_ns.get(name, 0) + dur - frame[2]
                )
                if record:
                    tracer.spans.append((span_id, ancestor, name, start, end))
            if hook.on_return is not None:
                hook.on_return(tracer, bound, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"dworksum.{m}") for m in MODULES}
        for hook in HOOKS:
            owner = modules.get(hook.module)
            *parents, attr = hook.path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(hook.name)
                continue
            make = self._counting if hook.kind == COUNT else self._timing
            wrapper = make(hook, orig)
            setattr(owner, attr, wrapper)
            if parents:
                continue
            # names imported with ``from ... import`` elsewhere in the package
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counts": self.counts,
            "h_series_distinct": len(self.h_series_keys),
            "errors": self.errors,
            "absent": self.absent,
            "spans": self.spans,
        }
