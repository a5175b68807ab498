"""Spans around the calls into each library module, recorded from outside it.

A traced run replaces module attributes (``holo_uni.state_at`` and so on)
with wrappers that record one span per call: name, operation id, parent span,
start, end, the time covered by child spans, the exception class if the call
raised, and a small call-specific record.  Because the library looks up these
names through its module namespaces at call time, internal calls are seen too
(``select_order`` -> ``score_test_halfline`` -> ``fit_mle`` -> ...).  The
wrappers return exactly what the wrapped function returns.

``_ode.dopri45`` is wrapped differently: the right-hand side is replaced by a
counting one, and a step callback that counts accepted steps is chained in
front of the caller's, so RHS evaluations, accepted and rejected steps and
RHS time are known per integration without spans per evaluation.

Spans stay in memory until ``write`` and the originals are put back by
``restore``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import statistics
from time import perf_counter

from exppoly import _ode, domain, holo_bi, holo_uni, inference, oracle, polyalg
from workloads import percentile

# (module, attribute, span name).  Aliases imported by name into another
# module are separate bindings and are wrapped where they are bound; the
# transport aliases keep their binding in the span name so axis transports
# (holo_bi) and provider transports (inference) can be told apart.
CALL_SITES = (
    (holo_uni, "state_at", "holo_uni.state_at"),
    (holo_uni, "transport", "holo_uni.transport"),
    (inference, "transport", "inference.transport"),
    (holo_bi, "transport", "holo_bi.transport"),
    (inference, "fit_mle", "inference.fit_mle"),
    (inference, "score_test_halfline", "inference.score_test"),
    (inference, "score_test_realline", "inference.score_test"),
    (inference, "select_order", "inference.select_order"),
    (inference, "loglik_and_grad", "inference.loglik_and_grad"),
    (inference, "fisher_info", "inference.fisher_info"),
    (inference, "norm_const_and_derivs", "inference.norm_const_and_derivs"),
    (holo_bi, "transport_bi", "holo_bi.transport_bi"),
    (inference, "transport_bi", "holo_bi.transport_bi"),
    (holo_bi, "extend_table", "holo_bi.extend_table"),
    (inference, "extend_table", "holo_bi.extend_table"),
    (holo_bi, "boundary_consts", "holo_bi.boundary_consts"),
    (holo_bi, "pfaffian_det", "holo_bi.pfaffian_det"),
    (polyalg, "classify_chamber", "polyalg.classify_chamber"),
    (polyalg, "discriminant", "polyalg.discriminant"),
    (oracle, "sample_uni", "oracle.sample_uni"),
    (domain, "suff_stats", "domain.suff_stats"),
    (_ode, "rk4_with_estimate", "ode.rk4"),
)
TRANSPORTS = ("holo_uni.transport", "inference.transport", "holo_bi.transport")

# span fields
NAME, OP, PARENT, START, END, CHILD, ERROR, INFO, INDEX = range(9)


def _fit_info(result) -> tuple:
    return (result.iterations, result.converged, result.hit_boundary)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, self.op, -1 if parent is None else parent[INDEX], perf_counter(), 0.0, 0.0, "", None, len(self.spans)]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list, error: str = "", info=None) -> None:
        span[END] = perf_counter()
        span[ERROR] = error
        span[INFO] = info
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += span[END] - span[START]

    def span(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(s, type(exc).__name__)
                raise
            tracer._close(s, "", on_return(out) if on_return is not None else None)
            return out

        return wrapper

    def _dopri45(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, y0, rtol, max_steps=200_000, callback=None):
            counts = [0, 0, 0.0]  # RHS evaluations, accepted steps, RHS seconds

            def counted_f(s, y):
                t0 = perf_counter()
                try:
                    return f(s, y)
                finally:
                    dt = perf_counter() - t0
                    counts[0] += 1
                    counts[2] += dt
                    tracer._stack[-1][CHILD] += dt

            def counted_callback(s, y):
                counts[1] += 1
                if callback is not None:
                    callback(s, y)

            s = tracer._open("ode.dopri45")
            try:
                out = fn(counted_f, y0, rtol, max_steps, counted_callback)
            except BaseException as exc:
                tracer._close(s, type(exc).__name__, tuple(counts))
                raise
            tracer._close(s, "", tuple(counts))
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, name in CALL_SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            on_return = _fit_info if name == "inference.fit_mle" else None
            setattr(module, attr, self.span(name, fn, on_return))
        self._saved.append((_ode, "dopri45", _ode.dopri45))
        _ode.dopri45 = self._dopri45(_ode.dopri45)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin_op(self, op: int, kind: str) -> list:
        self.op = op
        return self._open("op." + kind)

    def end_op(self, span: list, error: str) -> None:
        self._close(span, error)
        self.op = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "op", "parent", "start", "end", "child_s", "error", "info"])
            for s in self.spans:
                w.writerow([s[INDEX], s[NAME], s[OP], s[PARENT], repr(s[START]), repr(s[END]), repr(s[CHILD]), s[ERROR], s[INFO]])


# --------------------------------------------------------------- metrics


def layer_metrics(spans: list[list], n_ops: int, quad_p50_ms: dict) -> dict:
    """Per-module metrics from the spans of one traced run.

    ``quad_p50_ms`` holds the median oracle time per point measured on the
    same inputs ("uni" for quad_moment_uni, "bi" for quad_A_bi); a ratio
    without its oracle reads 0.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        children.setdefault(s[PARENT], []).append(s)

    def get(name):
        return by_name.get(name, [])

    def dur(s):
        return s[END] - s[START]

    def calls(*names):
        return sum(len(get(n)) for n in names)

    def time_s(*names):
        return sum(dur(s) for n in names for s in get(n))

    def self_s(*names):
        return sum(dur(s) - s[CHILD] for n in names for s in get(n))

    def p_ms(q, *names):
        return 1e3 * percentile(sorted(dur(s) for n in names for s in get(n)), q)

    out: dict[str, float] = {}
    dopri = get("ode.dopri45")
    evals = sum(s[INFO][0] for s in dopri)
    accepted = sum(s[INFO][1] for s in dopri)
    # DOPRI 5(4) with first-same-as-last: one initial evaluation, then six
    # per attempted step
    attempted = sum(max(s[INFO][0] - 1, 0) // 6 for s in dopri)
    out["ode.rhs_evals"] = evals
    out["ode.steps_accepted"] = accepted
    out["ode.steps_rejected"] = attempted - accepted
    out["ode.rhs_s"] = sum(s[INFO][2] for s in dopri)
    out["ode.dopri45.self_s"] = self_s("ode.dopri45")
    out["ode.rk4.calls"] = calls("ode.rk4")

    state_at = get("holo_uni.state_at")
    st_time = sum(dur(s) for s in state_at)
    refused = [s for s in state_at if s[ERROR] == "ToleranceNotMet"]
    retries = sum(
        max(sum(1 for c in children.get(s[INDEX], []) if c[NAME] in TRANSPORTS) - 1, 0) for s in state_at
    )
    out["holo_uni.state_at.calls"] = len(state_at)
    out["holo_uni.state_at.p50_ms"] = p_ms(50, "holo_uni.state_at")
    out["holo_uni.state_at.p95_ms"] = p_ms(95, "holo_uni.state_at")
    out["holo_uni.state_at.self_s"] = self_s("holo_uni.state_at")
    out["holo_uni.transport.calls"] = calls(*TRANSPORTS)
    out["holo_uni.transport.time_s"] = time_s(*TRANSPORTS)
    out["holo_uni.retry_ratio"] = retries / len(state_at) if state_at else 0.0
    out["holo_uni.refused"] = len(refused)
    out["holo_uni.refused_time_share"] = sum(dur(s) for s in refused) / st_time if st_time else 0.0
    uni_quad = quad_p50_ms.get("uni", 0.0)
    out["oracle.quad_moment_uni.p50_ms"] = uni_quad
    out["holo_uni.vs_quad_p50_ratio"] = out["holo_uni.state_at.p50_ms"] / uni_quad if uni_quad else 0.0

    for short, name in (
        ("fit_mle", "inference.fit_mle"),
        ("score_test", "inference.score_test"),
        ("select_order", "inference.select_order"),
    ):
        out[f"inference.{short}.calls"] = calls(name)
        out[f"inference.{short}.p50_ms"] = p_ms(50, name)
        out[f"inference.{short}.self_s"] = self_s(name)
    fits = [s[INFO] for s in get("inference.fit_mle") if s[INFO] is not None]
    out["inference.fit_mle.iterations_mean"] = statistics.fmean(f[0] for f in fits) if fits else 0.0
    out["inference.fit_mle.converged_ratio"] = sum(f[1] for f in fits) / len(fits) if fits else 0.0
    out["inference.fit_mle.hit_boundary"] = sum(f[2] for f in fits)
    out["inference.loglik_and_grad.calls"] = calls("inference.loglik_and_grad")
    out["inference.fisher_info.calls"] = calls("inference.fisher_info")
    out["inference.transports_per_op"] = calls(*TRANSPORTS) / n_ops if n_ops else 0.0
    out["inference.norm_const_and_derivs.calls"] = calls("inference.norm_const_and_derivs")

    for short in ("transport_bi", "extend_table"):
        name = "holo_bi." + short
        out[f"holo_bi.{short}.calls"] = calls(name)
        out[f"holo_bi.{short}.p50_ms"] = p_ms(50, name)
        out[f"holo_bi.{short}.self_s"] = self_s(name)
    out["holo_bi.boundary_consts.calls"] = calls("holo_bi.boundary_consts")
    out["holo_bi.axis_transports"] = calls("holo_bi.transport")
    bi_ids = {s[INDEX] for s in get("holo_bi.transport_bi")}
    out["holo_bi.rhs_evals"] = sum(s[INFO][0] for s in dopri if s[PARENT] in bi_ids)
    # against the oracle only the transports an operation asked for directly,
    # not the short incremental ones inside a fit
    ops = {s[INDEX] for s in spans if s[NAME].startswith("op.")}
    direct = sorted(dur(s) for s in get("holo_bi.transport_bi") if s[PARENT] in ops)
    bi_quad = quad_p50_ms.get("bi", 0.0)
    out["oracle.quad_A_bi.p50_ms"] = bi_quad
    out["holo_bi.vs_quad_p50_ratio"] = 1e3 * percentile(direct, 50) / bi_quad if bi_quad else 0.0

    classify = get("polyalg.classify_chamber")
    out["polyalg.classify_chamber.calls"] = len(classify)
    out["polyalg.classify_chamber.time_s"] = time_s("polyalg.classify_chamber")
    out["polyalg.classify_chamber.failed"] = sum(1 for s in classify if s[ERROR] not in ("", "OnDiscriminant"))
    out["polyalg.discriminant.calls"] = calls("polyalg.discriminant")
    out["polyalg.discriminant.time_s"] = time_s("polyalg.discriminant")
    out["holo_bi.pfaffian_det.time_s"] = time_s("holo_bi.pfaffian_det")

    out["oracle.sample_uni.calls"] = calls("oracle.sample_uni")
    out["oracle.sample_uni.time_s"] = time_s("oracle.sample_uni")
    out["domain.suff_stats.time_s"] = time_s("domain.suff_stats")
    info = oracle._cdf_nodes.cache_info()
    lookups = info.hits + info.misses
    out["oracle.cdf_nodes.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["trace.ops"] = n_ops
    out["trace.spans"] = len(spans)
    return out
