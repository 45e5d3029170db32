"""Span tracer for one benchmark job, and the per-layer metrics built from its spans.

The layers are the modules of the quiverdt package.  `Tracer.install` wraps
every public function of each layer by rebinding each reference to it in every
loaded `quiverdt.*` namespace (the `from` imports in hn, wallcross and cli
hold their own references; scripts run after `install` import the wrappers),
and wraps the `Scalar` arithmetic methods on the class.  Nothing under `src/`
changes.

A layer function call becomes one span: [id, parent id, name, start, end,
self seconds, extra, error].  Self time is the span's duration minus the
durations of the spans and Scalar operations it called.  Scalar operations
are the most frequent calls by far, so they are aggregated (count, self
time, largest degree and coefficient size) instead of kept as spans.  Spans
stay in memory and are written out when the job ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

LAYERS = ("scalar", "quiver", "qtorus", "hn", "stability", "wallcross", "oracle", "cli")
# The quiver form helpers (ext, euler_form, skew_form, ...) run once per term
# pair inside torus_mul; they stay unwrapped and their time stays with the caller.
QUIVER_FUNCS = ("load_quiver_file",)
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse", "__pow__", "adams")
ORACLE_ENTRIES = ("oracle.count_stack", "oracle.count_framed_stable",
                  "oracle.hall_filtration_check")
EXP_LOG = ("qtorus.pleth_exp", "qtorus.pleth_log")


def _term_pairs(a):
    return len(a["f"].coeffs) * len(a["g"].coeffs)


def _hn_input(a):
    """Digest of one hn_factorize input, to count distinct inputs."""
    series = a["BU"].series
    terms = sorted(series.coeffs.items(), key=lambda kv: kv[0])
    text = repr((repr(series.fq), series.trunc, [str(t) for t in a["theta"]], a["N"], terms))
    return hashlib.sha1(text.encode()).hexdigest()


def _rep_points(fq, dims, star, q):
    """F_q-points of the representation space one oracle call enumerates:
    q^(arrow matrix entries) times q^(framing vector entries).  Computed
    from the arguments, not counted inside the oracle loops."""
    entries = sum(m * dims[i] * dims[j]
                  for i, row in enumerate(fq.base.arrows) for j, m in enumerate(row))
    if star:
        entries += sum(w * x for w, x in zip(fq.w, dims))
    return q ** entries


def _stack_points(a):
    alpha = a["alpha"]  # an ExtDimVector, or a plain tuple meaning star 0
    return _rep_points(a["fq"], tuple(getattr(alpha, "unframed", alpha)),
                       getattr(alpha, "star", 0), a["q"])


def _framed_points(a):
    return _rep_points(a["fq"], tuple(a["alpha"]), 1, a["q"])


# span name -> function of the call's bound arguments, stored with the span
EXTRA = {
    "qtorus.torus_mul": _term_pairs,
    "hn.hn_factorize": _hn_input,
    "oracle.count_stack": _stack_points,
    "oracle.count_framed_stable": _framed_points,
    "oracle.hall_filtration_check": _framed_points,
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list = []
        # frames: [child seconds, id of the nearest span (0 = root)]
        self.stack: list = [[0.0, 0]]
        self.scalar = {"ops": 0, "self_s": 0.0, "max_deg": 0, "max_coeff_bits": 0}

    # ---- wrappers -----------------------------------------------------------

    def _span(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, self.clock
        bind = inspect.signature(fn).bind if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1][1], name, 0.0, 0.0, 0.0,
                   extra(bind(*args, **kwargs).arguments) if extra else None, None]
            spans.append(rec)
            frame = [0.0, rec[0]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[7] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                rec[3], rec[4], rec[5] = t0, t1, t1 - t0 - frame[0]
        return wrapper

    def _scalar_op(self, fn, cls):
        stack, clock, agg = self.stack, self.clock, self.scalar

        @functools.wraps(fn)
        def op(*args):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                agg["ops"] += 1
                agg["self_s"] += dt - frame[0]
            if out.__class__ is cls:
                num, den = out.num, out.den
                deg = max(len(num), len(den)) - 1
                if deg > agg["max_deg"]:
                    agg["max_deg"] = deg
                bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                            for c in num + den), default=0)
                if bits > agg["max_coeff_bits"]:
                    agg["max_coeff_bits"] = bits
            return out
        return op

    def install(self) -> None:
        import quiverdt.cli  # noqa: F401  (loads every layer module)
        from quiverdt.scalar import Scalar

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["quiverdt." + layer]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)
                        or (layer == "quiver" and name not in QUIVER_FUNCS)):
                    continue
                span_name = f"{layer}.{name}"
                wrappers[id(obj)] = self._span(span_name, obj, EXTRA.get(span_name))
        for modname, mod in list(sys.modules.items()):
            if modname == "quiverdt" or modname.startswith("quiverdt."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, name, wrappers[id(obj)])

        ops = {}
        for name in SCALAR_OPS:
            fn = Scalar.__dict__[name]
            if id(fn) not in ops:  # __radd__ is __add__, __rmul__ is __mul__
                ops[id(fn)] = self._scalar_op(fn, Scalar)
            setattr(Scalar, name, ops[id(fn)])

    def dump(self) -> dict:
        return {"spans": self.spans, "scalar": self.scalar}


# ---- per-layer metrics (run in the benchmark process) -------------------------

PER_LAYER = {
    "scalar.ops": "count", "scalar.self_s": "s", "scalar.max_deg": "deg",
    "scalar.max_coeff_bits": "bits",
    "qtorus.self_s": "s", "qtorus.torus_mul.calls": "count",
    "qtorus.torus_mul.term_pairs": "count", "qtorus.torus_inverse.calls": "count",
    "qtorus.pleth_exp.calls": "count", "qtorus.pleth_log.calls": "count",
    "qtorus.exp_log_s": "s",
    "hn.self_s": "s", "hn.universal_for.calls": "count", "hn.hn_factorize.calls": "count",
    "hn.hn_factorize.distinct": "count", "hn.hn_factorize.incl_s": "s",
    "wallcross.self_s": "s", "wallcross.framed_at.calls": "count",
    "wallcross.ncdt.calls": "count", "wallcross.transfer_series.calls": "count",
    "wallcross.ncdt.exp_log_s": "s", "wallcross.transfer_series.inverses_per_call": "count",
    "stability.self_s": "s", "stability.find_walls.calls": "count",
    "oracle.self_s": "s", "oracle.count_stack.calls": "count",
    "oracle.count_framed_stable.calls": "count",
    "oracle.hall_filtration_check.calls": "count", "oracle.points": "count",
    "oracle.budget_errors": "count",
    # output_bytes: stdout of every job in the pass, in its seed-0 form
    "cli.self_s": "s", "cli.output_bytes": "bytes", "quiver.load_quiver_file.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(traces: list, output_bytes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one pass from the job traces of that pass."""
    m = dict.fromkeys(PER_LAYER, 0)
    hn_inputs = 0
    for trace in traces:
        spans = trace["spans"]
        by_id = {s[0]: s for s in spans}

        def ancestors(span):
            pid = span[1]
            while pid:
                parent = by_id[pid]
                yield parent[2]
                pid = parent[1]

        inputs = set()
        for span in spans:
            _, pid, name, t0, t1, self_s, extra, error = span
            layer = name.split(".")[0]
            m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0) + self_s
            key = name + ".calls"
            if key in m:
                m[key] += 1
            if name == "quiver.load_quiver_file":
                m["quiver.load_quiver_file.self_s"] += self_s
            elif name == "qtorus.torus_mul":
                m["qtorus.torus_mul.term_pairs"] += extra
            elif name == "hn.hn_factorize":
                m["hn.hn_factorize.incl_s"] += t1 - t0
                inputs.add(extra)
            elif name in EXP_LOG:
                up = list(ancestors(span))
                if not any(a in EXP_LOG for a in up):
                    m["qtorus.exp_log_s"] += t1 - t0
                    if "wallcross.ncdt" in up:
                        m["wallcross.ncdt.exp_log_s"] += t1 - t0
            elif name == "qtorus.torus_inverse":
                if "wallcross.transfer_series" in ancestors(span):
                    m["wallcross.transfer_series.inverses_per_call"] += 1
            if name in ORACLE_ENTRIES:
                m["oracle.points"] += extra
            if (error == "BudgetError" and layer == "oracle"
                    and not (pid and by_id[pid][2].startswith("oracle."))):
                m["oracle.budget_errors"] += 1
        hn_inputs += len(inputs)
        for key in ("ops", "self_s"):
            m["scalar." + key] += trace["scalar"][key]
        for key in ("max_deg", "max_coeff_bits"):
            m["scalar." + key] = max(m["scalar." + key], trace["scalar"][key])
    calls = m["wallcross.transfer_series.calls"]
    m["wallcross.transfer_series.inverses_per_call"] = (
        m["wallcross.transfer_series.inverses_per_call"] / calls if calls else 0)
    m["hn.hn_factorize.distinct"] = hn_inputs
    m["cli.output_bytes"] = output_bytes
    m["trace.overhead_frac"] = traced_s / untraced_s - 1
    return {k: {"value": m[k], "unit": unit} for k, unit in PER_LAYER.items()}

