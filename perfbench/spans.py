"""In-memory span recorder that wraps the solver's public functions from outside.

Each wrapped call records one span ``[name, start, end, parent, op, error]``
where ``parent`` is the index of the enclosing span (-1 at the root) and ``op``
is the op id the benchmark set before the call ("setup" during set-up).  A
few boundaries also record a count taken from the call's result, so ratios
are measured where the work happens.

Wrapping is done at the names callers look up: a function is replaced in
every module of the package whose attribute *is* that function, which covers
the names ``cli`` imported with ``from ... import`` as well as the package
re-exports.  Same-layer helpers are not wrapped; their time is the layer's
self time.  ``discrete_ops.step_stacked`` is deliberately not wrapped: it runs
once per marching step (a few microseconds), so a wrapper would cost about as
much as the step.  Its time counts as observer self time.
"""

import json
import sys
import time
from pathlib import Path

# Public functions wrapped, as (module, function).  Span names are
# "<module>.<function>"; the module is the layer.
BOUNDARIES = (
    ("grid", "build_grid"),
    ("reference", "make_cauchy_data"),
    ("reference", "bottom_trace"),
    ("reference", "sample_state_field"),
    ("reference", "neumann_example"),
    ("reference", "dirichlet_example"),
    ("reference", "combo_example"),
    ("discrete_ops", "assemble"),
    ("gain", "ackermann_gain"),
    ("gain", "ring_poles"),
    ("gain", "uniform_poles"),
    ("observer", "run"),
    ("spectral", "gram_matrix"),
    ("spectral", "eigen_residual"),
    ("spectral", "observability_lower_bound"),
    ("spectral", "semigroup_apply"),
    ("cli", "main"),
    ("cli", "write_csv"),
)

LAYERS = ("cli", "observer", "reference", "gain", "discrete_ops", "spectral",
          "grid")


def _run_counts(args, kwargs, out):
    field, report = out
    nx, n = field.shape
    return {"sweeps": report.sweeps, "steps": report.sweeps * (nx - 1),
            "state_dim": n, "converged": report.converged_at is not None}


def _gain_counts(args, kwargs, out):
    return {"obs_condition": out.obs_condition,
            "max_abs_k": float(abs(out.k).max()),
            "radius": out.spectral_radius}


COUNTERS = {"observer.run": _run_counts, "gain.ackermann_gain": _gain_counts}


class Tracer:
    """Span recorder; spans stay in memory until ``write`` is called."""

    def __init__(self):
        self.spans = []
        self.counts = []          # (span index, dict)
        self.op = None
        self._stack = []
        self._targets = []        # (module, attribute, original, wrapper)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts.append((idx, counter(args, kwargs, out)))
            return out

        return traced

    def install(self, package_name):
        """Replace every boundary function at each name it is bound to."""
        if not self._targets:
            modules = [m for k, m in sys.modules.items()
                       if k == package_name or k.startswith(package_name + ".")]
            for mod_name, fn_name in BOUNDARIES:
                owner = sys.modules[f"{package_name}.{mod_name}"]
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._targets.append(
                                (module, attr, original, wrapper))
        for module, attr, _original, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _wrapper in self._targets:
            setattr(module, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def flops_per_step(n):
    """Flops of one marching step on an n-dimensional state: the matvec
    (2n^2 - n), the gain and forcing scalings (2n) and two vector adds (2n)."""
    return 2 * n * n + 3 * n


def layer_metrics(tracer, op_wall_s, n_ops):
    """Per-layer metrics from the spans of ops (not set-up).

    ``op_wall_s`` is the summed wall time of the traced ops as the benchmark
    measured it around each call, so the layer shares plus
    ``trace.uncovered_frac`` add up to one.
    """
    spans = tracer.spans
    incl, self_t, calls = {}, {}, {}
    root_total = 0.0
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] != "setup" and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for i, (name, start, end, parent, op, _err) in enumerate(spans):
        if op == "setup":
            continue
        dur = end - start
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            root_total += dur

    def per_op_ms(name):
        return 1e3 * incl.get(name, 0.0) / n_ops

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_t.items():
        layer_self[name.split(".", 1)[0]] += t

    runs = [c for i, c in tracer.counts
            if spans[i][0] == "observer.run" and spans[i][4] != "setup"]
    steps = sum(c["steps"] for c in runs)
    flops = sum(c["steps"] * flops_per_step(c["state_dim"]) for c in runs)
    run_s = incl.get("observer.run", 0.0)

    designs = [s for s in spans if s[0] == "gain.ackermann_gain"]
    design_ok = [c for i, c in tracer.counts
                 if spans[i][0] == "gain.ackermann_gain"]

    m = {
        "observer.run_ms": per_op_ms("observer.run"),
        "observer.us_per_step": 1e6 * run_s / steps if steps else 0.0,
        "observer.sweeps_per_op": sum(c["sweeps"] for c in runs) / n_ops,
        "observer.converged_ratio": (sum(c["converged"] for c in runs)
                                     / len(runs) if runs else 0.0),
        "observer.mflops": flops / run_s / 1e6 if run_s else 0.0,
        "reference.cauchy_ms": per_op_ms("reference.make_cauchy_data"),
        "reference.state_field_ms": per_op_ms("reference.sample_state_field"),
        "gain.design_ms": per_op_ms("gain.ackermann_gain"),
        "gain.designs_per_op": calls.get("gain.ackermann_gain", 0) / n_ops,
        "gain.success_ratio": (len(design_ok) / len(designs)
                               if designs else 0.0),
        "gain.obs_condition": max((c["obs_condition"] for c in design_ok),
                                  default=0.0),
        "gain.max_abs_k": max((c["max_abs_k"] for c in design_ok),
                              default=0.0),
        "gain.closed_loop_radius": max((c["radius"] for c in design_ok),
                                       default=0.0),
        "discrete_ops.assemble_ms": per_op_ms("discrete_ops.assemble"),
        "discrete_ops.steps_per_op": steps / n_ops,
        "discrete_ops.flops_per_step": flops / steps if steps else 0.0,
        "cli.self_ms": 1e3 * layer_self["cli"] / n_ops,
        "cli.write_csv_ms": per_op_ms("cli.write_csv"),
        "spectral.gram_ms": per_op_ms("spectral.gram_matrix"),
        "spectral.eigen_residual_ms": per_op_ms("spectral.eigen_residual"),
        "spectral.obs_bound_ms": per_op_ms("spectral.observability_lower_bound"),
        "spectral.propagator_ms": per_op_ms("spectral.semigroup_apply"),
        "grid.ms_per_op": per_op_ms("grid.build_grid"),
        "trace.uncovered_frac": (op_wall_s - root_total) / op_wall_s,
        "trace.spans_per_op": sum(calls.values()) / n_ops,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / op_wall_s
    return m
