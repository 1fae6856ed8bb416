"""In-memory span recorder that wraps qbsde's public functions from outside.

Nothing under ``src/`` is changed: :func:`install` replaces module-level
bindings with timing wrappers.  A function imported by name into another
module (``from qbsde.core import simulate_two_sided_exit``) is wrapped at
every binding, so the span is recorded whichever module calls it.  The clock
engines get one span name per calling module (``core.two_sided.catalog``,
``core.two_sided.solver``, ...), which attributes each engine call to the
layer that asked for it.

Spans are kept in a list while the workload runs and reduced to per-layer
metrics once at the end by :func:`layer_metrics`.  A span's self time is its
duration minus the durations of its direct child spans (one thread, so
children never overlap).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

_parent: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span_parent", default=None
)

#: Modules whose namespaces are scanned for bindings to wrap.
MODULES = ("qbsde", "qbsde.core", "qbsde.catalog", "qbsde.heavytail",
           "qbsde.solver", "qbsde.bmo", "qbsde.cli")

#: Public functions spanned under ``<defining module>.<function>``.
SPANNED = {
    "core": ("sample_paths",),
    "catalog": ("evaluate_mpr",),
    "heavytail": ("divergence_verdict",),
    "solver": ("psi_unconditional", "psi_conditional_profile", "psi_path",
               "mult_rep", "continuum", "driver_residual", "martingale_check"),
    "bmo": ("classify", "critical_exponent", "dyn_exp_moment",
            "reverse_holder", "bmo_norm"),
}

#: Clock engines, spanned as ``<prefix>.<calling module>``.
ENGINES = {
    "simulate_two_sided_exit": "core.two_sided",
    "simulate_line_hit": "core.line_hit",
}

#: Kinds whose ``evaluate_mpr`` uses the shared driftless exits.
DRIFTLESS_KINDS = ("nosol", "alpha_arccos")


@dataclass
class Span:
    name: str
    parent: "Span | None"
    duration: float = 0.0
    child_time: float = 0.0
    child_names: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Collects finished spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` wrapped in a span; ``counter(result, args, kwargs)``
        returns a dict of counts computed from the call's returned value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name=name, parent=_parent.get())
            token = _parent.set(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - start
                _parent.reset(token)
                if span.parent is not None:
                    span.parent.child_time += span.duration
                    span.parent.child_names.append(name)
                self.spans.append(span)
            if counter is not None:
                span.attrs.update(counter(result, args, kwargs))
            return result

        return wrapper


def _engine_counts(exits, args, kwargs) -> dict:
    dv = exits.dv
    steps = np.ceil(exits.u_exit / dv - 1e-9)
    return {
        "paths": int(exits.n_paths),
        "path_steps": int(steps.sum()),
        "censored": int(np.count_nonzero(exits.censored)),
        "exits": int(np.count_nonzero(exits.exited)),
        "bridge": int(np.count_nonzero(exits.exited & ~exits.endpoint_detected)),
    }


def _kind_of_spec(result, args, kwargs) -> dict:
    spec = args[0] if args else kwargs["spec"]
    return {"kind": spec.kind}


def _ensemble_bytes(ensemble, args, kwargs) -> dict:
    return {"bytes": int(ensemble.increments.nbytes)}


_COUNTERS = {
    "core.sample_paths": _ensemble_bytes,
    "catalog.evaluate_mpr": _kind_of_spec,
}


def install(recorder: Recorder) -> None:
    """Wrap every binding of the spanned functions in the qbsde modules."""
    modules = {name: importlib.import_module(name) for name in MODULES}
    wrapped: dict[int, object] = {}
    for owner, names in SPANNED.items():
        for fname in names:
            original = getattr(modules[f"qbsde.{owner}"], fname)
            span_name = f"{owner}.{fname}"
            wrapper = recorder.wrap(original, span_name, _COUNTERS.get(span_name))
            wrapped[id(original)] = wrapper
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    core = modules["qbsde.core"]
    for fname, prefix in ENGINES.items():
        original = getattr(core, fname)
        for modname, mod in modules.items():
            if getattr(mod, fname, None) is original and modname != "qbsde":
                caller = modname.rsplit(".", 1)[-1]
                setattr(mod, fname, recorder.wrap(original, f"{prefix}.{caller}",
                                                  _engine_counts))

    sampler = modules["qbsde.catalog"].SigmaSampler
    sampler.from_w_half = recorder.wrap(sampler.from_w_half,
                                        "catalog.sigma_from_w_half")

    cli = modules["qbsde.cli"]
    for suite, runner in list(cli._SUITE_RUNNERS.items()):
        cli._SUITE_RUNNERS[suite] = recorder.wrap(runner, "cli.suite")


def layer_metrics(spans: list[Span], extra: dict) -> dict[str, float]:
    """Reduce finished spans to the per-layer metrics, by name.

    ``extra`` carries the counts the workload measured itself
    (``solver.lstsq_fallbacks``, ``cli.artifact_bytes``).  A layer the
    workload never reached reports zeros.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name: str) -> list[Span]:
        return by_name.get(name, [])

    out: dict[str, float] = {}
    for owner, names in SPANNED.items():
        for fname in names:
            sp = group(f"{owner}.{fname}")
            out[f"{owner}.{fname}.calls"] = len(sp)
            out[f"{owner}.{fname}.s"] = sum(s.duration for s in sp)
            out[f"{owner}.{fname}.self_s"] = sum(s.self_time for s in sp)
    out["core.sample_paths.bytes"] = sum(
        s.attrs.get("bytes", 0) for s in group("core.sample_paths"))
    out["catalog.sigma_from_w_half.s"] = sum(
        s.duration for s in group("catalog.sigma_from_w_half"))
    out["cli.suite.self_s"] = sum(s.self_time for s in group("cli.suite"))

    for prefix in ENGINES.values():
        for caller in ("catalog", "solver", "core"):
            name = f"{prefix}.{caller}"
            sp = group(name)
            paths = sum(s.attrs.get("paths", 0) for s in sp)
            exits = sum(s.attrs.get("exits", 0) for s in sp)
            secs = sum(s.duration for s in sp)
            out[f"{name}.calls"] = len(sp)
            out[f"{name}.paths"] = paths
            out[f"{name}.path_steps"] = sum(s.attrs.get("path_steps", 0) for s in sp)
            out[f"{name}.s"] = secs
            out[f"{name}.ns_per_path"] = secs * 1e9 / paths if paths else 0.0
            out[f"{name}.censored_frac"] = (
                sum(s.attrs.get("censored", 0) for s in sp) / paths if paths else 0.0)
            out[f"{name}.bridge_frac"] = (
                sum(s.attrs.get("bridge", 0) for s in sp) / exits if exits else 0.0)

    driftless = [s for s in group("catalog.evaluate_mpr")
                 if s.attrs.get("kind") in DRIFTLESS_KINDS]
    reused = [s for s in driftless
              if not any(n.startswith("core.two_sided.") for n in s.child_names)]
    out["catalog.exit_reuse_ratio"] = len(reused) / len(driftless) if driftless else 0.0

    out.update(extra)
    return out
