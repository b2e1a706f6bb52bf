"""Span tracer for the per-layer benchmark run.

The tracer wraps the public functions of the ``conetube`` layers from the
outside: ``install`` rebinds every module-level name in the package that
refers to a wrapped function, so no source file of the library changes.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
numbers the benchmark prints.

Time metrics ending in ``self_s`` are self times: a span's duration minus
the part of it covered by its direct child spans.  The other time metrics
are inclusive times of the outermost span of that name.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import threading
import time
from collections import defaultdict
from pathlib import Path

ORACLE_KINDS = ("oracle.mc", "oracle.tensor", "oracle.quad")


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


class Tracer:
    """Records nested spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        self.spans.append(Span(name, stack[-1] if stack else None, self.clock()))
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack().pop()

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span among ``names``, if any."""
        for idx in reversed(self._stack()):
            if self.spans[idx].name in names:
                return self.spans[idx].name
        return None

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def wrap(self, name, fn, after=None, errors=()):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a callable taking the call's arguments.
        ``after(result, *args, **kwargs)`` runs once the span has closed;
        exceptions of the ``errors`` types are counted once as
        ``oracle.errors`` on their way out.
        """

        def wrapped(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            except errors as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.count("oracle.errors")
                raise
            finally:
                self.close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapped.__wrapped__ = fn
        return wrapped


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    Children that overlap (spans from worker threads) are merged before
    their cover is subtracted, so no interval is removed twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: call count, summed self time, outermost inclusive time."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for i, span in enumerate(spans):
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            entry["incl_s"] += span.end - span.start
    return dict(out)


# ---------------------------------------------------------------------------
# installing the wrappers on conetube
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> list[str]:
    """Wrap the conetube layers; returns the wrap targets that do not exist.

    Missing targets are reported rather than fatal, so that a renamed
    function shows up as a zero layer metric and a note, not as a crash.
    """
    import conetube

    modules = [conetube] + [importlib.import_module(f"conetube.{m.name}")
                            for m in pkgutil.iter_modules(conetube.__path__)]
    mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    missing = []

    def rebind(orig, wrapped):
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    def patch(module, attr, name, after=None, errors=()):
        orig = getattr(mod.get(module), attr, None)
        if orig is None:
            missing.append(f"{module}.{attr}")
            return
        rebind(orig, tracer.wrap(name, orig, after, errors))

    errs = mod.get("errors")
    oracle_errors = tuple(getattr(errs, e) for e in
                          ("AccuracyError", "OracleRejectedError")
                          if hasattr(errs, e))

    # sampling: proposal draws and their log-densities, by law kind
    def sampled(result, spec, count, *_, **__):
        if tracer.enclosing(("sampling",)) is None:
            tracer.count("sampling.points", count)

    for fn in ("sample_cone", "sample_tube", "sample_slice"):
        patch("sampling", fn, "sampling", sampled)
    laws = {"RadialLaw": lambda law, *_: f"sampling.radial_{law.kind}",
            "BorderLaw": "sampling.border", "CauchyLaw": "sampling.real",
            "ConditionalCauchyLaw": "sampling.real",
            "VCauchyLaw": "sampling.real"}
    for cls_name, name in laws.items():
        cls = getattr(mod["sampling"], cls_name, None)
        if cls is None:
            missing.append(f"sampling.{cls_name}")
            continue
        for meth in ("sample", "logpdf"):
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))

    # geometry kernels
    patch("geometry", "complex_minors", "geometry.complex_minors")
    patch("geometry", "complex_power_from_minors", "geometry.complex_power")
    patch("identities", "_abs_complex_power", "geometry.complex_power")
    patch("geometry", "canonical_to_coords", "geometry.canonical_to_coords")

    # identities: the integrands built per estimate, and the closed forms
    def evaluated(result, *_, **__):
        kind = (tracer.enclosing(ORACLE_KINDS) or "other").split(".")[-1]
        points = int(getattr(result, "size", 1))
        for key in ("identities.integrand", f"identities.integrand.{kind}"):
            tracer.count(f"{key}.calls")
            tracer.count(f"{key}.points", points)

    def integrand_factory(factory):
        def make(*args, **kwargs):
            return tracer.wrap("identities.integrand",
                               factory(*args, **kwargs), evaluated)
        return make

    registry = getattr(mod["identities"], "IDENTITIES", None)
    if registry is None:
        missing.append("identities.IDENTITIES")
    else:
        for key, ident in list(registry.items()):
            registry[key] = dataclasses.replace(
                ident, integrand=integrand_factory(ident.integrand),
                structure=tracer.wrap("identities.closed", ident.structure),
                stated_constant=tracer.wrap("identities.closed",
                                            ident.stated_constant))
    region = getattr(mod["identities"], "kernel_region_integrand", None)
    if region is None:
        missing.append("identities.kernel_region_integrand")
    else:
        rebind(region, integrand_factory(region))

    # constants: every public function of the module
    for key, fn in list(vars(mod["constants"]).items()):
        if inspect.isfunction(fn) and not key.startswith("_") \
                and fn.__module__ == mod["constants"].__name__:
            rebind(fn, tracer.wrap("constants", fn))

    # oracle: the Monte Carlo driver, quadrature, dispatch, calibration
    def mc_done(result, integrand, spec, count, *_, **__):
        tracer.count("oracle.mc.samples", count)
        tracer.count("oracle.mc.nonfinite", result.nonfinite)

    for fn in ("mc_integrate_cone", "mc_integrate_tube", "mc_integrate_slice"):
        patch("oracle", fn, "oracle.mc", mc_done, oracle_errors)
    patch("oracle", "tensor_quad", "oracle.tensor", errors=oracle_errors)
    patch("oracle", "quad_iterated", "oracle.quad", errors=oracle_errors)

    def estimated(result, *_, **__):
        if tracer.enclosing(("oracle.verify", "oracle.calibration")) \
                == "oracle.verify":
            tracer.count("oracle.estimate.in_verify")

    patch("oracle", "oracle_estimate", "oracle.estimate", estimated,
          oracle_errors)
    patch("oracle", "verify_identity", "oracle.verify", errors=oracle_errors)
    cache = getattr(mod["oracle"], "_CALIBRATION_CACHE", None)
    calibrate = getattr(mod["oracle"], "calibrated_constant", None)
    if calibrate is None or cache is None:
        missing.append("oracle.calibrated_constant")
    else:
        def counted(*args, **kwargs):
            before = len(cache)
            result = calibrate(*args, **kwargs)
            tracer.count("oracle.calibration.misses" if len(cache) > before
                         else "oracle.calibration.hits")
            return result
        rebind(calibrate, tracer.wrap("oracle.calibration", counted,
                                      errors=oracle_errors))

    # operators: the weighted-norm estimates of the scaling lab
    patch("operators", "f_R_norm_mc", "operators.norm")
    patch("operators", "Tf_R_norm_mc", "operators.norm")

    # reporting: the report writers
    def written(result, path, *_, **__):
        tracer.count("reporting.bytes", Path(path).stat().st_size)

    for fn in ("write_csv", "write_json", "write_metadata"):
        patch("reporting", fn, "reporting.write", written)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from one traced run."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def c(key):
        return float(counts.get(key, 0.0))

    sampling_in = get("sampling", "incl_s")
    samples = c("oracle.mc.samples")
    verifies = get("oracle.verify", "calls")
    out = {
        "sampling.self_s": (sum(v["self_s"] for k, v in summary.items()
                                if k.split(".")[0] == "sampling"), "s"),
        "sampling.points": (c("sampling.points"), "count"),
        "sampling.points_per_s": (c("sampling.points") / sampling_in
                                  if sampling_in else 0.0, "1/s"),
        "sampling.radial_gamma_s": (get("sampling.radial_gamma", "incl_s"), "s"),
        "sampling.radial_betaprime_s":
            (get("sampling.radial_betaprime", "incl_s"), "s"),
        "sampling.border_s": (get("sampling.border", "incl_s"), "s"),
        "sampling.real_s": (get("sampling.real", "incl_s"), "s"),
        "identities.integrand.self_s":
            (get("identities.integrand", "self_s"), "s"),
        "identities.closed_s": (get("identities.closed", "incl_s"), "s"),
        "constants.s": (get("constants", "incl_s"), "s"),
        "geometry.complex_minors_s":
            (get("geometry.complex_minors", "self_s"), "s"),
        "geometry.complex_power_s":
            (get("geometry.complex_power", "self_s"), "s"),
        "geometry.canonical_to_coords_s":
            (get("geometry.canonical_to_coords", "self_s"), "s"),
        "oracle.tensor.self_s": (get("oracle.tensor", "self_s"), "s"),
        "oracle.tensor.calls": (get("oracle.tensor", "calls"), "count"),
        "oracle.calibration.s": (get("oracle.calibration", "incl_s"), "s"),
        "oracle.calibration.hits": (c("oracle.calibration.hits"), "count"),
        "oracle.calibration.misses": (c("oracle.calibration.misses"), "count"),
        "oracle.quad.self_s": (get("oracle.quad", "self_s"), "s"),
        "oracle.quad.integrand_calls":
            (c("identities.integrand.quad.calls"), "count"),
        "oracle.mc.self_s": (get("oracle.mc", "self_s"), "s"),
        "oracle.mc.samples": (samples, "count"),
        "oracle.mc.nonfinite_frac":
            (c("oracle.mc.nonfinite") / samples if samples else 0.0,
             "fraction"),
        "oracle.estimate.calls": (get("oracle.estimate", "calls"), "count"),
        "oracle.scaling_estimate_ratio":
            ((c("oracle.estimate.in_verify") - verifies) / verifies
             if verifies else 0.0, "ratio"),
        "oracle.errors": (c("oracle.errors"), "count"),
        "operators.norm.self_s": (get("operators.norm", "self_s"), "s"),
        "operators.norm.calls": (get("operators.norm", "calls"), "count"),
        "reporting.write_s": (get("reporting.write", "incl_s"), "s"),
        "reporting.bytes": (c("reporting.bytes"), "B"),
        "cli.self_s": (get("cli", "self_s"), "s"),
    }
    for key in ("", ".mc", ".tensor", ".quad"):
        out[f"identities.integrand{key}.calls"] = \
            (c(f"identities.integrand{key}.calls"), "count")
        out[f"identities.integrand{key}.points"] = \
            (c(f"identities.integrand{key}.points"), "count")
    return out
