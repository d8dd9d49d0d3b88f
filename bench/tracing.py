"""Layer spans and counters installed on conway_genera from outside.

Nothing in the package knows about tracing.  `install` replaces each
callable named below with a shim, at every place it is looked up:

* module functions in every package module namespace that holds them,
  which covers `from .series import first_difference` style bindings
  (genera, modforms, sigma, cli and the package itself) as well as calls
  resolved through a module's globals (`modforms.theta_quotient`);
* methods, including operator dunders, on their class.

A span records its name, parent span, request id and start and end
times; spans stay in memory until the run ends.  A request is one
benchmark item; every `genera.phi_g_ell` call starts a request of its
own (a `compute` request), still nested under its caller for self time.
Scalar and cyclotomic operations are only counted, not timed.
"""

from __future__ import annotations

import itertools
import statistics
import sys
from functools import wraps
from time import perf_counter

#: layer -> callables timed in spans, "Class.method" for methods.  Aliased
#: operators (__rmul__ = __mul__) share one span name.
SPANS = {
    "conway": {"bundled_data": "bundled_data"},
    "series": {
        "QSeries.__mul__": "q_mul", "QSeries.__rmul__": "q_mul",
        "QSeries.__pow__": "q_pow", "QSeries.inverse": "q_inverse",
        "QSeries.__add__": "add", "QSeries.__radd__": "add",
        "JacobiSeries.__mul__": "jacobi_mul", "JacobiSeries.__rmul__": "jacobi_mul",
        "JacobiSeries.__pow__": "jacobi_pow",
        "JacobiSeries.__add__": "add", "JacobiSeries.__radd__": "add",
        "first_difference": "first_difference",
    },
    "modforms": {name: name for name in (
        "eta", "eta_scaled", "delta", "eisenstein_e2", "lambda_n", "lambda2_half",
        "eta_product", "eta_ratio_half", "theta_sum", "theta_quotient",
        "theta_quotient_from_sums", "phi01", "phi_minus21", "hecke_t2",
        "verify_theta_identities")},
    "genera": {name: name for name in (
        "ts_g", "verify_eta_identity", "phi_g_ell", "phi_g", "f_g", "f_2j_g",
        "k3_elliptic_genus", "verify_decomposition", "verify_decomposition_ell",
        "verify_jacobi_invariance", "verify_coincidences", "verify_sign_flip")},
    "oracle": {name: name for name in (
        "embed_radical", "build_system", "brute_trace", "brute_ts", "brute_phi",
        "cm_ground_trace", "enumerate_basis")},
    "sigma": {name: name for name in (
        "d4_coset_theta", "dual_lattice_theta", "u_characters", "module_character",
        "twisted_module_character", "verify_sigma_isomorphism")},
}

#: layer -> methods that are counted, not timed
COUNTS = {
    "scalars": {
        "RadicalScalar.__mul__": "mul", "RadicalScalar.__rmul__": "mul",
        "RadicalScalar.__add__": "add", "RadicalScalar.__radd__": "add",
        "RadicalScalar.inverse": "inverse",
    },
    "oracle": {"CycloNumber.__mul__": "cyclo_mul", "CycloNumber.__rmul__": "cyclo_mul"},
}

#: spans that start a request of their own
REQUEST_SPANS = {"genera.phi_g_ell"}

#: modules whose module-level lru_caches are accounted
CACHED_LAYERS = ("modforms", "conway", "oracle", "sigma")

PACKAGE = "conway_genera"


class Tracer:
    """In-memory spans and counters for one run."""

    def __init__(self):
        # each span: [name, parent index or -1, request id, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._requests = itertools.count()
        self._counters: dict[str, list[int]] = {}

    def span(self, name: str, fn, new_request: bool = False):
        spans, stack, requests = self.spans, self._stack, self._requests

        @wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            request = next(requests) if new_request or parent < 0 else spans[parent][2]
            record = [name, parent, request, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()

        return shim

    def count(self, name: str, fn):
        cell = self._counters.setdefault(name, [0])

        @wraps(fn)
        def shim(*args):
            cell[0] += 1
            return fn(*args)

        return shim

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._counters.items()}

    def summarize(self, first: int = 0) -> dict[str, dict]:
        """Per span name: calls, inclusive time (outermost spans only),
        self time (duration minus direct children) and the durations of
        request-starting spans, over the spans recorded from index `first`
        on."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, _req, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, parent, _req, start, end) in enumerate(spans[first:], first):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if name in REQUEST_SPANS:
                entry["durations"].append(end - start)
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                entry["incl_s"] += end - start
        return out


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_caches() -> dict[str, dict[str, object]]:
    """layer -> {function name: lru_cache wrapper} defined in that layer.

    Call before `install`, so that the wrappers found are the originals
    even where a shim later replaces the module attribute.
    """
    out = {}
    for layer in CACHED_LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        out[layer] = {name: obj for name, obj in vars(module).items()
                      if hasattr(obj, "cache_info")
                      and getattr(obj, "__module__", None) == module.__name__}
    return out


def cache_accounting(caches) -> dict[str, dict]:
    """Hits, misses and entries per layer, read from the original wrappers."""
    out = {}
    for layer, wrappers in caches.items():
        infos = {name: w.cache_info() for name, w in sorted(wrappers.items())}
        out[layer] = {
            "wrappers": len(infos),
            "hits": sum(i.hits for i in infos.values()),
            "misses": sum(i.misses for i in infos.values()),
            "entries": sum(i.currsize for i in infos.values()),
            "per_function": {name: [i.hits, i.misses, i.currsize]
                             for name, i in infos.items()},
        }
    return out


def install(tracer: Tracer):
    """Install every shim; returns a function that restores the originals."""
    undo = []
    modules = _package_modules()

    def patch(layer: str, attr: str, make):
        module = sys.modules[f"{PACKAGE}.{layer}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            undo.append((cls, method, original))
            return
        original = getattr(module, attr)
        shim = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, shim)
                    undo.append((mod, name, original))

    for layer, attrs in SPANS.items():
        for attr, short in attrs.items():
            name = f"{layer}.{short}"
            patch(layer, attr,
                  lambda fn, name=name: tracer.span(name, fn, name in REQUEST_SPANS))
    for layer, attrs in COUNTS.items():
        for attr, short in attrs.items():
            patch(layer, attr, lambda fn, name=f"{layer}.{short}": tracer.count(name, fn))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99); the value itself for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, caches) -> dict[str, float]:
    """The per-layer metrics of one traced run (see README)."""
    spans = tracer.summarize()
    counts = tracer.counts()
    accounting = cache_accounting(caches)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}
    s = lambda name: spans.get(name, empty)
    phi = s("genera.phi_g_ell")
    metrics = {
        "conway.bundled_data_s": s("conway.bundled_data")["incl_s"],
        "scalars.mul_calls": counts.get("scalars.mul", 0),
        "scalars.add_calls": counts.get("scalars.add", 0),
        "scalars.inverse_calls": counts.get("scalars.inverse", 0),
        "series.jacobi_mul_calls": s("series.jacobi_mul")["calls"],
        "series.jacobi_mul_self_s": s("series.jacobi_mul")["self_s"],
        "series.jacobi_pow_calls": s("series.jacobi_pow")["calls"],
        "series.q_mul_calls": s("series.q_mul")["calls"],
        "series.q_mul_self_s": s("series.q_mul")["self_s"],
        "series.q_inverse_calls": s("series.q_inverse")["calls"],
        "series.q_inverse_self_s": s("series.q_inverse")["self_s"],
        "series.q_pow_calls": s("series.q_pow")["calls"],
        "series.add_self_s": s("series.add")["self_s"],
        "series.first_difference_calls": s("series.first_difference")["calls"],
        "series.first_difference_self_s": s("series.first_difference")["self_s"],
        "modforms.theta_quotient_s": s("modforms.theta_quotient")["incl_s"],
        "modforms.eta_product_s": s("modforms.eta_product")["incl_s"],
        "modforms.eta_ratio_half_s": s("modforms.eta_ratio_half")["incl_s"],
        "modforms.lambda2_half_s": s("modforms.lambda2_half")["incl_s"],
        "genera.phi_g_ell_calls": phi["calls"],
        "genera.phi_g_ell_s": phi["incl_s"],
        "genera.phi_g_ell_p50_s": _percentile(phi["durations"], 50),
        "genera.phi_g_ell_p90_s": _percentile(phi["durations"], 90),
        "genera.f_2j_g_s": s("genera.f_2j_g")["incl_s"],
        "genera.verify_decomposition_ell_s": s("genera.verify_decomposition_ell")["incl_s"],
        "genera.verify_jacobi_invariance_s": s("genera.verify_jacobi_invariance")["incl_s"],
        "genera.verify_coincidences_s": s("genera.verify_coincidences")["incl_s"],
        "genera.verify_eta_identity_s": s("genera.verify_eta_identity")["incl_s"],
        "oracle.brute_trace_calls": s("oracle.brute_trace")["calls"],
        "oracle.brute_trace_s": s("oracle.brute_trace")["incl_s"],
        "oracle.build_system_calls": s("oracle.build_system")["calls"],
        "oracle.build_system_s": s("oracle.build_system")["incl_s"],
        "oracle.cyclo_mul_calls": counts.get("oracle.cyclo_mul", 0),
        "oracle.cache_entries": accounting["oracle"]["entries"],
        "sigma.d4_coset_theta_s": s("sigma.d4_coset_theta")["incl_s"],
        "sigma.dual_lattice_theta_s": s("sigma.dual_lattice_theta")["incl_s"],
        "sigma.verify_sigma_isomorphism_s": s("sigma.verify_sigma_isomorphism")["incl_s"],
    }
    mod = accounting["modforms"]
    lookups = mod["hits"] + mod["misses"]
    metrics.update({
        "modforms.cache_hits": mod["hits"],
        "modforms.cache_misses": mod["misses"],
        "modforms.cache_entries": mod["entries"],
        "modforms.cache_hit_ratio": mod["hits"] / lookups if lookups else 0.0,
    })
    for layer in SPANS:
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))
    return metrics
