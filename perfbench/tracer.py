"""Per-layer tracing from outside the program.

``install`` replaces each listed public function of mlvkit, in its own
module and in every module that imported it by name, with a wrapper that
counts calls and measures time.  A layer's self time is the time of its
spans minus the time of the wrapped spans nested inside them.  Spans are
aggregated per item in memory and written out once, at the end of the run.

Nothing is recorded while the tracer is inactive, so the benchmark's own
output checks, which call mlvkit too, do not count.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Dict, List

# (layer, module, attribute): module-level functions
FUNCTIONS = [
    ("engine.mac_lane_chains", "mlvkit.engine", "mac_lane_chains"),
    ("engine.finite_complete_sequence", "mlvkit.engine", "finite_complete_sequence"),
    ("engine.psi_m_scan", "mlvkit.engine", "psi_m_scan"),
    ("indval.truncation_eval", "mlvkit.indval", "truncation_eval"),
    ("poly.phi_expansion", "mlvkit.poly", "phi_expansion"),
    ("ffield.factor_monic", "mlvkit.ffield", "factor_monic"),
    ("ffield.is_irreducible", "mlvkit.ffield", "is_irreducible"),
    ("graded.frobenius_surjective", "mlvkit.graded", "frobenius_surjective"),
    ("graded.twisted_mul", "mlvkit.graded", "twisted_mul"),
    ("analyzer.tame_report", "mlvkit.analyzer", "tame_report"),
    ("analyzer.stable_value", "mlvkit.analyzer", "stable_value"),
    ("analyzer.classify_kahler", "mlvkit.analyzer", "classify_kahler"),
    ("cli.main", "mlvkit.cli", "main"),
    ("cli.report_to_dict", "mlvkit.cli", "report_to_dict"),
]

# (layer, module, class, methods)
METHODS = [
    ("indval.augment", "mlvkit.indval", "InductiveValuation", ["augment"]),
    ("indval.evaluate", "mlvkit.indval", "InductiveValuation", ["evaluate"]),
    ("indval.graded_reduction", "mlvkit.indval", "InductiveValuation", ["graded_reduction"]),
    ("indval.key_from_residual", "mlvkit.indval", "InductiveValuation", ["key_from_residual"]),
    ("indval.is_key", "mlvkit.indval", "InductiveValuation", ["is_key"]),
    ("ratfunc.make", "mlvkit.ratfunc", "RatFuncField", ["make"]),
] + [
    (layer, "mlvkit.fields", cls, names)
    for cls in ("QpField", "FqtField", "FpPerfField", "FpctField")
    for layer, names in (("fields.arith", ["add", "mul", "inv", "div"]),
                         ("fields.valuate", ["valuate"]))
]

# every public function of these modules is one layer each, summed into
# "<module>.self_ms"
WHOLE_MODULES = ["mlvkit.fpoly", "mlvkit.parsing"]


class Tracer:
    def __init__(self):
        self.active = False
        self.item = "setup"
        self._stack: List[float] = []   # child time of each open span
        # item -> layer -> [calls, total seconds, self seconds]
        self.stats: Dict[str, Dict[str, list]] = {}
        self.kept_augmentations = 0

    def wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = tracer.stats.setdefault(tracer.item, {}).get(layer)
                if row is None:
                    row = tracer.stats[tracer.item][layer] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - child

        return traced

    def wrap_chains(self, fn):
        """mac_lane_chains, also counting the augmentations its returned
        branches keep (chain stages past the depth-zero node)."""
        inner = self.wrap("engine.mac_lane_chains", fn)
        tracer = self

        def traced(*args, **kwargs):
            report = inner(*args, **kwargs)
            if tracer.active:
                tracer.kept_augmentations += sum(
                    len(b.chain.stages()) - 1 for b in report.branches)
            return report

        return traced

    def totals(self) -> Dict[str, list]:
        out: Dict[str, list] = {}
        for layers in self.stats.values():
            for layer, (calls, total, own) in layers.items():
                row = out.setdefault(layer, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return out

    def write(self, path: str, rounds: List[dict]):
        """One JSON line per round span, then one per (item, layer)."""
        with open(path, "w") as fh:
            for span in rounds:
                fh.write(json.dumps(span) + "\n")
            for item, layers in self.stats.items():
                for layer, (calls, total, own) in sorted(layers.items()):
                    fh.write(json.dumps({"item": item, "layer": layer, "calls": calls,
                                         "total_ms": total * 1e3,
                                         "self_ms": own * 1e3}) + "\n")


def _rebind(original, wrapper, extra_modules):
    """Point every imported name bound to ``original`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name.startswith("mlvkit") or name in extra_modules):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer, extra_modules=()) -> None:
    for layer, modname, attr in FUNCTIONS:
        fn = getattr(sys.modules[modname], attr)
        wrapper = (tracer.wrap_chains(fn) if layer == "engine.mac_lane_chains"
                   else tracer.wrap(layer, fn))
        _rebind(fn, wrapper, extra_modules)
    for layer, modname, clsname, names in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for name in names:
            setattr(cls, name, tracer.wrap(layer, getattr(cls, name)))
    for modname in WHOLE_MODULES:
        mod = sys.modules[modname]
        short = modname.split(".")[-1]
        for attr, fn in list(vars(mod).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == modname
                    and not isinstance(fn, type)):
                _rebind(fn, tracer.wrap(f"{short}.{attr}", fn), extra_modules)


def layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit)."""
    tot = tracer.totals()

    def calls(layer):
        return tot.get(layer, [0, 0.0, 0.0])[0]

    def self_ms(layer):
        return tot.get(layer, [0, 0.0, 0.0])[2] * 1e3

    def module_self_ms(prefix):
        return sum(row[2] for layer, row in tot.items()
                   if layer.startswith(prefix + ".")) * 1e3

    out: Dict[str, tuple] = {}
    for layer in ("engine.mac_lane_chains", "indval.evaluate", "indval.graded_reduction",
                  "indval.key_from_residual", "indval.is_key", "indval.truncation_eval",
                  "poly.phi_expansion", "ratfunc.make", "fields.arith",
                  "ffield.factor_monic", "ffield.is_irreducible", "cli.main"):
        out[layer + ".calls"] = (calls(layer), "count")
        out[layer + ".self_ms"] = (self_ms(layer), "ms")
    for layer in ("engine.finite_complete_sequence", "engine.psi_m_scan",
                  "graded.frobenius_surjective", "analyzer.tame_report",
                  "analyzer.stable_value", "analyzer.classify_kahler",
                  "cli.report_to_dict"):
        out[layer + ".self_ms"] = (self_ms(layer), "ms")
    for layer in ("indval.augment", "fields.valuate", "fpoly.mul", "fpoly.divmod_",
                  "fpoly.gcd_", "graded.twisted_mul"):
        out[layer + ".calls"] = (calls(layer), "count")
    out["fpoly.self_ms"] = (module_self_ms("fpoly"), "ms")
    out["parsing.self_ms"] = (module_self_ms("parsing"), "ms")
    augments = calls("indval.augment")
    out["engine.useful_node_ratio"] = (
        tracer.kept_augmentations / augments if augments else 0.0, "ratio")
    return out
