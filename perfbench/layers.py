"""Per-layer tracing of hyperdet from outside the package.

Tracer.install rebinds each listed public function in every ``hyperdet.*``
module namespace that binds it, so calls made through ``from .x import f``
imports are caught too (``certify`` looks up ``pencil_determinant`` in
``hyperdet.detrep``, ``find_sos_decomposition`` looks up ``solve_maxeig`` in
``hyperdet.sos``).  Spans are kept in memory and written once at the end.
A function missing from the package is reported as absent, not raised.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "poly": ("parse_poly", "normalize_direction", "apply_linear"),
    "quotient": ("bezoutian_of", "evaluate_form", "is_bezoutian"),
    "hyperbolicity": ("check_hyperbolic_sampled", "pd_witness_check", "is_real_rooted"),
    "sos": ("find_sos_decomposition", "gram_problem", "round_gram", "verify_sos_identity"),
    "sdp": ("solve_maxeig",),
    "linalg": ("ldl_decompose", "solve_sparse_system", "bareiss_determinant"),
    "detrep": ("certify", "solve_symmetric_lift", "pencil_determinant",
               "extract_cofactor", "verify_certificate"),
    "cli": ("main",),
}

FUNCTIONS = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def _verdict(counts, name, args, result):
    counts[f"{name}.lines"] += result.samples_used
    refused = result.status == "NotHyperbolic" if hasattr(result, "status") else not result.ok
    counts[f"{name}.refused"] += int(refused)


def _gram(counts, name, args, result):
    problem = result[0]
    counts[f"{name}.m_max"] = max(counts[f"{name}.m_max"], problem.m)
    counts[f"{name}.p_max"] = max(counts[f"{name}.p_max"], len(problem.constraints))


def _round(counts, name, args, result):
    counts[f"{name}.ok"] += 1


def _sdp(counts, name, args, result):
    counts[f"{name}.optimal"] += int(result.status == "Optimal")
    counts[f"{name}.margin_pos"] += int(result.t > 0)
    # SdpSolution.iterations is the index of the best iterate, not the
    # number of iterations run, so this sum is not a work count.
    counts[f"{name}.best_iter"] += result.iterations


def _pencil(counts, name, args, result):
    pencil = args[0] if args else None
    if pencil:
        counts[f"{name}.N_max"] = max(counts[f"{name}.N_max"], len(pencil[0]))


# Counts read from return values; each is reported as <function>.<count>.
OBSERVERS = {
    "hyperbolicity.check_hyperbolic_sampled": (_verdict, ("lines", "refused")),
    "hyperbolicity.pd_witness_check": (_verdict, ("lines", "refused")),
    "sos.gram_problem": (_gram, ("m_max", "p_max")),
    "sos.round_gram": (_round, ("ok",)),
    "sdp.solve_maxeig": (_sdp, ("optimal", "margin_pos", "best_iter")),
    "detrep.pencil_determinant": (_pencil, ("N_max",)),
}

COUNT_METRICS = [f"{fn}.{c}" for fn, (_, names) in OBSERVERS.items() for c in names]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op_id: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list = []

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hyperdet" or key.startswith("hyperdet."))]
        for qualified in FUNCTIONS:
            module, name = qualified.split(".")
            original = getattr(sys.modules.get(f"hyperdet.{module}"), name, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name, (None,))[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            nested = self._active[name] > 0
            self.spans.append(None)
            self._stack.append(span_id)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, self.op_id, name, start, end, nested)
            if observe is not None:
                try:
                    observe(self.counts, name, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.unobserved.add(name)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, total_s (outermost spans only) and self_s per function."""
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for span_id, _, _, name, start, end, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            own[name] += end - start - child_time[span_id]
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")
        return out

    def write(self, path) -> None:
        keys = ("span", "parent", "op", "name", "start", "end", "nested")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
