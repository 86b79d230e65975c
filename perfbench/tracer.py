"""Outside-in tracer for the labelregret package.

The tracer replaces a fixed list of public functions with timing wrappers in
every labelregret module namespace that binds them (harness, regret and cli
import functions by name, so patching only the defining module would miss
those callers). Each wrapped call records one span: name, start, end, parent
span and whether it raised. Spans stay in memory; self time is a span's
duration minus the time its direct child spans cover. Nothing under src/ is
modified on disk.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# (defining module, qualified name) of every function the tracer wraps.
TARGETS = (
    ("cli", "dispatch"),
    ("glm", "fit_logistic"),
    ("glm", "sigmoid"),
    ("glm", "predict_proba"),
    ("rng", "substream"),
    ("rng", "point_uniforms"),
    ("rng", "derive_master"),
    ("dataset", "draw_labels"),
    ("dataset", "Dataset.with_labels"),
    ("dataset", "load_csv"),
    ("regret", "_prediction_samples"),
    ("regret", "exact_regret_enumeration"),
    ("regret", "estimate_regret"),
    ("regret", "true_regret"),
    ("theory", "theory_report"),
    ("theory", "compute_hessian"),
    ("theory", "q_values"),
    ("theory", "epsilon_bound"),
    ("harness", "run_trials"),
    ("harness", "save_trials_result"),
    ("_io", "atomic_write_text"),
)

def _span_name(module: str, qualname: str) -> str:
    # Metric names must start with a letter, so "_io" is reported as "io".
    return f"{module.lstrip('_')}.{qualname}"


class Tracer:
    """Wraps the TARGETS functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, parent, start, end, failed]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of the TARGETS; the wrappers are built on first use."""
        if not self._patches:
            self._patches = self._find_bindings()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_bindings(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) of every binding of every target."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "labelregret"
                                         or name.startswith("labelregret."))]
        patches = []
        for module_name, qualname in TARGETS:
            owner = sys.modules[f"labelregret.{module_name}"]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(_span_name(module_name, qualname), original)
            if outer:  # a method: patch the class attribute only
                patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, bound, original, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        on_result = _RESULT_HOOKS.get(name)
        call = _CALL_HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, clock(), 0.0, True]
            stack.append(len(spans))
            spans.append(span)
            try:
                if call is None:
                    result = fn(*args, **kwargs)
                else:
                    result = call(fn, counters, args, kwargs)
                span[4] = False
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, args, kwargs, result)
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans.clear()
        self.counters.clear()

    def pass_stats(self) -> dict:
        """Per-function calls, self time and failures for the spans recorded so far."""
        arr = np.array(self.spans, dtype=float)
        name_id = arr[:, 0].astype(np.int64)
        parent = arr[:, 1].astype(np.int64)
        duration = arr[:, 3] - arr[:, 2]
        failed = arr[:, 4] > 0
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        fails = np.bincount(name_id, weights=failed, minlength=k)
        fail_s = np.bincount(name_id, weights=duration * failed, minlength=k)
        stats = {name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                        "failed": int(fails[i]), "failed_s": float(fail_s[i])}
                 for i, name in enumerate(self.names)}
        durations = {name: duration[name_id == i] for i, name in enumerate(self.names)}
        return {"stats": stats, "durations": durations,
                "counters": dict(self.counters)}

    def span_rows(self, pass_index: int):
        """CSV rows (pass, span, parent, name, start, end, failed) of the current pass."""
        for i, (name_id, parent, start, end, failed) in enumerate(self.spans):
            yield (f"{pass_index},{i},{parent},{self.names[name_id]},"
                   f"{start!r},{end!r},{int(failed)}")


# -- counters taken at the boundary ---------------------------------------


def _fit_call(fn, counters, args, kwargs):
    """Ask fit_logistic for its loss trace to count Newton steps, then drop it."""
    want_trace = kwargs.pop("return_trace", False)
    model, trace = fn(*args, return_trace=True, **kwargs)
    counters["glm.fit_logistic.newton_steps"] += len(trace) - 1
    return (model, trace) if want_trace else model


def _count_rows(counters, args, kwargs, dataset):
    counters["dataset.load_csv.rows"] += dataset.n_points


def _count_bytes(counters, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["io.atomic_write_text.bytes"] += len(text.encode("utf-8"))


def _count_refits(counters, args, kwargs, report):
    counters["regret.refits"] += report.n_resamples
    counters["regret.fallback_refits"] += report.n_fallback_refits


_CALL_HOOKS = {"glm.fit_logistic": _fit_call}
_RESULT_HOOKS = {
    "dataset.load_csv": _count_rows,
    "io.atomic_write_text": _count_bytes,
    "regret.estimate_regret": _count_refits,
    "regret.true_regret": _count_refits,
    "regret.exact_regret_enumeration": _count_refits,
}
