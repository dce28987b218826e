"""In-memory spans and counts around tailbound's public functions.

Tracer.install() replaces every public function of the traced modules at
each place a caller looks it up (the defining module and every module that
imported the name), so `chaining.rate_bound_T` is wrapped as well as
`cgf.rate_bound_T`; uninstall() restores the originals. A span records its
name, start, end and parent span. `numerics` functions are counted, never
timed: they see 1e5-1e6 calls per job, so a span each would cost more than
the work it measures. Their time stays in their caller's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import Counter

PACKAGE = "tailbound"
TIMED_MODULES = ("cli", "jsonio", "chaining", "cgf", "orlicz", "gaussian", "verify", "rng")
COUNTED_MODULES = ("numerics",)
COUNTED_ONLY = {"jsonio.jsonable"}  # recursive: one call per serialized element
CONSTRUCTORS = {  # dataclass constructors whose work belongs to a layer of its own
    "chaining.family_build": ("chaining", "FunctionFamily"),
    "gaussian.model_build": ("gaussian", "GaussianModel"),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Spans and counts of one package; install() before a traced stretch of
    work, uninstall() after, and read spans/counts in between rounds."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []
        self._seen_rows: set = set()
        self._seen_r: set = set()

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return result

        return wrapper

    def _counted(self, name: str, fn, hook=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _counting_callable(self, key: str, fn):
        counts = self.counts

        def inner(*args):
            counts[key] += 1
            return fn(*args)

        return inner

    def _hooks(self):
        """Argument hooks that record the counts the layers' metrics need."""
        counts = self.counts

        def norm_input(args, kwargs):
            key = args[1].tobytes()  # the difference row whose norm is asked for
            if key not in self._seen_rows:
                self._seen_rows.add(key)
                counts["chaining.norm.distinct"] += 1
            return args, kwargs

        def class_wr_rate(args, kwargs):
            if args[1] not in self._seen_r:
                self._seen_r.add(args[1])
                counts["chaining.class_wr.distinct_r"] += 1
            return args, kwargs

        def trials(args, kwargs):
            counts["verify.trials"] += int(args[0].trials)
            return args, kwargs

        def draws(args, kwargs):
            counts["rng.draws"] += int(args[0].size) * int(args[1])
            return args, kwargs

        def integrand(args, kwargs):
            return (self._counting_callable("numerics.integrand_evals", args[0]),) + tuple(args[1:]), kwargs

        return {
            "chaining.cgf_functional_norm": norm_input,
            "chaining.class_wr": class_wr_rate,
            "verify.run_trials": trials,
            "rng.uniforms": draws,
            "numerics.adaptive_simpson": integrand,
        }

    def _wrap_result(self, name, fn):
        """Post-processing for results whose later use is counted."""
        counts = self.counts
        if name == "cgf.cgf_discrete":

            def cgf_discrete(*args, **kwargs):
                oracle = fn(*args, **kwargs)
                return dataclasses.replace(
                    oracle, evaluator=self._counting_callable("cgf.oracle_evals", oracle.evaluator)
                )

            return cgf_discrete
        if name in ("jsonio.dump_json", "jsonio.dump_csv"):

            def dump(*args, **kwargs):
                text = fn(*args, **kwargs)
                counts["jsonio.output_bytes"] += len(text.encode("utf-8"))
                return text

            return dump
        return fn

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        pkg = sys.modules[PACKAGE]
        for short in TIMED_MODULES + COUNTED_MODULES:
            module = getattr(pkg, short)
            for fname, fn in list(_public_functions(module)):
                name = f"{short}.{fname}"
                inner = self._wrap_result(name, fn)
                if short in COUNTED_MODULES or name in COUNTED_ONLY:
                    wrapper = self._counted(name, inner, hooks.get(name))
                else:
                    wrapper = self._span(name, inner, hooks.get(name))
                self._replace_everywhere(fn, wrapper)
        for name, (short, cls_name) in CONSTRUCTORS.items():
            cls = getattr(getattr(pkg, short), cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._span(name, original)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def begin_job(self) -> None:
        """Norm inputs and class_wr rates count as distinct once per job."""
        self._seen_rows.clear()
        self._seen_r.clear()

    def reset(self) -> None:
        """Start a new round; call while uninstalled. Earlier dumps keep their data."""
        self.spans = []
        self.counts = Counter()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> summed self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[i]
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names[s[0]] for s in self.spans)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
