"""Call-site tracing of cosetcap's public functions, from outside the library.

``Tracer.install`` finds a function at every ``cosetcap`` module binding,
and ``attach`` replaces it there with a wrapper.  ``from .x import f``
copies the reference into the importing module, so wrapping only the
defining module would miss most calls; the benchmark itself also looks
functions up through their modules at call time.  Each call records a span
(label, start, end, parent); spans stay in memory until ``write_spans``.
Self time is a span's duration minus the time its child spans cover (calls
are synchronous, so children never overlap).  Counters that need a call's
arguments or result come from per-function hooks.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # label, start, end, parent
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._open: list[list] = []  # [span index, label, child seconds]
        self._bindings: list[tuple] = []  # module, attribute, original, wrapper
        self.reset_pass()

    def reset_pass(self) -> None:
        """Start per-pass aggregates; spans keep accumulating."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent label, label) -> calls
        self.counters = defaultdict(float)

    def install(self, module: str, name: str, label: str, hook=None) -> None:
        """Find every cosetcap binding of ``module.name`` and make its wrapper.

        ``attach`` puts the wrappers in place, ``detach`` restores the
        originals.  A function that no longer exists is recorded in
        ``missing``, and a hook that no longer fits its function in
        ``hook_errors``, instead of failing, so the traced run survives
        refactors of the library.
        """
        orig = getattr(sys.modules.get(module), name, None)
        if orig is None:
            self.missing.append(label)
            return
        sig = inspect.signature(orig) if hook else None
        label_id = len(self.labels)
        self.labels.append(label)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            frame = [len(tracer.spans), label, 0.0]
            tracer.spans.append(None)
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                duration = end - start
                tracer.spans[frame[0]] = (label_id, start, end,
                                          parent[0] if parent else -1)
                tracer.calls[label] += 1
                tracer.self_s[label] += duration - frame[2]
                if parent:
                    parent[2] += duration
                    tracer.edges[(parent[1], label)] += 1
            if hook:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer.counters, parent[1] if parent else None,
                         bound.arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.hook_errors.add(f"{label}: {type(exc).__name__}: {exc}")
            return result

        for modname, mod in list(sys.modules.items()):
            if modname != "cosetcap" and not modname.startswith("cosetcap."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._bindings.append((mod, attr, orig, traced))

    def attach(self) -> None:
        for mod, attr, _, traced in self._bindings:
            setattr(mod, attr, traced)

    def detach(self) -> None:
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels,
                       "fields": ["label", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
