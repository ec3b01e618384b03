"""Outside-in span tracer for the arstep benchmark.

The tracer times calls into arstep without editing the library.  While
installed it replaces every public function of the traced arstep
modules, in every arstep module namespace that holds it (``selection``
binds ``fit_one_step`` from ``estimation``, the package binds nearly
everything), and a fixed set of dependency kernels, with wrappers that
open a span.  ``uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id.  A
kernel span is named after the nearest enclosing public arstep span,
as ``<module>.<function>.<kernel>``; kernels called outside any arstep
span, or from inside another kernel, are not traced.  Self time is a
span's duration minus the time its child spans cover.
"""

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

#: arstep modules whose public functions become spans.
LAYERS = ("selection", "estimation", "simulation", "theory_losses",
          "model_core", "prediction")

#: Spans kept for the JSONL dump; later spans still feed the statistics.
SPAN_CAP = 100_000


def _matrices(args, kwargs, result):
    """Number of matrices in a (possibly batched) square-matrix argument."""
    a = np.asarray(args[0])
    return a.size // (a.shape[-1] * a.shape[-1]) if a.size else 0


def _rows(args, kwargs, result):
    return result.shape[0]


def _accepted(args, kwargs, result):
    return 1 if result else 0


def _failed_reps(args, kwargs, result):
    return sum(result.failures.values())


#: Extra per-span counters, keyed by public span name or by kernel name:
#: each maps (args, kwargs, result) to the amount added to SpanStats.extra.
COUNTERS = {
    "estimation.lag_matrix": _rows,
    "estimation.gram_is_invertible": _accepted,
    "simulation.run_frequency_experiment": _failed_reps,
    "eigvalsh": _matrices,
}


def _kernel_sites():
    """(namespace, attribute, kernel name) of every traced kernel."""
    arstep = sys.modules["arstep"]
    return [
        (np.linalg, "eigvalsh", "eigvalsh"),
        (np.linalg, "eigh", "eigh"),
        (np.linalg, "solve", "solve"),
        (np.linalg, "eigvals", "eigvals"),
        (np, "cumsum", "cumsum"),
        (np, "einsum", "einsum"),
        (math, "fsum", "fsum"),
        (arstep.model_core, "lfilter", "lfilter"),
        (arstep.simulation, "lfilter", "lfilter"),
        (arstep.theory_losses, "cho_factor", "cho_factor"),
        (arstep.theory_losses, "cho_solve", "cho_solve"),
    ]


class SpanStats:
    """Totals of one span name: calls, self seconds, raises, counter."""

    __slots__ = ("calls", "self_s", "failed", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.extra = 0


class Tracer:
    """Span recorder with install/uninstall of the outside-in wrappers.

    Spans are recorded only while ``op`` is set to an operation id, so
    checks the benchmark itself makes through arstep stay untraced.
    """

    def __init__(self):
        self.op = None
        self.spans = []
        self.dropped = 0
        self.stats = {}
        # Open spans, innermost last: [span id, child seconds, is kernel, name].
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _stat(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        return entry

    def _wrap(self, fn, name, kernel=False):
        """Wrapper that opens a span around fn while an operation is set.

        A public span is called `name`; a kernel span (kernel=True, `name`
        the kernel's) is named after the public span it runs in, and is
        skipped outside any public span or inside another kernel.
        """
        counter = COUNTERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        own = None if kernel else (name, self._stat(name))
        by_owner = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if kernel:
                if not stack or stack[-1][2]:
                    return fn(*args, **kwargs)
                owner = stack[-1][3]
                span = by_owner.get(owner)
                if span is None:
                    full = owner + "." + name
                    span = by_owner[owner] = (full, self._stat(full))
            else:
                span = own
            parent = stack[-1][0] if stack else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0, kernel, span[0]]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = span[1]
                entry.calls += 1
                entry.self_s += duration - frame[1]
                if not ok:
                    entry.failed += 1
                if len(spans) < SPAN_CAP:
                    spans.append((sid, span[0], start, end, parent, op))
                else:
                    self.dropped += 1
            if counter is not None:
                entry.extra += counter(args, kwargs, result)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Rebind the wrappers everywhere arstep can reach the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["arstep." + layer]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(
                        obj, "%s.%s" % (layer, attr)))
        for modname, module in list(sys.modules.items()):
            if modname != "arstep" and not modname.startswith("arstep."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for module, attr, kernel in _kernel_sites():
            self._patch(module, attr, self._wrap(getattr(module, attr),
                                                 kernel, kernel=True))

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        """Put back every original wrapped by install."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path, origin):
        """Write the kept spans as JSON lines, times in seconds from origin."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name,
                                      "start": start - origin,
                                      "end": end - origin,
                                      "parent": parent, "op": op}) + "\n")
