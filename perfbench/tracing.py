"""Spans around infera's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the infera modules by a
timing wrapper at each name it is bound under, so calls made through
`from .x import y` bindings are caught too: `infera.lp_exact.simplex_solve`
and `infera.simplex.simplex_solve` get the same wrapper.  Spans stay in
memory as [name, parent, start, end, counts] and are written out at the end.

Run as a script, this file is the traced stand-in for `python -m infera.cli`:

    python3 perfbench/tracing.py SPANS_OUT KIND -- <infera arguments>

It times `import infera.cli`, runs the command under the tracer, writes the
spans to SPANS_OUT and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("dist", "mechanism", "simplex", "lp_exact", "affiliated", "influence",
          "ising", "files", "cli")


def _simplex_counts(args, result):
    nvar, nub = len(args[0]), len(args[1])
    # Dense tableau of simplex_solve: (nub + 3) rows by (nvar + nub + 2) columns.
    return {"iterations": result.iterations, "tableau_mb": (nub + 3) * (nvar + nub + 2) * 8 / 1e6}


COUNTERS = {
    "simplex.simplex_solve": _simplex_counts,
    "lp_exact.build_lp": lambda args, lp: {"lp_rows": lp.a_ub.shape[0] + 1},
    "ising.bethe_fixed_point": lambda args, sol: {"bethe_iterations": sol.iterations},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span called name."""
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[4] = counter(args, result)
        return result

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the public functions of every infera module already imported."""
        wrappers = {}
        names = ["infera"] + [f"infera.{layer}" for layer in LAYERS]
        for mod in (sys.modules[m] for m in names if m in sys.modules):
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("infera.")):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def op_totals(spans):
    """Per-op sums: '<name>_s' inclusive time, '<name>_self_s' self time,
    and every count the spans carry."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for k, (name, parent, start, end, counts) in enumerate(spans):
        dur = end - start
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + dur
        totals[f"{name}_self_s"] = totals.get(f"{name}_self_s", 0.0) + dur - child[k]
        totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
        for key, value in (counts or {}).items():
            metric = f"{name.split('.')[0]}.{key}"
            if key == "tableau_mb":
                totals[metric] = max(totals.get(metric, 0.0), value)
            else:
                totals[metric] = totals.get(metric, 0) + value
    return totals


def _main(argv):
    out, kind = argv[1], argv[2]
    tracer = Tracer()
    t0 = perf_counter()
    cli = importlib.import_module("infera.cli")
    tracer.spans.append(["cli.import", -1, t0, perf_counter(), None])
    tracer.install()
    sys.argv = ["infera"] + argv[4:]
    try:
        return tracer.call(f"cli.{kind}", cli.main)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv))
