"""Outside-in tracer: wraps privreg's public functions from the outside.

``Tracer.install`` finds every public function of the seven layer modules
and every ``RngStream`` method by introspection, and replaces each in every
``privreg.*`` namespace that holds it (``optimizers.forward`` and
``attack.forward`` are the same object as ``model.forward``).
``uninstall`` puts the originals back.

A wrapped call that enters a layer from another layer (or from outside
privreg) records a span: op, layer, function, start, end, parent.  Calls
inside one layer run unrecorded, except the functions in ``UNITS``, whose
arguments give the work counts.  Spans and counters stay in memory until
``summary`` and ``write_spans`` are called at the end.  A layer's self time
is the duration of its spans minus that of their child spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("numerics", "model", "regularizers", "optimizers", "oracle", "attack",
          "experiments")


def _arg(fn, name):
    """Getter for parameter `name` of `fn`, from positional or keyword args."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(name)
    default = params[index].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else default
    return get


def _leading_dim(value) -> int:
    shape = getattr(value, "shape", ())
    return shape[0] if len(shape) > 1 else 1


# Work units, read from call arguments at the function that does the work:
# (layer, function) -> (unit name, factory taking the original function and
# returning amount(args, kwargs)).  These functions record a span on every
# call, also from inside their own layer, so their calls and inclusive time
# are counted as well, as "<layer>.<function>.calls" and ".ns".
def _param(name, convert=int):
    def factory(fn):
        get = _arg(fn, name)
        return lambda args, kwargs: convert(get(args, kwargs))
    return factory


def _example_steps(fn):
    data, config = _arg(fn, "data"), _arg(fn, "config")
    return lambda args, kwargs: len(data(args, kwargs)) * config(args, kwargs).epochs


UNITS = {
    ("numerics", "RngStream.__init__"): ("stream_inits", lambda fn: lambda a, k: 1),
    ("numerics", "RngStream.normal"): ("normal_draws", _param("n")),
    ("model", "forward"): ("examples", _param("x", _leading_dim)),
    ("optimizers", "train"): ("example_steps", _example_steps),
    ("oracle", "mc_post_update_loss"): ("mc_replicas", _param("replicas")),
    ("oracle", "check_cross_term_vanishes"): ("mc_replicas", _param("replicas")),
    ("oracle", "check_moment_identities"): ("mc_replicas", _param("replicas")),
    ("oracle", "check_product_density"): ("mc_replicas", _param("replicas")),
    ("attack", "invert_gradient_iterative"): ("restarts", _param("restarts")),
}


class Tracer:
    """Spans and counters for the calls between privreg's layers."""

    def __init__(self):
        self.functions: list[tuple[str, str]] = []   # function id -> (layer, name)
        self.spans: list[tuple] = []     # span id -> (function id, parent id, start, end)
        self.op_starts: list[int] = []   # first span id of each op
        self.missing_units: list[str] = []
        self._boundary_calls: list[int] = []   # per function id
        self._unit_calls: list[int] = []
        self._unit_amount: list[int] = []
        self._unit_ns: list[int] = []
        self._unit_failures: list[int] = []
        self._checks = [0, 0]            # IdentityChecks returned by oracle: all, failed
        self._stack: list[int] = []      # open span ids
        self._layers: list[str] = []     # layer of each open span
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def _targets(self):
        """(layer, name, owner, attribute, function) for everything to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"privreg.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    yield layer, attr, None, attr, obj
        rng_stream = importlib.import_module("privreg.numerics").RngStream
        for attr, obj in sorted(vars(rng_stream).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                yield "numerics", f"RngStream.{attr}", rng_stream, attr, obj

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        found = set()
        for layer, name, owner, attr, fn in self._targets():
            unit = UNITS.get((layer, name))
            found.add((layer, name))
            wrapper = self._wrap(fn, layer, name, unit[1](fn) if unit else None)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        self.missing_units = [f"{layer}.{name}" for layer, name in UNITS
                              if (layer, name) not in found]
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "privreg"
                                      or module_name.startswith("privreg.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, layer, name, amount):
        fid = len(self.functions)
        self.functions.append((layer, name))
        for counts in (self._boundary_calls, self._unit_calls, self._unit_amount,
                       self._unit_ns, self._unit_failures):
            counts.append(0)
        stack, layers, spans = self._stack, self._layers, self.spans
        open_span = spans.append
        boundary_calls, unit_calls, unit_amount = (self._boundary_calls, self._unit_calls,
                                                   self._unit_amount)
        unit_ns, unit_failures, checks = self._unit_ns, self._unit_failures, self._checks
        is_oracle = layer == "oracle"

        def wrapper(*args, **kwargs):
            boundary = not layers or layers[-1] != layer
            if boundary:
                boundary_calls[fid] += 1
            elif amount is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            open_span(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            layers.append(layer)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if amount is not None:
                    unit_failures[fid] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                layers.pop()
                spans[sid] = (fid, parent, start, end)
                if amount is not None:
                    unit_calls[fid] += 1
                    unit_amount[fid] += amount(args, kwargs)
                    unit_ns[fid] += end - start
            if is_oracle and boundary:
                for check in result if isinstance(result, list) else (result,):
                    if type(check).__name__ == "IdentityCheck":
                        checks[0] += 1
                        checks[1] += not check.passed
            return result

        return functools.update_wrapper(wrapper, fn)

    # --- results ------------------------------------------------------------

    def start_op(self) -> None:
        """Mark the spans recorded from now on as the next op's."""
        self.op_starts.append(len(self.spans))

    def self_ns(self) -> dict[str, int]:
        """Per-layer self time: each span's duration minus its children's."""
        child_ns: Counter = Counter()
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {layer: 0 for layer in LAYERS}
        for sid, (fid, _, start, end) in enumerate(self.spans):
            totals[self.functions[fid][0]] += end - start - child_ns[sid]
        return totals

    def root_ns(self) -> int:
        """Total duration of the spans opened from outside privreg."""
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def counters(self) -> dict[str, int]:
        """Boundary calls per layer; calls, time and units per unit function;
        and the IdentityChecks oracle returned to other layers."""
        counts: Counter = Counter()
        for fid, (layer, name) in enumerate(self.functions):
            counts[f"{layer}.calls"] += self._boundary_calls[fid]
            unit = UNITS.get((layer, name))
            if unit is not None:
                counts[f"{layer}.{unit[0]}"] += self._unit_amount[fid]
                counts[f"{layer}.{name}.calls"] += self._unit_calls[fid]
                counts[f"{layer}.{name}.ns"] += self._unit_ns[fid]
                counts[f"{layer}.{name}.failures"] += self._unit_failures[fid]
        counts["oracle.checks"], counts["oracle.checks_failed"] = self._checks
        return dict(counts)

    def summary(self) -> dict:
        return {"self_ns": self.self_ns(), "root_ns": self.root_ns(),
                "counters": self.counters(), "spans": len(self.spans),
                "missing_units": self.missing_units}

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: op, span, parent, layer, function, start, end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("op", "span", "parent", "layer", "function",
                             "start_ns", "end_ns"))
            op = -1
            for sid, (fid, parent, start, end) in enumerate(self.spans):
                while op + 1 < len(self.op_starts) and self.op_starts[op + 1] <= sid:
                    op += 1
                layer, name = self.functions[fid]
                writer.writerow((op, sid, parent, layer, name, start, end))
