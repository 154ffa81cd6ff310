"""In-memory span recorder that wraps the public l1agg layer functions.

A span is ``[name, start, end, parent, op, attrs]``: the wrapped function's
name as ``<module>.<function>``, perf_counter start and end, the index of
the enclosing span (or ``None`` for a root span), the operation it belongs
to (``[cell, rep]`` for a replicate, ``[cell, -1]`` for cell set-up, or an
invocation index) and a few counts read from the arguments and result.

Functions are wrapped at every module-global name they are bound to in the
loaded ``l1agg`` modules, so a call from one layer into another is timed at
the boundary. Private helpers (leading underscore) are not wrapped. Spans
stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("dictionary", "gram", "solver", "oracles", "experiments")

# Called once per coordinate visit inside the solver's inner loop: a span
# there would time the wrapper rather than the layer.
SKIP = frozenset({"solver.soft_threshold"})

SEED_CELL_STRIDE = 1_000_000  # l1agg's seed rule: seed + stride * cell + rep


def _evaluate_attrs(args, kwargs, result):
    entries = getattr(result, "entries", None)
    if entries is None:
        return None
    # Computed from the array shape, not measured traffic.
    return {"entries": int(entries.size), "bytes": int(entries.size * entries.itemsize)}


def _fit_attrs(args, kwargs, result):
    design = args[0] if args else kwargs.get("design")
    n = int(getattr(design, "n", 0))
    M = int(getattr(design, "M", 0))
    sweeps = int(getattr(result, "sweeps", 0))
    return {
        "n": n,
        "M": M,
        "sweeps": sweeps,
        "m_hat": int(getattr(result, "m_hat", 0)),
        "converged": bool(getattr(result, "converged", False)),
    }


ATTRS = {"dictionary.evaluate": _evaluate_attrs, "solver.fit": _fit_attrs}


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self, base_seed: int | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.base_seed = base_seed
        self.wrapped: list[str] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str, op=None) -> int:
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = attrs
        self._stack.pop()

    def _op_for(self, name, args, kwargs):
        """Operation id implied by a call, or ``None`` to inherit."""
        if name == "experiments.cell_context" and len(args) >= 2:
            return [int(args[1]), -1]
        if name == "experiments.generate" and self.base_seed is not None:
            seed = args[5] if len(args) >= 6 else kwargs.get("seed")
            if isinstance(seed, int):
                cell, rep = divmod(seed - self.base_seed, SEED_CELL_STRIDE)
                return [cell, rep]
        return None

    def wrap(self, name: str, fn):
        extract = ATTRS.get(name)
        # A replicate's op id is set when its sample is generated and holds
        # for the fit and evaluation calls that follow; every other span
        # hands back the op id it started under.
        sticky = name == "experiments.generate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.op
            index = self.open(name, self._op_for(name, args, kwargs))
            attrs = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "partial_fit", None)
                if extract is not None and partial is not None:
                    attrs = extract(args, kwargs, partial)
                    attrs["raised"] = True
                raise
            finally:
                self.close(index, attrs)
                if not sticky:
                    self.op = before
            if extract is not None:
                self.spans[index][5] = extract(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap each public function of the layer modules at every
        module-global name bound to it in the loaded l1agg modules."""
        loaded = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "l1agg" or modname.startswith("l1agg."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"l1agg.{layer}")
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP or not callable(obj):
                    continue
                if inspect.isclass(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                wrapper = self.wrap(name, obj)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            setattr(mod, key, wrapper)
                self.wrapped.append(name)
        return self.wrapped

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark parent on dumped spans)
# ---------------------------------------------------------------------------


def aggregate(spans):
    """Per-name calls, total and self time, summed attrs, and root coverage.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because calls are synchronous.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    setup_ancestor = [False] * len(spans)
    stats: dict[str, dict] = {}
    root_s = 0.0
    for index, (name, start, end, parent, op, attrs) in enumerate(spans):
        dur = end - start
        if parent is None:
            root_s += dur
        else:
            setup_ancestor[index] = setup_ancestor[parent] or spans[parent][0] == "experiments.cell_context"
        entry = stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}, "setup_attrs": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - child_time[index]
        for key, value in (attrs or {}).items():
            entry["attrs"][key] = entry["attrs"].get(key, 0) + value
            if setup_ancestor[index]:
                entry["setup_attrs"][key] = entry["setup_attrs"].get(key, 0) + value
        if name == "solver.fit" and attrs:
            visits = attrs["sweeps"] * attrs["M"]
            entry["attrs"]["coord_visits"] = entry["attrs"].get("coord_visits", 0) + visits
            # 8 bytes per entry, one column read per coordinate visit:
            # computed from shapes, not measured traffic.
            col_bytes = 8 * attrs["n"] * visits
            entry["attrs"]["col_bytes"] = entry["attrs"].get("col_bytes", 0) + col_bytes
            entry["attrs"]["nonconverged"] = entry["attrs"].get("nonconverged", 0) + (
                0 if attrs["converged"] else 1
            )
    return stats, root_s
