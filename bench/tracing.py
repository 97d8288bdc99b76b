"""Span recorder for the traced benchmark run.

`Tracer.install()` rebinds, in every loaded `gridvar` module, each attribute
that *is* one of the traced public functions, so calls made through any
import path (`variation.e_k`, `whitney.e_k`, `grid.is_packing` as used by
`Packing.__post_init__`, ...) are recorded. The property suite's invariant
runners are generator functions held in `suite.REGISTRY`; they are wrapped
in place. Untraced runs never call `install()`.

Each call becomes a span (id, name, start, end, parent id, task id) kept in
memory; `write()` stores them once, at the end. A span's self time is its
duration minus the durations of its direct child spans (calls are strictly
nested: one thread).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

from gridvar.errors import LPError

TRACED = {
    "simplex": ("solve_lp",),
    "approx": ("e_k", "best_minimax_poly", "minimax_reference"),
    "differences": ("osc_k",),
    "variation": ("max_weight_packing", "variation_bruteforce", "variation_dyadic",
                  "variation_local_search", "restricted_variation", "ac_modulus",
                  "holder_seminorm"),
    "classical": ("vitali_variation", "hardy_krause_variation"),
    "grid": ("is_packing", "cube_cell_mask", "enumerate_cubes"),
    "whitney": ("whitney_certificate",),
    "atoms": ("u_norm_bounds",),
    "cli": ("main",),
    "grid_io": ("load_grid",),
    "suite": ("run_suite",),
}


def _grid_key(f, cube, k):
    cube_key = None if cube is None else (cube.origin, cube.side)
    return (f.values.tobytes(), f.values.shape, cube_key, k)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [start, child time, span id]
        self._next_id = 0
        self.task = -1
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.keys: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _enter(self) -> list:
        frame = [time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][2]
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += dur - frame[1]
        self.spans.append((frame[2], self._name_id(name), frame[0], end, parent, self.task))

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, name, args, kwargs)
            frame = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, frame)
                if after is not None:
                    after(tracer, name, None, exc)
                raise
            tracer._exit(name, frame)
            if after is not None:
                after(tracer, name, out, None)
            return out

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"gridvar.{modname}")
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._wrap(f"{modname}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gridvar" and not modname.startswith("gridvar."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        registry = importlib.import_module("gridvar.suite").REGISTRY
        for inv, runner in list(registry.items()):
            registry[inv] = self._wrap_generator(f"suite.invariant.{inv}", runner)
            self._patched.append((registry, inv, runner))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patched.clear()

    # -- per-pass aggregates -----------------------------------------------

    def take_pass(self) -> dict[str, dict[str, float]]:
        """Counters of the pass that just ended; resets them for the next."""
        out = {name: dict(stat) for name, stat in self.stats.items()}
        for name, keys in self.keys.items():
            out.setdefault(name, {})["unique"] = float(len(keys))
        self.stats = defaultdict(lambda: defaultdict(float))
        self.keys = defaultdict(set)
        return out

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated text, one per line."""
        with gzip.open(path, "wt") as out:
            out.write("id\tname\tstart\tend\tparent\ttask\n")
            for span_id, name_id, start, end, parent, task in self.spans:
                out.write(f"{span_id}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}"
                          f"\t{parent}\t{task}\n")


# -- counters recorded at the traced boundaries -------------------------------


def _before_solve_lp(tracer, name, args, kwargs):
    a = args[1] if len(args) > 1 else kwargs["A"]
    tracer.stats[name]["rows"] += len(a)
    return args


def _after_solve_lp(tracer, name, out, exc):
    if exc is None:
        tracer.stats[name]["pivots"] += out.iterations
    elif isinstance(exc, LPError):
        tracer.stats[name]["errors"] += 1


def _before_weight(tracer, name, args, kwargs):
    f, cube, k = args[0], args[1], args[2] if len(args) > 2 else kwargs["k"]
    tracer.keys[name].add(_grid_key(f, cube, k))
    return args


def _before_packing_dp(tracer, name, args, kwargs):
    ncells, anchored = args
    tracer.stats[name]["table_entries"] += 2 ** ncells
    tracer.stats[name]["items"] += sum(len(a) for a in anchored)
    return args


def _before_is_packing(tracer, name, args, kwargs):
    cubes = list(args[0])
    m = len(cubes)
    tracer.stats[name]["pairs"] += m * (m - 1) // 2
    return (cubes,)


_HOOKS = {
    "simplex.solve_lp": (_before_solve_lp, _after_solve_lp),
    "approx.e_k": (_before_weight, None),
    "differences.osc_k": (_before_weight, None),
    "variation.max_weight_packing": (_before_packing_dp, None),
    "grid.is_packing": (_before_is_packing, None),
}
