"""Property-test harness: every library invariant, run across seeded families.

Each invariant is a registered runner producing one cell per (family, seed);
a cell aggregates the invariant's checks over a small grid of dimensions,
orders, and exponents. Checks are encoded as violation margins: a margin
above zero fails the cell and ships a serialized reproduction case. The
registry must cover every invariant the library modules declare, which is
enforced at import time.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import approx as _approx_mod
from . import atoms as _atoms_mod
from . import classical as _classical_mod
from . import differences as _diff_mod
from . import variation as _var_mod
from .approx import best_minimax_poly, e_k, minimax_reference, poly_space_dim
from .atoms import (
    chain_norm,
    delta_correction,
    make_atom,
    u_norm_bounds,
    validate_atom,
)
from .classical import vitali_deviation, vitali_variation
from .differences import finite_difference, osc_directional, osc_k, osc_mixed
from .errors import GridvarError, UnisolventError
from .families import generate
from .grid import GridFunction, LatticeCube, LatticeInterval, enumerate_cubes
from .grid_io import grid_payload
from .variation import (
    VariationParams,
    holder_seminorm,
    variation_bruteforce,
    variation_dyadic,
    variation_local_search,
)
from .whitney import interpolate_1d, whitney_certificate, whitney_projection

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SuiteConfig:
    """Which invariants to run, and the seed grid per cell."""

    invariants: tuple[str, ...] | None = None  # None = every registered one
    seeds: int = 3
    base_seed: int = 0
    fuzz: bool = False  # draw a fresh base seed; it is recorded in the report

    def resolved_invariants(self) -> tuple[str, ...]:
        if self.invariants is None:
            return tuple(REGISTRY)
        unknown = [i for i in self.invariants if i not in REGISTRY]
        if unknown:
            raise GridvarError(f"unknown invariants {unknown}; known: {sorted(REGISTRY)}")
        return tuple(self.invariants)


@dataclass(frozen=True)
class CellResult:
    invariant: str
    family: str
    seed: int
    ok: bool
    slack: float  # worst violation margin; <= 0 means every check held
    constants: tuple[tuple[str, float], ...] = ()
    detail: str = ""
    repro: dict | None = None


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    cells: tuple[CellResult, ...]
    runtime_seconds: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def summary(self) -> dict:
        out: dict[str, dict] = {}
        for cell in self.cells:
            agg = out.setdefault(cell.invariant, {
                "passes": 0, "failures": 0, "worst_slack": -math.inf, "constants": {},
            })
            agg["passes" if cell.ok else "failures"] += 1
            agg["worst_slack"] = max(agg["worst_slack"], cell.slack)
            for key, val in cell.constants:
                agg["constants"][key] = max(agg["constants"].get(key, -math.inf), val)
        return out

    def to_payload(self, include_timing: bool = True) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "ok": self.ok,
            "cells": [
                {
                    "invariant": c.invariant,
                    "family": c.family,
                    "seed": c.seed,
                    "ok": c.ok,
                    "slack": c.slack,
                    "constants": dict(c.constants),
                    **({"detail": c.detail, "repro": c.repro} if not c.ok else {}),
                }
                for c in self.cells
            ],
            "summary": self.summary(),
        }
        if include_timing:
            payload["runtime_seconds"] = self.runtime_seconds
        return payload


Check = tuple[float, str]  # (violation margin, label)


def _cell(invariant: str, family: str, seed: int, checks: Sequence[Check],
          constants: Sequence[tuple[str, float]] = (),
          repro: dict | None = None) -> CellResult:
    worst = max((v for v, _ in checks), default=1.0)
    ok = worst <= 0.0 and bool(checks)
    detail = "; ".join(lbl for v, lbl in checks if v > 0.0)
    if not checks:
        detail = "no checks ran"
    return CellResult(
        invariant=invariant, family=family, seed=seed, ok=ok,
        slack=worst,
        constants=tuple(constants), detail=detail,
        repro=repro if not ok else None,
    )


def _seeds(cfg: SuiteConfig) -> range:
    return range(cfg.base_seed, cfg.base_seed + cfg.seeds)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _random_cube(rng: np.random.Generator, d: int, n: int,
                 min_side: int = 1, max_side: int | None = None) -> LatticeCube:
    hi = n - 1 if max_side is None else min(max_side, n - 1)
    side = int(rng.integers(min_side, hi + 1))
    origin = tuple(int(rng.integers(0, n - side)) for _ in range(d))
    return LatticeCube(origin, side)


def _nested_cubes(rng: np.random.Generator, d: int, n: int) -> tuple[LatticeCube, LatticeCube]:
    outer = _random_cube(rng, d, n, min_side=2)
    side = int(rng.integers(1, outer.side + 1))
    origin = tuple(int(o + rng.integers(0, outer.side - side + 1)) for o in outer.origin)
    return LatticeCube(origin, side), outer


def _random_interval(rng: np.random.Generator, d: int, n: int) -> LatticeInterval:
    lows, highs = [], []
    for _ in range(d):
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        lows.append(a)
        highs.append(b)
    return LatticeInterval(tuple(lows), tuple(highs))


def _random_step_instance(rng: np.random.Generator, d: int, n: int,
                          k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    while True:
        h = tuple(int(v) for v in rng.integers(-2, 3, size=d))
        if all(v == 0 for v in h):
            continue
        if any(k * abs(v) > n - 1 for v in h):
            continue
        x = tuple(
            int(rng.integers(max(0, -k * v), n - 1 - max(0, k * v) + 1)) for v in h
        )
        return x, h


# ---------------------------------------------------------------------------
# differences invariants


def _run_diff_linearity(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d, 1], d=d, n=n)
            g = generate("uniform", [seed, d, 2], d=d, n=n)
            rng = _rng(seed, d, 3)
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            combo = GridFunction(a * f.values + b * g.values)
            for k in (1, 2, 3):
                x, h = _random_step_instance(rng, d, n, k)
                lhs = finite_difference(combo, x, h, k)
                rhs = a * finite_difference(f, x, h, k) + b * finite_difference(g, x, h, k)
                tol = 1e-12 * (1.0 + abs(lhs) + abs(rhs))
                checks.append((abs(lhs - rhs) - tol,
                               f"linearity d={d} k={k} x={x} h={h}"))
        yield _cell("differences.linearity", "uniform", seed, checks)


def _run_diff_null_space(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        repro = None
        for d in (1, 2):
            for k in (1, 2, 3):
                f = generate("polynomial", [seed, d, k], d=d, n=5, degree=k - 1)
                val = osc_k(f, None, k)
                tol = 1e-10 * (1.0 + f.sup_norm())
                if val - tol > 0 and repro is None:
                    repro = {"grid": grid_payload(f), "k": k}
                checks.append((val - tol, f"osc null space d={d} k={k}"))
        yield _cell("differences.osc-null-space", "polynomial", seed, checks, repro=repro)


def _run_diff_cube_monotone(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d], d=d, n=n)
            rng = _rng(seed, d, 17)
            for k in (1, 2):
                for _ in range(3):
                    inner, outer = _nested_cubes(rng, d, n)
                    gap = osc_k(f, inner, k) - osc_k(f, outer, k)
                    checks.append((gap - 1e-12,
                                   f"osc monotone d={d} k={k} {inner} in {outer}"))
        yield _cell("differences.osc-cube-monotone", "uniform", seed, checks)


def _run_diff_mixed_directional(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d], d=d, n=n)
            rng = _rng(seed, d, 23)
            for k in (1, 2, 3):
                cube = _random_cube(rng, d, n)
                for axis in range(d):
                    alpha = tuple(k if i == axis else 0 for i in range(d))
                    diff = abs(osc_mixed(f, cube, alpha) - osc_directional(f, cube, k, axis))
                    checks.append((diff, f"mixed vs directional d={d} k={k} axis={axis}"))
        yield _cell("differences.mixed-matches-directional", "uniform", seed, checks)


def _run_diff_shift_invariance(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d, 1], d=d, n=n)
            for k in (1, 2, 3):
                m = generate("polynomial", [seed, d, k, 2], d=d, n=n, degree=k - 1)
                shifted = GridFunction(f.values + m.values)
                a, b = osc_k(shifted, None, k), osc_k(f, None, k)
                tol = 1e-10 * (1.0 + b + m.sup_norm())
                checks.append((abs(a - b) - tol, f"osc shift d={d} k={k}"))
        yield _cell("differences.osc-shift-invariance", "uniform", seed, checks)


# ---------------------------------------------------------------------------
# local approximation invariants


def _run_approx_shift_invariance(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 4
            f = generate("uniform", [seed, d, 5], d=d, n=n)
            for k in (1, 2, 3):
                m = generate("polynomial", [seed, d, k, 6], d=d, n=n, degree=k - 1)
                shifted = GridFunction(f.values + m.values)
                cube = f.whole_cube()
                a, b = e_k(shifted, cube, k), e_k(f, cube, k)
                tol = 1e-10 * (1.0 + b + m.sup_norm())
                checks.append((abs(a - b) - tol, f"e_k shift d={d} k={k}"))
        yield _cell("approx.shift-invariance", "uniform", seed, checks)


def _run_approx_homogeneity(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 4
            f = generate("uniform", [seed, d, 7], d=d, n=n)
            cube = f.whole_cube()
            for k in (1, 2):
                base = e_k(f, cube, k)
                for lam in (-3.0, 0.25, 1e-12, 1e12, 2.0**-40):
                    scaled = e_k(GridFunction(lam * f.values), cube, k)
                    # relative at the extreme scales: an absolute 1e-10 would
                    # pass e_k(1e-12 f) = 0
                    tol = (1e-10 * (1.0 + abs(lam) * base) if lam in (-3.0, 0.25)
                           else 1e-10 * abs(lam) * (1.0 + base))
                    checks.append((abs(scaled - abs(lam) * base) - tol,
                                   f"e_k homogeneity d={d} k={k} lam={lam}"))
        yield _cell("approx.homogeneity", "uniform", seed, checks)


def _run_approx_upper_bound(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d, 9], d=d, n=n)
            cube = f.whole_cube()
            for k in (1, 2, 3):
                e_val = e_k(f, cube, k)
                proj = whitney_projection(f, k)
                resid = float(np.max(np.abs(f.values - proj.values)))
                tol = 1e-9 * (1.0 + resid)
                checks.append((e_val - resid - tol, f"e_k vs projection d={d} k={k}"))
                if d == 1:
                    poly = interpolate_1d(f, LatticeInterval((0,), (n - 1,)), k)
                    vals = poly.evaluate(np.linspace(0.0, 1.0, n))
                    err = float(np.max(np.abs(f.values - vals)))
                    checks.append((e_val - err - tol, f"e_k vs interpolant k={k}"))
        yield _cell("approx.upper-bound-vs-interpolants", "uniform", seed, checks)


def _run_approx_cube_monotone(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d, 11], d=d, n=n)
            rng = _rng(seed, d, 29)
            for k in (1, 2):
                for _ in range(2):
                    inner, outer = _nested_cubes(rng, d, n)
                    lo, hi = e_k(f, inner, k), e_k(f, outer, k)
                    checks.append((lo - hi - 1e-9 * (1.0 + hi),
                                   f"e_k monotone d={d} k={k} {inner} in {outer}"))
        yield _cell("approx.cube-monotone", "uniform", seed, checks)


def _run_approx_whitney_lower(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        ratio_max = 0.0
        count = 0
        for d in (1, 2):
            n = 5
            f = generate("uniform", [seed, d, 13], d=d, n=n)
            rng = _rng(seed, d, 31)
            for k in (1, 2):
                for _ in range(3):
                    cube = _random_cube(rng, d, n, min_side=max(1, k))
                    report = whitney_certificate(f, cube, k)
                    viol = report.osc_value - 2.0**k * report.e_value \
                        - 1e-9 * (1.0 + report.e_value)
                    checks.append((viol, f"osc <= 2^k e_k d={d} k={k} cube={cube}"))
                    if report.upper_ok is not None:
                        checks.append((0.0 if report.upper_ok else 1.0,
                                       f"e_k <= residual d={d} k={k} cube={cube}"))
                    if report.ratio is not None:
                        ratio_max = max(ratio_max, report.ratio)
                        count += 1
        constants = [("max_osc_over_e", ratio_max)] if count else []
        yield _cell("approx.whitney-lower-constant", "uniform", seed, checks, constants)


def _run_approx_lp_oracle(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n, orders in ((1, 5, (1, 2, 3)), (2, 4, (1, 2))):
            f = generate("uniform", [seed, d, 15], d=d, n=n)
            rng = _rng(seed, d, 37)
            cubes = [c for c in enumerate_cubes(f) if c.point_count() <= 12]
            picks = rng.choice(len(cubes), size=min(4, len(cubes)), replace=False)
            for k in orders:
                for i in picks:
                    cube = cubes[int(i)]
                    lp = best_minimax_poly(f, cube, k).value
                    ref = minimax_reference(f, cube, k)
                    tol = 1e-9 * (1.0 + abs(ref))
                    checks.append((abs(lp - ref) - tol,
                                   f"lp vs subsets d={d} k={k} cube={cube}"))
        yield _cell("approx.lp-matches-subset-oracle", "uniform", seed, checks)


# ---------------------------------------------------------------------------
# variation invariants


def _run_var_null_space(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 5), (2, 3)):
            for k in (1, 2, 3):
                f = generate("polynomial", [seed, d, k, 41], d=d, n=n, degree=k - 1)
                tol = 1e-8 * (1.0 + f.sup_norm())
                params = VariationParams(k=k, p=1.0)
                br = variation_bruteforce(f, params).value
                checks.append((br - tol, f"brute null d={d} n={n} k={k}"))
                if (n - 1) & (n - 2) == 0:  # power of two
                    dy = variation_dyadic(f, params).value
                    checks.append((dy - tol, f"dyadic null d={d} n={n} k={k}"))
                ls = variation_local_search(f, params, budget=20).value
                checks.append((ls - tol, f"local null d={d} n={n} k={k}"))
        yield _cell("variation.null-space", "polynomial", seed, checks)


def _run_var_seminorm(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 4), (2, 3)):
            f = generate("uniform", [seed, d, 43], d=d, n=n)
            g = generate("uniform", [seed, d, 44], d=d, n=n)
            for k, p in ((1, 1.0), (1, 2.0), (2, 1.0)):
                params = VariationParams(k=k, p=p)
                vf = variation_bruteforce(f, params).value
                for lam in (-2.0, 0.5):
                    vl = variation_bruteforce(GridFunction(lam * f.values), params).value
                    tol = 1e-10 * (1.0 + abs(lam) * vf)
                    checks.append((abs(vl - abs(lam) * vf) - tol,
                                   f"homogeneity d={d} k={k} p={p} lam={lam}"))
                vg = variation_bruteforce(g, params).value
                vsum = variation_bruteforce(GridFunction(f.values + g.values), params).value
                checks.append((vsum - vf - vg - 1e-10 * (1.0 + vf + vg),
                               f"triangle d={d} k={k} p={p}"))
        yield _cell("variation.seminorm", "uniform", seed, checks)


def _run_var_method_ordering(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        repro = None
        for d in (1, 2):
            for n in (3, 4, 5):
                f = generate("uniform", [seed, d, n, 47], d=d, n=n)
                for k in (1, 2):
                    for p in (1.0, 2.0):
                        params = VariationParams(k=k, p=p)
                        br = variation_bruteforce(f, params)
                        dyadic_ok = (n - 1) & (n - 2) == 0
                        seed_packing = None
                        if dyadic_ok:
                            dy = variation_dyadic(f, params)
                            seed_packing = dy.optimizer
                        ls = variation_local_search(f, params, seed=seed_packing, budget=60)
                        label = f"d={d} n={n} k={k} p={p}"
                        if dyadic_ok:
                            checks.append((dy.value - ls.value - 1e-12,
                                           f"dyadic <= local {label}"))
                        viol = ls.value - br.value - 1e-12
                        if viol > 0 and repro is None:
                            repro = {"grid": grid_payload(f), "k": k, "p": p}
                        checks.append((viol, f"local <= brute {label}"))
        yield _cell("variation.method-ordering", "uniform", seed, checks, repro=repro)


def _run_var_parameter_monotone(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 5), (2, 4)):
            f = generate("uniform", [seed, d, 53], d=d, n=n)
            values = {}
            for k in (1, 2, 3):
                for p in (1.0, 2.0):
                    values[k, p] = variation_bruteforce(f, VariationParams(k=k, p=p)).value
            for p in (1.0, 2.0):
                checks.append((values[2, p] - values[1, p] - 1e-12, f"k-monotone d={d} p={p} (1->2)"))
                checks.append((values[3, p] - values[2, p] - 1e-12, f"k-monotone d={d} p={p} (2->3)"))
            for k in (1, 2):
                checks.append((values[k, 2.0] - values[k, 1.0] - 1e-12, f"p-monotone d={d} k={k}"))
                for weight in ("e_k", "osc_k"):
                    params1 = VariationParams(k=k, p=1.0, weight=weight)
                    params2 = VariationParams(k=k, p=2.0, weight=weight)
                    v1 = variation_bruteforce(f, params1).value
                    v2 = variation_bruteforce(f, params2).value
                    checks.append((v2 - v1 - 1e-12, f"p-monotone d={d} k={k} {weight}"))
                region = LatticeInterval((0,) * d, (n - 2,) * d)
                sub = variation_bruteforce(f, VariationParams(k=k, p=1.0), region=region).value
                checks.append((sub - values[k, 1.0] - 1e-12, f"region-monotone d={d} k={k}"))
        yield _cell("variation.parameter-monotonicity", "uniform", seed, checks)


def _run_var_subadditivity(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 5), (2, 4)):
            f = generate("uniform", [seed, d, 59], d=d, n=n)
            for k in (1, 2):
                for p in (1.0, 2.0):
                    params = VariationParams(k=k, p=p)
                    full = variation_bruteforce(f, params).value
                    for t in range(1, n - 1):
                        left = LatticeInterval((0,) * d, (t,) + (n - 1,) * (d - 1))
                        right = LatticeInterval((t,) + (0,) * (d - 1), (n - 1,) * d)
                        v1 = variation_bruteforce(f, params, region=left).value
                        v2 = variation_bruteforce(f, params, region=right).value
                        combined = (v1**p + v2**p) ** (1.0 / p)
                        checks.append((combined - full - 1e-12 * (1.0 + full),
                                       f"subadditivity d={d} k={k} p={p} cut={t}"))
        yield _cell("variation.region-subadditivity", "uniform", seed, checks)


def _run_var_lp_sandwich(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for n, count in ((7, 1), (7, 2), (7, 3), (9, 3)):
            try:
                f = generate("point-masses", [seed, n, count], d=1, n=n,
                             count=count, min_gap=2)
            except GridvarError:
                continue  # this draw could not separate `count` masses
            for p in (1.0, 2.0):
                var = variation_bruteforce(f, VariationParams(k=1, p=p)).value
                norm = float(np.sum(np.abs(f.values) ** p) ** (1.0 / p))
                label = f"n={n} count={count} p={p}"
                checks.append((var - norm - 1e-10, f"var <= norm {label}"))
                checks.append((norm - 2.0 * var - 1e-10, f"norm <= 2 var {label}"))
        yield _cell("variation.lp-sandwich", "point-masses", seed, checks)


def _run_var_lipschitz(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        for family, d, n_list in (("lacunary", 1, (5, 9)), ("uniform", 2, (4,))):
            checks: list[Check] = []
            for n in n_list:
                for k in (1, 2):
                    for p in (1.0, 2.0):
                        s = d / p
                        if family == "lacunary":
                            f = generate(family, [seed, n, k, int(2 * p)], n=n, s=s)
                        else:
                            f = generate(family, [seed, n, k, int(2 * p)], d=d, n=n)
                        params = VariationParams(k=k, p=p, weight="osc_k")
                        res = variation_bruteforce(f, params)
                        h_hat = holder_seminorm(f, k, p)
                        vol = math.fsum(c.volume(n) for c in res.optimizer)
                        mid = h_hat * vol ** (1.0 / p)
                        tol = 1e-12 * (1.0 + h_hat)
                        label = f"n={n} k={k} p={p}"
                        checks.append((res.value - mid - tol, f"var <= H vol^(1/p) {label}"))
                        checks.append((mid - h_hat - tol, f"H vol^(1/p) <= H {label}"))
            yield _cell("variation.lipschitz-embedding", family, seed, checks)


def _run_var_vitali_telescoping(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d in (1, 2, 3):
            n = 4
            f = generate("uniform", [seed, d, 61], d=d, n=n)
            rng = _rng(seed, d, 67)
            for _ in range(3):
                interval = _random_interval(rng, d, n)
                cells = _random_partition(rng, interval)
                whole = vitali_deviation(f, interval)
                parts = math.fsum(vitali_deviation(f, c) for c in cells)
                scale = 1.0 + math.fsum(abs(vitali_deviation(f, c)) for c in cells)
                checks.append((abs(whole - parts) - 1e-12 * scale,
                               f"telescoping d={d} I={interval.lower}-{interval.upper}"))
        yield _cell("variation.vitali-telescoping", "uniform", seed, checks)


def _random_partition(rng: np.random.Generator,
                      interval: LatticeInterval) -> list[LatticeInterval]:
    per_axis = []
    for lo, hi in zip(interval.lower, interval.upper):
        room = hi - lo - 1
        ncuts = int(rng.integers(0, room + 1)) if room > 0 else 0
        cuts = sorted(
            int(c) for c in rng.choice(np.arange(lo + 1, hi), size=ncuts, replace=False)
        ) if ncuts else []
        bounds = [lo, *cuts, hi]
        per_axis.append([(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)])
    return [
        LatticeInterval(tuple(s[0] for s in slabs), tuple(s[1] for s in slabs))
        for slabs in itertools.product(*per_axis)
    ]


def _run_classical_vitali_partitions(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 9), (2, 5), (3, 4)):
            f = generate("uniform", [seed, d, 103], d=d, n=n)
            res = vitali_variation(f)
            tol = 1e-12 * (1.0 + res.value)
            resum = math.fsum(abs(vitali_deviation(f, b)) for b in res.optimizer)
            checks.append((abs(resum - res.value) - tol, f"optimizer re-sums d={d}"))
            rng = _rng(seed, d, 107)
            whole = LatticeInterval((0,) * d, (n - 1,) * d)
            for _ in range(3):
                parts = _random_partition(rng, whole)
                total = math.fsum(abs(vitali_deviation(f, c)) for c in parts)
                checks.append((total - res.value - tol,
                               f"partition of {len(parts)} boxes <= vitali d={d}"))
        yield _cell("classical.vitali-dominates-partitions", "uniform", seed, checks)


def _run_var_weight_transfer(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        best_ratio = 0.0
        counted = 0
        for d, n in ((1, 5), (2, 4)):
            f = generate("uniform", [seed, d, 71], d=d, n=n)
            for k in (1, 2):
                v_e = variation_bruteforce(f, VariationParams(k=k, p=1.0, weight="e_k")).value
                v_o = variation_bruteforce(f, VariationParams(k=k, p=1.0, weight="osc_k")).value
                checks.append((v_o - 2.0**k * v_e - 1e-9 * (1.0 + v_e),
                               f"osc-var <= 2^k e-var d={d} k={k}"))
                if v_o > 1e-9:
                    best_ratio = max(best_ratio, v_e / v_o)
                    counted += 1
        constants = [("max_evar_over_oscvar", best_ratio)] if counted else []
        yield _cell("variation.weight-transfer", "uniform", seed, checks, constants)


# ---------------------------------------------------------------------------
# predual invariants


def _random_delta_atom(rng: np.random.Generator, d: int, n: int, k: int):
    dim = poly_space_dim(d, k)
    for _ in range(30):
        cube = _random_cube(rng, d, n)
        pts = list(cube.lattice_points())
        if len(pts) < dim + 1:
            continue
        picks = rng.choice(len(pts), size=dim + 1, replace=False)
        x, s_set = pts[int(picks[0])], [pts[int(i)] for i in picks[1:]]
        try:
            weights = delta_correction(x, s_set, k, n)
        except UnisolventError:
            continue
        l1 = math.fsum(abs(w) for w in weights.values())
        return make_atom(cube, {p: w / l1 for p, w in weights.items()})
    return None


def _random_moment_free(rng: np.random.Generator, d: int, n: int, k: int) -> GridFunction | None:
    vals = np.zeros((n,) * d)
    for _ in range(int(rng.integers(1, 3))):
        atom = _random_delta_atom(rng, d, n, k)
        if atom is None:
            continue
        coef = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        for pt, w in atom.weights:
            vals[pt] += coef * w
    if not np.any(vals != 0.0):
        return None
    return GridFunction(vals)


def _run_atoms_orthogonality(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for d, n in ((1, 5), (2, 4)):
            rng = _rng(seed, d, 73)
            for k in (1, 2):
                atom = _random_delta_atom(rng, d, n, k)
                if atom is None:
                    continue
                report = validate_atom(atom, n, k)
                checks.append((0.0 if report.valid else 1.0,
                               f"atom valid d={d} k={k}: {report.failures}"))
                m = generate("polynomial", [seed, d, k, 79], d=d, n=n, degree=k - 1)
                pairing = abs(math.fsum(m.value_at(pt) * w for pt, w in atom.weights))
                tol = 1e-10 * (1.0 + m.sup_norm())
                checks.append((pairing - tol, f"atom kills polynomials d={d} k={k}"))
        yield _cell("atoms.orthogonality", "polynomial", seed, checks)


def _run_atoms_upper_scaling(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for k in (1, 2):
            g = _random_moment_free(_rng(seed, k, 83), 1, 7, k)
            if g is None:
                continue
            params = VariationParams(k=k, p=2.0)
            base = u_norm_bounds(g, params, budget=500)
            for lam in (2.5, -0.5):
                scaled = u_norm_bounds(GridFunction(lam * g.values), params, budget=500)
                tol = 1e-10 * (1.0 + abs(lam) * base.upper)
                checks.append((abs(scaled.upper - abs(lam) * base.upper) - tol,
                               f"upper scaling k={k} lam={lam}"))
                tol_low = 1e-10 * (1.0 + abs(lam) * base.lower)
                checks.append((abs(scaled.lower - abs(lam) * base.lower) - tol_low,
                               f"lower scaling k={k} lam={lam}"))
        yield _cell("atoms.upper-scaling", "point-masses", seed, checks)


def _run_atoms_upper_triangle(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for k in (1, 2):
            g1 = _random_moment_free(_rng(seed, k, 89), 1, 7, k)
            g2 = _random_moment_free(_rng(seed, k, 97), 1, 7, k)
            if g1 is None or g2 is None:
                continue
            total = g1.values + g2.values
            if not np.any(total != 0.0):
                continue
            params = VariationParams(k=k, p=1.0)
            u1 = u_norm_bounds(g1, params, budget=500)
            u2 = u_norm_bounds(g2, params, budget=500)
            u12 = u_norm_bounds(GridFunction(total), params, budget=500)
            concat = math.fsum(
                chain_norm(ch, params.p) for ch in u1.presentation + u2.presentation
            )
            tol = 1e-12 * (1.0 + u1.upper + u2.upper)
            checks.append((abs(concat - (u1.upper + u2.upper)) - tol,
                           f"concatenated recomputation k={k}"))
            checks.append((u12.lower - (u1.upper + u2.upper) - 1e-10 * (1.0 + concat),
                           f"lower(g1+g2) <= upper(g1)+upper(g2) k={k}"))
        yield _cell("atoms.upper-triangle", "point-masses", seed, checks)


def _run_atoms_lower_below_upper(cfg: SuiteConfig) -> Iterator[CellResult]:
    for seed in _seeds(cfg):
        checks: list[Check] = []
        for k in (1, 2):
            for p in (1.0, 2.0):
                g = _random_moment_free(_rng(seed, k, int(p), 101), 1, 7, k)
                if g is None:
                    continue
                bounds = u_norm_bounds(g, VariationParams(k=k, p=p), budget=500)
                label = f"k={k} p={p}"
                checks.append((bounds.lower - bounds.upper - 1e-12, f"lower <= upper {label}"))
                recomputed = math.fsum(chain_norm(ch, p) for ch in bounds.presentation)
                checks.append((abs(recomputed - bounds.upper) - 1e-12 * (1.0 + bounds.upper),
                               f"upper recomputation {label}"))
                for chain in bounds.presentation:
                    for atom in chain.atoms:
                        rep = validate_atom(atom, g.n, k)
                        checks.append((0.0 if rep.valid else 1.0,
                                       f"presentation atom valid {label}: {rep.failures}"))
        yield _cell("atoms.lower-below-upper", "point-masses", seed, checks)


# ---------------------------------------------------------------------------
# registry and driver

REGISTRY: dict[str, Callable[[SuiteConfig], Iterator[CellResult]]] = {
    "differences.linearity": _run_diff_linearity,
    "differences.osc-null-space": _run_diff_null_space,
    "differences.osc-cube-monotone": _run_diff_cube_monotone,
    "differences.mixed-matches-directional": _run_diff_mixed_directional,
    "differences.osc-shift-invariance": _run_diff_shift_invariance,
    "approx.shift-invariance": _run_approx_shift_invariance,
    "approx.homogeneity": _run_approx_homogeneity,
    "approx.upper-bound-vs-interpolants": _run_approx_upper_bound,
    "approx.cube-monotone": _run_approx_cube_monotone,
    "approx.whitney-lower-constant": _run_approx_whitney_lower,
    "approx.lp-matches-subset-oracle": _run_approx_lp_oracle,
    "variation.null-space": _run_var_null_space,
    "variation.seminorm": _run_var_seminorm,
    "variation.method-ordering": _run_var_method_ordering,
    "variation.parameter-monotonicity": _run_var_parameter_monotone,
    "variation.region-subadditivity": _run_var_subadditivity,
    "variation.lp-sandwich": _run_var_lp_sandwich,
    "variation.lipschitz-embedding": _run_var_lipschitz,
    "variation.vitali-telescoping": _run_var_vitali_telescoping,
    "variation.weight-transfer": _run_var_weight_transfer,
    "classical.vitali-dominates-partitions": _run_classical_vitali_partitions,
    "atoms.orthogonality": _run_atoms_orthogonality,
    "atoms.upper-scaling": _run_atoms_upper_scaling,
    "atoms.upper-triangle": _run_atoms_upper_triangle,
    "atoms.lower-below-upper": _run_atoms_lower_below_upper,
}

CATALOG: tuple[str, ...] = (
    _diff_mod.INVARIANT_IDS
    + _approx_mod.INVARIANT_IDS
    + _var_mod.INVARIANT_IDS
    + _atoms_mod.INVARIANT_IDS
    + _classical_mod.INVARIANT_IDS
)


def missing_invariants() -> tuple[str, ...]:
    """Declared invariant ids with no registered runner."""
    return tuple(i for i in CATALOG if i not in REGISTRY)


def _check_registry_complete() -> None:
    missing = missing_invariants()
    if missing:
        raise GridvarError(
            f"invariants declared but not registered in the suite: {list(missing)}"
        )


_check_registry_complete()


def _run_invariant(invariant: str, config: SuiteConfig) -> list[CellResult]:
    """The runner's cells; if it raises, the cells it yielded so far plus a
    failing cell with the exception and the config that reproduces it."""
    cells: list[CellResult] = []
    try:
        cells.extend(REGISTRY[invariant](config))
    except Exception as exc:  # a broken invariant must not hide the others
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        cells.append(CellResult(
            invariant=invariant, family="runner-error", seed=config.base_seed, ok=False,
            slack=1.0, detail=f"runner raised {type(exc).__name__}: {exc} (at {where})",
            repro={"invariants": [invariant], "seeds": config.seeds,
                   "base_seed": config.base_seed},
        ))
    return cells


def run_suite(config: SuiteConfig | dict | None = None) -> SuiteReport:
    """Run the selected invariants; failures are data in the report, not
    exceptions, and so is a runner that raises (see _run_invariant). Two
    runs with the same config produce identical reports up to the runtime
    field."""
    if config is None:
        config = SuiteConfig()
    elif isinstance(config, dict):
        known = {"invariants", "seeds", "base_seed", "fuzz"}
        unknown = set(config) - known
        if unknown:
            raise GridvarError(f"unknown suite config keys {sorted(unknown)}")
        cfg = dict(config)
        if cfg.get("invariants") is not None:
            cfg["invariants"] = tuple(cfg["invariants"])
        config = SuiteConfig(**cfg)
    if config.fuzz:
        entropy = int(np.random.SeedSequence().entropy % np.iinfo(np.int64).max)
        config = SuiteConfig(
            invariants=config.invariants,
            seeds=config.seeds,
            base_seed=entropy,
            fuzz=False,
        )
    invariants = config.resolved_invariants()
    start = time.perf_counter()
    cells: list[CellResult] = []
    for inv in invariants:
        cells.extend(_run_invariant(inv, config))
    cells.sort(key=lambda c: (c.invariant, c.family, c.seed))
    return SuiteReport(
        config={
            "invariants": list(invariants),
            "seeds": config.seeds,
            "base_seed": config.base_seed,
        },
        cells=tuple(cells),
        runtime_seconds=time.perf_counter() - start,
    )
