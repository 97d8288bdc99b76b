"""The benchmark's four workloads: inputs from the seed, tasks and checks.

A workload is a list of tasks run in order as one *pass*; a run repeats
passes. Every task is one gridvar call and carries a check that runs after
the timed part of the run and compares the output with `reference`, which
never calls gridvar. Inputs come from numpy generators written here (the
same formulas as gridvar's seeded families), so gridvar only ever sees the
generated grids.

`defect` marks the inputs pinned for the known minimax-LP defects: they use
fixed family seeds, whatever the run seed, so a fix shows as fewer failures
on identical inputs. A failure of any other task makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import gridvar as gv
import gridvar.cli  # noqa: F401  (tasks call gv.cli.main)
from gridvar import GridFunction, LatticeCube, Packing, SuiteConfig, VariationParams

import reference as ref

# large-grid repeats its mid-size tasks on this many grids per pass, and
# its d=3 dyadic task on LARGE_GRID_D3_REPLICAS grids.
LARGE_GRID_REPLICAS = 8
LARGE_GRID_D3_REPLICAS = 6

# CLI values may differ from the library's in summation order only.
CLI_REL_TOL = 1e-12

# Tolerance for the 1-d alternation bracket, relative to max |f| on the cube.
BRACKET_TOL = 1e-6

# The invariants registered when this benchmark was defined. Pinned, so the
# suite workload stays the same work when invariants are added later.
SUITE_INVARIANTS = (
    "differences.linearity",
    "differences.osc-null-space",
    "differences.osc-cube-monotone",
    "differences.mixed-matches-directional",
    "differences.osc-shift-invariance",
    "approx.shift-invariance",
    "approx.homogeneity",
    "approx.upper-bound-vs-interpolants",
    "approx.cube-monotone",
    "approx.whitney-lower-constant",
    "approx.lp-matches-subset-oracle",
    "variation.null-space",
    "variation.seminorm",
    "variation.method-ordering",
    "variation.parameter-monotonicity",
    "variation.region-subadditivity",
    "variation.lp-sandwich",
    "variation.lipschitz-embedding",
    "variation.vitali-telescoping",
    "variation.weight-transfer",
    "atoms.orthogonality",
    "atoms.upper-scaling",
    "atoms.upper-triangle",
    "atoms.lower-below-upper",
)


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    defect: bool = False


@dataclass
class Workload:
    name: str
    traced_passes: int  # fixed, so traced counts repeat exactly
    tasks: Callable[[int], list[Task]]  # pass index -> the pass's tasks
    warmup: Callable[[], None]


# ---------------------------------------------------------------------------
# inputs (numpy only)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def uniform(rng, d: int, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n,) * d)


def polynomial(rng, d: int, n: int, degree: int) -> np.ndarray:
    pts = np.array(list(itertools.product(range(n), repeat=d)), dtype=float) / (n - 1)
    alphas = sorted((a for a in itertools.product(range(degree + 1), repeat=d)
                     if sum(a) <= degree), key=lambda a: (sum(a), a))
    vals = np.zeros(len(pts))
    for alpha in alphas:
        vals += rng.standard_normal() * np.prod(pts ** np.asarray(alpha), axis=1)
    return vals.reshape((n,) * d)


def lacunary(rng, n: int, s: float = 1.0, terms: int = 8) -> np.ndarray:
    x = np.linspace(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=terms)
    vals = np.zeros(n)
    for j in range(terms):
        vals += 2.0 ** (-j * s) * np.cos(2.0 ** j * math.pi * x + phases[j])
    return vals


def monotone_walk(rng, n: int) -> np.ndarray:
    steps = np.abs(rng.standard_normal(n - 1))
    start = rng.uniform(-1.0, 1.0)
    return np.concatenate([[start], start + np.cumsum(steps)])


def separable(rng, d: int, n: int) -> np.ndarray:
    vals = np.ones((n,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        vals = vals * rng.uniform(-1.0, 1.0, size=n).reshape(shape)
    return vals


def point_masses(rng, d: int, n: int, count: int) -> np.ndarray:
    interior = list(itertools.product(range(1, n - 1), repeat=d))
    vals = np.zeros((n,) * d)
    for idx in rng.permutation(len(interior))[:count]:
        vals[interior[idx]] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    return vals


def _fail(reason: str, **numbers: float) -> str:
    if numbers:
        reason += " (" + ", ".join(f"{k}={v:.6g}" for k, v in numbers.items()) + ")"
    return reason


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _check_value(reference_value: Callable[[], float]):
    """A bare value against a reference value (relative to max(1, |ref|))."""
    def check(value) -> str | None:
        want = reference_value()
        if ref.close(value, want, 1.0):
            return None
        return _fail("value differs from the reference", value=value, reference=want)

    return check


def _cubes_of(packing) -> list[tuple[tuple[int, ...], int]]:
    return [(tuple(c.origin), int(c.side)) for c in packing]


def _check_packing(values: np.ndarray, result, weights: Callable[[object], float],
                   ref_value: float | None) -> str | None:
    """Disjoint optimizer, objective recomputed from reference weights, and
    (when given) the value against a reference value."""
    p = result.params.p
    cubes = _cubes_of(result.optimizer)
    if not ref.disjoint(cubes):
        return "optimizer cubes overlap"
    objective = math.fsum(weights(c) ** p for c in cubes) ** (1.0 / p)
    scale = float(np.max(np.abs(values)))
    if not ref.close(result.value, objective, scale):
        return _fail("value differs from the optimizer's recomputed objective",
                     value=result.value, objective=objective)
    if ref_value is not None and not ref.close(result.value, ref_value, scale):
        return _fail("value differs from the reference", value=result.value, reference=ref_value)
    return None


def _weight_lookup(values: np.ndarray, k: int, kind: str) -> Callable[[object], float]:
    @cache
    def w(cube):
        return ref.weight(ref.cube_values(values, *cube), k, kind)

    return w


def _check_exact(values, k, p, kind):
    """Check for an exact optimizer: reference optimum plus the optimizer."""
    @cache
    def optimum():
        return ref.exact_variation(values, k, p, kind)

    def check(result) -> str | None:
        if not result.is_exact:
            return "exact method reported a non-exact result"
        value, weights = optimum()
        return _check_packing(values, result, lambda c: weights[c], value)

    return check


def _check_minimax_1d(values: np.ndarray, k: int):
    """de la Vallee Poussin bracket around the returned minimizer."""
    def check(result) -> str | None:
        n = len(values)
        coords = (np.arange(n, dtype=float) / (n - 1))[:, None]
        poly = result.minimizer
        err = values - ref.evaluate_terms(poly.center, poly.scale, poly.terms, coords)
        low, high = ref.alternation_bracket(err, k)
        tol = BRACKET_TOL * float(np.max(np.abs(values)))
        if not (low - tol <= result.value <= high + tol) or high - low > tol:
            return _fail("alternation bracket gap", value=result.value, L=low, U=high)
        return None

    return check


def _check_minimax_whole(values: np.ndarray, k: int):
    """Value against HiGHS; the minimizer must attain it."""
    @cache
    def optimum():
        return ref.minimax_error(values, k)

    def check(result) -> str | None:
        n, d = values.shape[0], values.ndim
        coords = np.indices(values.shape).reshape(d, -1).T / (n - 1)
        poly = result.minimizer
        err = values.ravel() - ref.evaluate_terms(poly.center, poly.scale, poly.terms, coords)
        scale = float(np.max(np.abs(values)))
        attained = float(np.max(np.abs(err)))
        if not ref.close(attained, result.value, scale):
            return _fail("minimizer does not attain the value", value=result.value, max_err=attained)
        if not ref.close(result.value, optimum(), scale):
            return _fail("value differs from HiGHS", value=result.value, reference=optimum())
        return None

    return check


def _check_dyadic(values, k, p, kind):
    weights = _weight_lookup(values, k, kind)

    @cache
    def optimum():
        return ref.dyadic_variation(values, k, p, kind)[0]

    def check(result) -> str | None:
        return _check_packing(values, result, weights, optimum())

    return check


# ---------------------------------------------------------------------------
# exact: exhaustive optimizers at the 16-cell guard


def _exact_tasks(seed: int) -> list[Task]:
    grids2 = {
        "uniform": uniform(_rng(seed, 1), 2, 5),
        "separable": separable(_rng(seed, 2), 2, 5),
        "point-masses": point_masses(_rng(seed, 3), 2, 5, count=2),
        "polynomial3": polynomial(_rng(seed, 8), 2, 5, 3),
    }
    grids1 = {
        "monotone-walk": monotone_walk(_rng(seed, 4), 17),
        "lacunary": lacunary(_rng(seed, 5), 17),
        "uniform": uniform(_rng(seed, 6), 1, 17),
    }
    large = uniform(_rng(seed, 7), 1, 20)
    tasks = []

    def brute(name, values, k, kind, p=2.0, **kw):
        f, params = GridFunction(values), VariationParams(k=k, p=p, weight=kind)
        tasks.append(Task(name, lambda: gv.variation_bruteforce(f, params, **kw),
                          _check_exact(values, k, p, kind)))

    for fam, values in grids2.items():
        for k in (1, 2, 3):
            for kind in ("e_k", "osc_k"):
                brute(f"brute d2n5 {fam} k{k} {kind}", values, k, kind)
    for fam, values in grids1.items():
        for k in (1, 2, 3):
            for kind in ("e_k", "osc_k"):
                brute(f"brute d1n17 {fam} k{k} {kind}", values, k, kind)
    brute("brute d1n20 uniform k1 e_k allow_large", large, 1, "e_k", allow_large=True)

    vu, vs, vp = grids2["uniform"], grids2["separable"], grids2["point-masses"]
    mesh_cap = 0.25

    @cache
    def restricted_ref():
        keep = lambda o, s: (s / 4) ** 2 <= mesh_cap + 1e-12  # noqa: E731
        return ref.exact_variation(vu, 2, 2.0, "e_k", keep)[0]

    fu = GridFunction(vu)
    tasks.append(Task(
        "restricted_variation d2n5 uniform k2 cap0.25",
        lambda: gv.restricted_variation(fu, VariationParams(k=2, p=2.0), mesh_cap),
        _check_value(restricted_ref),
    ))

    @cache
    def ac_ref():
        return ref.exact_ac_modulus(vs, 2, 1.0, "e_k", 0.5)

    fs = GridFunction(vs)
    tasks.append(Task("ac_modulus d2n5 separable k2 cap0.5",
                      lambda: gv.ac_modulus(fs, VariationParams(k=2, p=1.0), 0.5),
                      _check_value(ac_ref)))

    @cache
    def vitali_ref():
        return ref.exact_vitali(vp)

    def vitali_check(result) -> str | None:
        boxes = [(b.lower, b.upper) for b in result.optimizer]
        masks = [ref.cell_mask(lo, hi, 5) for lo, hi in boxes]
        if any(a & b for a, b in itertools.combinations(masks, 2)):
            return "optimizer boxes overlap"
        total = math.fsum(abs(ref.vitali_deviation(vp, lo, hi)) for lo, hi in boxes)
        if not ref.close(result.value, total, 1.0):
            return _fail("value differs from the optimizer's deviations",
                         value=result.value, objective=total)
        if not ref.close(result.value, vitali_ref(), 1.0):
            return _fail("value differs from the reference",
                         value=result.value, reference=vitali_ref())
        return None

    fp = GridFunction(vp)
    tasks.append(Task("vitali_variation d2n5 point-masses brute",
                      lambda: gv.vitali_variation(fp), vitali_check))

    @cache
    def hk_ref():
        return ref.hardy_krause(vs)

    tasks.append(Task("hardy_krause_variation d2n5 separable",
                      lambda: gv.hardy_krause_variation(fs), _check_value(hk_ref)))
    return tasks


def _warm_exact() -> None:
    f = GridFunction(np.array([[0.0, 1.0], [2.0, 0.5]]))
    gv.variation_bruteforce(f, VariationParams(k=2, p=2.0))
    gv.variation_bruteforce(f, VariationParams(k=2, p=2.0, weight="osc_k"))
    gv.vitali_variation(f)
    gv.hardy_krause_variation(f)


# ---------------------------------------------------------------------------
# minimax: large dense LPs, plus the pinned defect inputs


def _minimax_tasks(seed: int) -> list[Task]:
    tasks = []
    # Pinned: family seed 0 on d=1, n=33, whatever the run seed.
    pinned = {
        "polynomial9": polynomial(np.random.default_rng(0), 1, 33, 9),
        "lacunary": lacunary(np.random.default_rng(0), 33),
        "uniform": uniform(np.random.default_rng(0), 1, 33),
    }
    for fam, values in pinned.items():
        f = GridFunction(values)
        for k in range(2, 21):
            tasks.append(Task(f"minimax d1n33 {fam} k{k}",
                              lambda f=f, k=k: gv.best_minimax_poly(f, f.whole_cube(), k),
                              _check_minimax_1d(values, k), defect=True))
    tiny = 1e-12 * pinned["uniform"]
    ft = GridFunction(tiny)
    tasks.append(Task("minimax d1n33 uniform*1e-12 k3",
                      lambda: gv.best_minimax_poly(ft, ft.whole_cube(), 3),
                      _check_minimax_1d(tiny, 3), defect=True))

    big = uniform(_rng(seed, 10), 2, 17)
    fb = GridFunction(big)
    for k in (2, 3):
        tasks.append(Task(f"minimax d2n17 uniform k{k}",
                          lambda k=k: gv.best_minimax_poly(fb, fb.whole_cube(), k),
                          _check_minimax_whole(big, k)))
    params = VariationParams(k=2, p=2.0)
    tasks.append(Task("dyadic d2n17 uniform k2 e_k", lambda: gv.variation_dyadic(fb, params),
                      _check_dyadic(big, 2, 2.0, "e_k")))

    mid = uniform(_rng(seed, 11), 2, 9)
    fm = GridFunction(mid)
    for k in (2, 3):
        tasks.append(Task(f"whitney_certificate d2n9 uniform k{k}",
                          lambda k=k: gv.whitney_certificate(fm, fm.whole_cube(), k),
                          _check_whitney(mid, k)))
    return tasks


def _check_whitney(values: np.ndarray, k: int):
    @cache
    def expected():
        return ref.minimax_error(values, k), ref.oscillation(values, k)

    def check(report) -> str | None:
        e_val, osc_val = expected()
        scale = float(np.max(np.abs(values)))
        if not ref.close(report.e_value, e_val, scale):
            return _fail("e_value differs from HiGHS", value=report.e_value, reference=e_val)
        if not ref.close(report.osc_value, osc_val, scale):
            return _fail("osc_value differs from the reference",
                         value=report.osc_value, reference=osc_val)
        if report.lower_ok is not True or report.upper_ok is not True:
            return "certificate bounds not both satisfied"
        return None

    return check


def _warm_minimax() -> None:
    f = GridFunction(np.array([0.0, 1.0, 0.5, 2.0]))
    gv.best_minimax_poly(f, f.whole_cube(), 2)
    g = GridFunction(np.array([[0.0, 1.0, 0.2], [2.0, 0.5, 0.1], [0.3, 0.4, 1.0]]))
    gv.whitney_certificate(g, g.whole_cube(), 2)
    gv.variation_dyadic(g, VariationParams(k=2, p=2.0))


# ---------------------------------------------------------------------------
# large-grid: scalable lower bounds (grid geometry and osc_k)


def _large_grid_tasks(seed: int) -> list[Task]:
    tasks = []

    def dyadic(name, values, k, kind):
        f, params = GridFunction(values), VariationParams(k=k, p=2.0, weight=kind)
        tasks.append(Task(name, lambda: gv.variation_dyadic(f, params),
                          _check_dyadic(values, k, 2.0, kind)))

    def holder(name, values):
        f = GridFunction(values)
        tasks.append(Task(name, lambda: gv.holder_seminorm(f, 2, 2.0),
                          _check_value(cache(lambda: ref.holder_seminorm(values, 2, 2.0)))))

    g33 = uniform(_rng(seed, 20), 2, 33)
    dyadic("dyadic d2n33 uniform k1 e_k", g33, 1, "e_k")
    dyadic("dyadic d2n33 uniform k2 osc_k", g33, 2, "osc_k")
    holder("holder_seminorm d2n17 uniform k2", uniform(_rng(seed, 22), 2, 17))
    g3d = uniform(_rng(seed, 21), 3, 9)
    dyadic("dyadic d3n9 uniform k2 osc_k", g3d, 2, "osc_k")
    for i in range(LARGE_GRID_D3_REPLICAS):
        dyadic(f"dyadic d3n9 uniform#{i} k1 e_k", uniform(_rng(seed, 21, i), 3, 9), 1, "e_k")

    params = VariationParams(k=1, p=2.0)
    for i in range(LARGE_GRID_REPLICAS):
        g = uniform(_rng(seed, 30, i), 2, 17)
        dyadic(f"dyadic d2n17 uniform#{i} k1 e_k", g, 1, "e_k")
        dyadic(f"dyadic d2n17 uniform#{i} k2 osc_k", g, 2, "osc_k")
        h = uniform(_rng(seed, 31, i), 2, 9)
        holder(f"holder_seminorm d2n9 uniform#{i} k2", h)
        # seeded with the dyadic optimizer, so dyadic <= local must hold
        start = Packing(tuple(LatticeCube(o, s)
                              for o, s in ref.dyadic_variation(h, 1, 2.0, "e_k")[1]))
        fh = GridFunction(h)
        tasks.append(Task(f"local_search d2n9 uniform#{i} k1 e_k budget100 from-dyadic",
                          lambda fh=fh, start=start: gv.variation_local_search(
                              fh, params, seed=start, budget=100),
                          _check_local(h)))
    return tasks


def _check_local(values: np.ndarray):
    """Local search (k=1, p=2, e_k) seeded with the dyadic optimizer: a
    packing whose objective is the value, between the dyadic value and the
    Holder bound (sum e_1^p <= (H_1/2)^p)."""
    weights = _weight_lookup(values, 1, "e_k")

    @cache
    def bounds():
        low = ref.dyadic_variation(values, 1, 2.0, "e_k")[0]
        return low, ref.holder_seminorm(values, 1, 2.0) / 2.0

    def check(result) -> str | None:
        bad = _check_packing(values, result, weights, None)
        if bad:
            return bad
        low, high = bounds()
        if not low * (1 - ref.REL_TOL) <= result.value <= high * (1 + ref.REL_TOL):
            return _fail("local search outside [dyadic, Holder bound]",
                         value=result.value, dyadic=low, bound=high)
        return None

    return check


def _warm_large_grid() -> None:
    f = GridFunction(np.arange(9.0).reshape(3, 3) % 4)
    gv.variation_dyadic(f, VariationParams(k=1, p=2.0))
    gv.variation_dyadic(f, VariationParams(k=2, p=2.0, weight="osc_k"))
    gv.holder_seminorm(f, 2, 2.0)
    gv.variation_local_search(f, VariationParams(k=1, p=2.0), budget=3)


# ---------------------------------------------------------------------------
# suite: the property suite and in-process CLI round trips


def _suite_tasks_factory(seed: int, workdir: Path):
    def tasks(pass_index: int) -> list[Task]:
        suite_seed = seed * 1000 + pass_index
        out = []
        for inv in SUITE_INVARIANTS:
            config = SuiteConfig(invariants=(inv,), seeds=1, base_seed=suite_seed)
            out.append(Task(f"suite {inv}", lambda config=config: gv.run_suite(config),
                            _check_suite_report))
        out.extend(_cli_tasks(suite_seed, workdir))
        return out

    return tasks


def _check_suite_report(report) -> str | None:
    if not report.cells:
        return "suite produced no cells"
    if not report.ok:
        return "suite failures: " + "; ".join(
            f"{c.invariant}/{c.family}/{c.seed}: {c.detail}" for c in report.failures)
    return None


CLI_SUITE_INVARIANTS = ("variation.null-space", "approx.lp-matches-subset-oracle")


def _cli(argv: list[str], out: Path):
    code = gv.cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if code == 0 else ""


def _cli_tasks(suite_seed: int, workdir: Path) -> list[Task]:
    grid_path = workdir / "grid.json"
    expected = np.random.default_rng(suite_seed).uniform(-1.0, 1.0, size=(5, 5))
    grid = GridFunction(expected)

    def check_generate(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        got = np.asarray(payload["values"], dtype=float).reshape(payload["n"], payload["n"])
        return None if np.array_equal(got, expected) else "generated grid differs from the seed"

    def check_value(library: Callable[[], float]):
        @cache
        def want():
            return library()

        def check(out) -> str | None:
            code, text = out
            if code != 0:
                return f"exit code {code}"
            value = json.loads(text)["value"]
            if abs(value - want()) > CLI_REL_TOL * max(1.0, abs(want())):
                return _fail("CLI value differs from the library", cli=value, library=want())
            return None

        return check

    def task(name, argv, check):
        target = grid_path if argv[0] == "generate" else workdir / "out.json"
        return Task(name, lambda: _cli(argv, target), check)

    def check_cli_suite(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        got = {c["invariant"] for c in payload["cells"]}
        if not payload["ok"] or got != set(CLI_SUITE_INVARIANTS):
            return "CLI suite report not ok or incomplete"
        return None

    def value_of(call):
        return lambda: call().value

    return [
        task("cli generate uniform d2n5",
             ["generate", "uniform", "--seed", str(suite_seed), "--d", "2", "--n", "5"],
             check_generate),
        task("cli var brute k2 e_k", ["var", str(grid_path), "--k", "2", "--p", "2"],
             check_value(value_of(lambda: gv.variation_bruteforce(grid, VariationParams(k=2, p=2.0))))),
        task("cli var brute k2 osc_k",
             ["var", str(grid_path), "--k", "2", "--p", "1", "--weight", "osc_k"],
             check_value(value_of(lambda: gv.variation_bruteforce(
                 grid, VariationParams(k=2, p=1.0, weight="osc_k"))))),
        task("cli var dyadic k1", ["var", str(grid_path), "--method", "dyadic"],
             check_value(value_of(lambda: gv.variation_dyadic(grid, VariationParams(k=1, p=1.0))))),
        task("cli var local k1", ["var", str(grid_path), "--method", "local", "--budget", "20"],
             check_value(value_of(lambda: gv.variation_local_search(
                 grid, VariationParams(k=1, p=1.0), budget=20)))),
        task("cli approx k2", ["approx", str(grid_path), "--k", "2"],
             check_value(value_of(lambda: gv.best_minimax_poly(grid, grid.whole_cube(), 2)))),
        task("cli approx k3", ["approx", str(grid_path), "--k", "3"],
             check_value(value_of(lambda: gv.best_minimax_poly(grid, grid.whole_cube(), 3)))),
        task("cli osc k2", ["osc", str(grid_path), "--k", "2"],
             check_value(lambda: gv.osc_k(grid, None, 2))),
        task("cli classical vitali", ["classical", str(grid_path), "--notion", "vitali"],
             check_value(value_of(lambda: gv.vitali_variation(grid)))),
        task("cli classical hardy-krause",
             ["classical", str(grid_path), "--notion", "hardy-krause"],
             check_value(lambda: gv.hardy_krause_variation(grid))),
        task("cli classical tonelli", ["classical", str(grid_path), "--notion", "tonelli"],
             check_value(lambda: gv.tonelli_variation(grid))),
        task("cli suite two invariants",
             ["suite", "--invariants", ",".join(CLI_SUITE_INVARIANTS), "--seeds", "1",
              "--base-seed", str(suite_seed), "--no-timing"],
             check_cli_suite),
    ]


def _warm_suite() -> None:
    gv.run_suite(SuiteConfig(invariants=("differences.linearity",), seeds=1, base_seed=0))


# ---------------------------------------------------------------------------


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload with inputs from `seed`; `workdir` is scratch space
    inside the checkout for the CLI's files."""
    if name == "exact":
        tasks = _exact_tasks(seed)
        return Workload("exact", 2, lambda i: tasks, _warm_exact)
    if name == "minimax":
        tasks = _minimax_tasks(seed)
        return Workload("minimax", 2, lambda i: tasks, _warm_minimax)
    if name == "large-grid":
        tasks = _large_grid_tasks(seed)
        return Workload("large-grid", 2, lambda i: tasks, _warm_large_grid)
    if name == "suite":
        return Workload("suite", 3, _suite_tasks_factory(seed, workdir), _warm_suite)
    raise KeyError(name)


WORKLOADS = ("exact", "minimax", "large-grid", "suite")
