"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports gridvar: every value the checks compare against is
computed from the raw grid values by separate code. Minimax errors come from
scipy's HiGHS linear-programming solver (scipy is not a gridvar dependency,
so it is imported lazily, after the timed part of a run), oscillations from a
direct binomial sum, and exact packing optima from a memoized search over the
reachable cell-cover states.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# Relative tolerance for comparing a gridvar value with a reference value
# computed by another route (HiGHS solves to about 1e-9 on normalized data).
REL_TOL = 1e-7


def close(value: float, ref: float, scale: float, tol: float = REL_TOL) -> bool:
    """|value - ref| within `tol` times the larger of `scale` and |ref|."""
    return abs(value - ref) <= tol * max(scale, abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# cubes and cells


def cube_values(values: np.ndarray, origin, side: int) -> np.ndarray:
    return values[tuple(slice(o, o + side + 1) for o in origin)]


def cube_cells(origin, side: int) -> set[tuple[int, ...]]:
    """Unit cells [c, c+1)^d covered by the half-open cube [origin, origin+side)."""
    return set(itertools.product(*(range(o, o + side) for o in origin)))


def disjoint(boxes) -> bool:
    """True iff the cell sets of the given (origin, side) cubes never meet."""
    seen: set[tuple[int, ...]] = set()
    for origin, side in boxes:
        cells = cube_cells(origin, side)
        if seen & cells:
            return False
        seen |= cells
    return True


def all_cubes(d: int, n: int):
    """Every (origin, side) lattice cube of the grid {0..n-1}^d."""
    out = []
    for side in range(1, n):
        for origin in itertools.product(range(n - side), repeat=d):
            out.append((origin, side))
    return out


# ---------------------------------------------------------------------------
# weights


def _monomial_matrix(shape: tuple[int, ...], k: int) -> np.ndarray:
    """Monomials of total degree <= k-1 at the points of a cube, in [-1, 1]^d."""
    d = len(shape)
    side = shape[0] - 1
    pts = np.indices(shape).reshape(d, -1).T.astype(float)
    z = 2.0 * pts / side - 1.0 if side > 0 else pts
    cols = [
        np.prod(z ** np.asarray(alpha), axis=1)
        for alpha in itertools.product(range(k), repeat=d)
        if sum(alpha) <= k - 1
    ]
    return np.column_stack(cols)


def minimax_error(vals: np.ndarray, k: int) -> float:
    """min over polynomials m of degree <= k-1 of max |vals - m|, by HiGHS."""
    if k == 1:
        return float(np.max(vals) - np.min(vals)) / 2.0
    from scipy.optimize import linprog

    f = np.asarray(vals, dtype=float).ravel()
    scale = float(np.max(np.abs(f)))
    if scale == 0.0:
        return 0.0
    f = f / scale
    phi = _monomial_matrix(vals.shape, k)
    npts, ncoef = phi.shape
    if ncoef >= npts:
        return 0.0
    # variables [coefficients (free), t >= 0]: minimize t, -t <= f - phi c <= t
    ones = np.ones((npts, 1))
    a_ub = np.vstack([np.hstack([-phi, -ones]), np.hstack([phi, -ones])])
    b_ub = np.concatenate([-f, f])
    cost = np.zeros(ncoef + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * ncoef + [(0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1]) * scale


def oscillation(vals: np.ndarray, k: int) -> float:
    """max |k-th difference| over all step vectors h with k|h_i| <= side.

    Each difference is the binomial sum sum_j (-1)^(k-j) C(k,j) f(x + j h),
    evaluated for all admissible base points x at once.
    """
    if k == 1:
        return float(np.max(vals) - np.min(vals))
    d = vals.ndim
    side = vals.shape[0] - 1
    reach = side // k
    best = 0.0
    for h in itertools.product(range(-reach, reach + 1), repeat=d):
        if next((v for v in h if v != 0), 0) <= 0:
            continue
        lo = [max(0, -k * hi) for hi in h]
        hi_ = [side - max(0, k * hi) for hi in h]
        total = 0.0
        for j in range(k + 1):
            sl = tuple(slice(l + j * s, u + j * s + 1) for l, u, s in zip(lo, hi_, h))
            total = total + (-1.0) ** (k - j) * math.comb(k, j) * vals[sl]
        best = max(best, float(np.max(np.abs(total))))
    return best


def weight(vals: np.ndarray, k: int, kind: str) -> float:
    return oscillation(vals, k) if kind == "osc_k" else minimax_error(vals, k)


def cube_weights(values: np.ndarray, k: int, kind: str, cubes) -> dict:
    return {c: weight(cube_values(values, *c), k, kind) for c in cubes}


# ---------------------------------------------------------------------------
# polynomials returned by gridvar


def evaluate_terms(center, scale: float, terms, coords: np.ndarray) -> np.ndarray:
    """sum over terms of c_a ((x - center)/scale)^a, at coords of shape (m, d)."""
    z = (coords - np.asarray(center, dtype=float)) / scale
    out = np.zeros(len(z))
    for alpha, coef in terms:
        out += coef * np.prod(z ** np.asarray(alpha), axis=1)
    return out


def alternation_bracket(err: np.ndarray, k: int) -> tuple[float, float]:
    """de la Vallee Poussin bracket [L, U] for a 1-d best-approximation error.

    U is max |err|. L is the largest level t such that k+1 points, in order,
    carry errors of alternating sign with |err| >= t; any degree <= k-1
    polynomial then has uniform error >= L, so the true E_k lies in [L, U].
    """
    mags = np.abs(err)
    upper = float(mags.max())

    def alternations(level: float) -> int:
        count, last = 0, 0.0
        for e in err:
            if abs(e) >= level and e != 0.0 and np.sign(e) != last:
                count += 1
                last = np.sign(e)
        return count

    levels = np.unique(mags[mags > 0.0])
    lo, hi, best = 0, len(levels) - 1, 0.0
    while lo <= hi:
        mid = (lo + hi) // 2
        if alternations(levels[mid]) >= k + 1:
            best = float(levels[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    return best, upper


# ---------------------------------------------------------------------------
# exact packings


def max_packing(ncells: int, items) -> float:
    """Maximum total weight of pairwise disjoint items.

    `items` is a list of (cell bitmask, weight). Memoized over the covered
    mask, branching on the lowest uncovered cell: cover it with an item
    anchored there, or leave it empty. Only reachable masks are stored.
    """
    full = (1 << ncells) - 1
    anchored: list[list[tuple[int, float]]] = [[] for _ in range(ncells)]
    for mask, w in items:
        anchored[(mask & -mask).bit_length() - 1].append((mask, w))

    @lru_cache(maxsize=None)
    def best(mask: int) -> float:
        if mask == full:
            return 0.0
        free = ~mask & full
        cell = (free & -free).bit_length() - 1
        out = best(mask | (1 << cell))
        for item, w in anchored[cell]:
            if item & mask == 0:
                out = max(out, w + best(mask | item))
        return out

    return best(0)


def max_packing_budget(ncells: int, items, budget: int) -> float:
    """As max_packing, over items (mask, weight, cell count) using <= budget cells."""
    full = (1 << ncells) - 1
    anchored: list[list[tuple[int, float, int]]] = [[] for _ in range(ncells)]
    for mask, w, size in items:
        anchored[(mask & -mask).bit_length() - 1].append((mask, w, size))

    @lru_cache(maxsize=None)
    def best(mask: int, left: int) -> float:
        if mask == full:
            return 0.0
        free = ~mask & full
        cell = (free & -free).bit_length() - 1
        out = best(mask | (1 << cell), left)
        for item, w, size in anchored[cell]:
            if size <= left and item & mask == 0:
                out = max(out, w + best(mask | item, left - size))
        return out

    return best(0, budget)


def cell_mask(lower, upper, n: int) -> int:
    """Bitmask of the unit cells of the box [lower, upper), row-major."""
    mask = 0
    for cell in itertools.product(*(range(lo, hi) for lo, hi in zip(lower, upper))):
        idx = 0
        for c in cell:
            idx = idx * (n - 1) + c
        mask |= 1 << idx
    return mask


def exact_variation(values: np.ndarray, k: int, p: float, kind: str,
                    keep=lambda origin, side: True) -> tuple[float, dict]:
    """Exact (k,p)-variation over packings of cubes passing `keep`, and the weights."""
    d, n = values.ndim, values.shape[0]
    cubes = [c for c in all_cubes(d, n) if keep(*c)]
    weights = cube_weights(values, k, kind, cubes)
    items = [(cell_mask(o, tuple(i + s for i in o), n), weights[(o, s)] ** p) for o, s in cubes]
    return max_packing((n - 1) ** d, items) ** (1.0 / p), weights


def exact_ac_modulus(values: np.ndarray, k: int, p: float, kind: str,
                     volume_cap: float) -> float:
    d, n = values.ndim, values.shape[0]
    ncells = (n - 1) ** d
    budget = int(math.floor(volume_cap * ncells + 1e-9))
    cubes = all_cubes(d, n)
    weights = cube_weights(values, k, kind, cubes)
    items = [(cell_mask(o, tuple(i + s for i in o), n), weights[(o, s)] ** p, s ** d)
             for o, s in cubes]
    return max_packing_budget(ncells, items, budget) ** (1.0 / p)


def vitali_deviation(values: np.ndarray, lower, upper) -> float:
    d = values.ndim
    terms = []
    for picks in itertools.product((0, 1), repeat=d):
        point = tuple(hi if j else lo for j, lo, hi in zip(picks, lower, upper))
        terms.append((-1.0) ** (d - sum(picks)) * values[point])
    return math.fsum(terms)


def exact_vitali(values: np.ndarray) -> float:
    """max of sum |deviation| over interior-disjoint nondegenerate boxes."""
    d, n = values.ndim, values.shape[0]
    if d == 1:
        return float(np.sum(np.abs(np.diff(values))))
    items = []
    pairs = list(itertools.combinations(range(n), 2))
    for per_axis in itertools.product(pairs, repeat=d):
        lower = tuple(lo for lo, _ in per_axis)
        upper = tuple(hi for _, hi in per_axis)
        items.append((cell_mask(lower, upper, n), abs(vitali_deviation(values, lower, upper))))
    return max_packing((n - 1) ** d, items)


def hardy_krause(values: np.ndarray) -> float:
    """Sum of the Vitali variations of all partial functions anchored at the
    all-ones corner."""
    d, n = values.ndim, values.shape[0]
    total = []
    for size in range(1, d + 1):
        for axes in itertools.combinations(range(d), size):
            index = tuple(slice(None) if a in axes else n - 1 for a in range(d))
            total.append(exact_vitali(values[index]))
    return math.fsum(total)


# ---------------------------------------------------------------------------
# scalable lower bounds


def dyadic_variation(values: np.ndarray, k: int, p: float, kind: str) -> tuple[float, list]:
    """Best packing from the dyadic cube tree: keep a cube when its weight^p
    is at least the best total of its 2^d children."""
    d, n = values.ndim, values.shape[0]

    def rec(origin, side):
        wp = weight(cube_values(values, origin, side), k, kind) ** p
        total, chosen = 0.0, []
        if side > 1:
            half = side // 2
            parts = [rec(tuple(o + b * half for o, b in zip(origin, bits)), half)
                     for bits in itertools.product((0, 1), repeat=d)]
            total = math.fsum(v for v, _ in parts)
            chosen = [c for _, cs in parts for c in cs]
        if wp >= total:
            return (wp, [(origin, side)]) if wp > 0.0 else (0.0, [])
        return total, chosen

    total, chosen = rec((0,) * d, n - 1)
    return total ** (1.0 / p), chosen


def holder_seminorm(values: np.ndarray, k: int, p: float) -> float:
    """max over cubes of osc_k / (side/(n-1))^(d/p).

    Computes |k-th difference| once on the whole grid for every step h and
    takes, per cube, the maximum over the base points that keep all k+1
    nodes inside the cube.
    """
    d, n = values.ndim, values.shape[0]
    s = d / p
    side_max = n - 1
    reach = side_max // k
    diffs = {}
    for h in itertools.product(range(-reach, reach + 1), repeat=d):
        if next((v for v in h if v != 0), 0) <= 0:
            continue
        lo = [max(0, -k * hi) for hi in h]
        up = [side_max - max(0, k * hi) for hi in h]
        total = 0.0
        for j in range(k + 1):
            sl = tuple(slice(l + j * t, u + j * t + 1) for l, u, t in zip(lo, up, h))
            total = total + (-1.0) ** (k - j) * math.comb(k, j) * values[sl]
        diffs[h] = (lo, np.abs(total))
    best = 0.0
    for origin, side in all_cubes(d, n):
        osc = 0.0
        if k == 1:
            sub = cube_values(values, origin, side)
            osc = float(np.max(sub) - np.min(sub))
        else:
            for h, (lo, arr) in diffs.items():
                if any(k * abs(t) > side for t in h):
                    continue
                # base points x with x and x + k h inside the cube, in arr's frame
                sl = tuple(
                    slice(o + max(0, -k * t) - l, o + side - max(0, k * t) - l + 1)
                    for o, t, l in zip(origin, h, lo)
                )
                osc = max(osc, float(np.max(arr[sl])))
        best = max(best, osc / (side / (n - 1)) ** s)
    return best
