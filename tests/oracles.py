"""Independent slow-route oracles the tests cross-check the library against.

Everything here recomputes results from definitions with its own loops:
binomial-sum differences, DFS packing enumeration with its own overlap test,
alternating corner sums. Nothing shares kernels with the implementations
under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gridvar.grid import GridFunction, LatticeCube, LatticeInterval


def kth_difference(f: GridFunction, x, h, k: int) -> float:
    """Binomial-sum k-th difference at x with step h."""
    total = []
    for j in range(k + 1):
        pt = tuple(x[i] + j * h[i] for i in range(f.d))
        total.append((-1.0) ** (k - j) * math.comb(k, j) * float(f.values[pt]))
    return math.fsum(total)


def osc_oracle(f: GridFunction, cube: LatticeCube | None, k: int) -> float:
    """Max |k-th difference| by scanning every admissible (x, h) pair."""
    if cube is None:
        cube = f.whole_cube()
    lo, hi = cube.origin, cube.upper
    reach = cube.side // k
    best = 0.0
    for h in itertools.product(range(-reach, reach + 1), repeat=f.d):
        if all(v == 0 for v in h):
            continue
        axis_ranges = []
        for i in range(f.d):
            a = max(lo[i], lo[i] - k * h[i])
            b = min(hi[i], hi[i] - k * h[i])
            axis_ranges.append(range(a, b + 1))
        for x in itertools.product(*axis_ranges):
            best = max(best, abs(kth_difference(f, x, h, k)))
    return best


def all_cubes(d: int, n: int, min_side: int = 1) -> list[LatticeCube]:
    out = []
    for side in range(min_side, n):
        for origin in itertools.product(range(n - side), repeat=d):
            out.append(LatticeCube(origin, side))
    return out


def overlap(a: LatticeCube, b: LatticeCube) -> bool:
    """Half-open index boxes intersect iff they overlap on every axis."""
    return all(
        max(a.origin[i], b.origin[i]) < min(a.origin[i] + a.side, b.origin[i] + b.side)
        for i in range(a.d)
    )


def all_packings(cubes: list[LatticeCube]):
    """Every family of pairwise non-overlapping cubes (including empty)."""

    def rec(start: int, chosen: list[LatticeCube]):
        yield tuple(chosen)
        for i in range(start, len(cubes)):
            if all(not overlap(cubes[i], c) for c in chosen):
                chosen.append(cubes[i])
                yield from rec(i + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def variation_oracle(f: GridFunction, k: int, p: float, weight_fn,
                     cube_filter=None) -> tuple[float, tuple[LatticeCube, ...]]:
    """Exhaustive max of (sum w(Q)^p)^(1/p) over packings, weights supplied
    by the caller; the lexicographically smallest optimizer wins ties.

    Mirrors the library's arithmetic bit for bit so optimizers can be
    compared exactly: zero-weight cubes are dropped (the library never
    reports them), each packing's total is the right-nested sum of w**p
    over cubes sorted by (origin, side), and ties are broken by exact float
    equality with shorter prefixes winning.
    """
    cubes = all_cubes(f.d, f.n)
    if cube_filter is not None:
        cubes = [c for c in cubes if cube_filter(c)]
    weights = {c: weight_fn(c) for c in cubes}
    cubes = [c for c in cubes if weights[c] > 0.0]
    best, best_key, best_packing = 0.0, None, ()
    for packing in all_packings(cubes):
        ordered = tuple(sorted(packing, key=lambda c: (c.origin, c.side)))
        total = 0.0
        for c in reversed(ordered):
            total = weights[c] ** p + total
        key = tuple((c.origin, c.side) for c in ordered)
        if total > best or (total == best and (best_key is None or key < best_key)):
            best, best_key, best_packing = total, key, ordered
    return (best ** (1.0 / p) if best > 0.0 else 0.0), best_packing


def interval_variation_oracle(n: int, p: float, weight_fn) -> float:
    """Exact 1-d variation by an O(n^2) dynamic program over [0, n-1].

    best[j] is the max of sum w(i, l)^p over packings of intervals [i, l]
    inside [0, j]: either step j-1..j is left uncovered, or the last
    interval [i, j] is added to the best packing inside [0, i]. Weights of
    the interval [i, j] come from the caller as weight_fn(i, j).
    """
    best = [0.0] * n
    for j in range(1, n):
        best[j] = best[j - 1]
        for i in range(j):
            best[j] = max(best[j], best[i] + weight_fn(i, j) ** p)
    return best[-1] ** (1.0 / p)


def corner_sum(f: GridFunction, interval: LatticeInterval) -> float:
    """Alternating sum of f over the corners of a d-interval."""
    total = []
    for picks in itertools.product((0, 1), repeat=f.d):
        corner = tuple(
            interval.upper[i] if take else interval.lower[i]
            for i, take in enumerate(picks)
        )
        sign = (-1.0) ** (f.d - sum(picks))
        total.append(sign * float(f.values[corner]))
    return math.fsum(total)


def all_boxes(d: int, n: int) -> list[LatticeInterval]:
    """Every fully nondegenerate d-interval on the lattice."""
    per_axis = [
        [(a, b) for a in range(n) for b in range(a + 1, n)]
    ] * d
    out = []
    for combo in itertools.product(*per_axis):
        out.append(LatticeInterval(tuple(c[0] for c in combo), tuple(c[1] for c in combo)))
    return out


def boxes_overlap(a: LatticeInterval, b: LatticeInterval) -> bool:
    return all(
        max(a.lower[i], b.lower[i]) < min(a.upper[i], b.upper[i])
        for i in range(len(a.lower))
    )


def vitali_oracle(f: GridFunction) -> float:
    """Exhaustive max of sum |corner alternating sum| over disjoint boxes."""
    boxes = all_boxes(f.d, f.n)
    deviations = {b: abs(corner_sum(f, b)) for b in boxes}
    best = 0.0

    def rec(start: int, chosen: list[LatticeInterval], value: float):
        nonlocal best
        best = max(best, value)
        for i in range(start, len(boxes)):
            if all(not boxes_overlap(boxes[i], c) for c in chosen):
                chosen.append(boxes[i])
                rec(i + 1, chosen, value + deviations[boxes[i]])
                chosen.pop()

    rec(0, [], 0.0)
    return best


def lp_reference(c, A, b):
    """Brute-force vertex enumeration for tiny LPs: min c.x, A x = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    best, best_x = math.inf, None
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basic = np.linalg.solve(sub, b)
        if np.any(x_basic < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        val = float(c @ x)
        if val < best - 1e-12:
            best, best_x = val, x
    return best, best_x


def alternation_bracket(err, k: int) -> tuple[float, float]:
    """de la Vallee Poussin bracket [L, U] on the best 1-d error of degree < k.

    `err` holds f - p at ordered points for some polynomial p of degree
    <= k-1. U = max |err|. L is the largest t such that k+1 ordered points
    carry errors of alternating sign, each of size >= t: every polynomial of
    degree <= k-1 then errs by at least t on them, so L <= E_k(f) <= U.
    """
    err = [float(e) for e in err]
    upper = max(abs(e) for e in err)
    lower = 0.0
    for level in sorted({abs(e) for e in err if e != 0.0}):
        count, last = 0, 0.0
        for e in err:  # the greedy count is the longest alternating run
            if abs(e) >= level and math.copysign(1.0, e) != last:
                count, last = count + 1, math.copysign(1.0, e)
        if count >= k + 1:
            lower = level
    return lower, upper
