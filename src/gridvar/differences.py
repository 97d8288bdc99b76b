"""Finite differences and k-th order oscillations of grid functions.

The k-th difference with step vector h is
    sum_{j=0}^{k} (-1)^(k-j) C(k,j) f(x + j h),
and the k-th oscillation of f over a cube is the maximum of its absolute
value over all lattice points x and all integer step vectors h (diagonal
steps included) keeping every x + j h inside the cube. Suprema over empty
step sets are 0.

All oscillation variants share one shift-subtract kernel, so the directional
oscillation equals the mixed oscillation with a concentrated exponent
bit-for-bit, and both scan a subset of the candidates of the isotropic one.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import GridvarError
from .grid import GridFunction, LatticeCube, check_cube_in_grid

def as_step_vector(h: Sequence[int], d: int, allow_zero: bool = True) -> tuple[int, ...]:
    """Validate an integer step vector: d entries; h = 0 yields the zero
    difference, so it is allowed unless the caller is taking a supremum."""
    vec = tuple(int(i) for i in h)
    if len(vec) != d:
        raise GridvarError(f"step vector has {len(vec)} entries, expected {d}")
    if not allow_zero and all(v == 0 for v in vec):
        raise GridvarError("step vector must not be zero")
    return vec


def as_multi_index(alpha: Sequence[int], d: int) -> tuple[int, ...]:
    """Validate a multi-index: d nonnegative entries, positive order."""
    idx = tuple(int(a) for a in alpha)
    if len(idx) != d:
        raise GridvarError(f"multi-index has {len(idx)} entries, expected {d}")
    if any(a < 0 for a in idx):
        raise GridvarError(f"multi-index entries must be >= 0, got {idx}")
    if sum(idx) == 0:
        raise GridvarError("multi-index must have positive order")
    return idx


def finite_difference(f: GridFunction, x: Sequence[int], h: Sequence[int], k: int) -> float:
    """k-th difference of f at lattice point x with integer step vector h.

    Uses compensated summation; the binomial weights alternate in sign and
    the terms can nearly cancel for smooth data.
    """
    if k < 1:
        raise GridvarError(f"difference order must be >= 1, got {k}")
    base = tuple(int(i) for i in x)
    step = as_step_vector(h, f.d)
    terms = []
    for j in range(k + 1):
        point = tuple(b + j * s for b, s in zip(base, step))
        if any(i < 0 or i > f.n - 1 for i in point):
            raise GridvarError(f"point {point} leaves the grid (x={base}, h={step}, j={j})")
        terms.append((-1.0) ** (k - j) * math.comb(k, j) * f.value_at(point))
    return math.fsum(terms)


def _shift_diff(values: np.ndarray, h: Sequence[int]) -> np.ndarray:
    """values(. + h) - values(.) on the largest index box where both exist."""
    base = []
    shifted = []
    for hi, m in zip(h, values.shape):
        base.append(slice(max(0, -hi), m - max(0, hi)))
        shifted.append(slice(max(0, -hi) + hi, m - max(0, hi) + hi))
    return values[tuple(shifted)] - values[tuple(base)]


def _max_abs_kth_diff(sub: np.ndarray, h: tuple[int, ...], k: int) -> float:
    v = sub
    for _ in range(k):
        v = _shift_diff(v, h)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _resolve_cube(f: GridFunction, cube: LatticeCube | None) -> LatticeCube:
    if cube is None:
        return f.whole_cube()
    check_cube_in_grid(cube, f)
    return cube


def osc_k(f: GridFunction, cube: LatticeCube | None, k: int) -> float:
    """k-th oscillation over the cube: max |k-th difference|, all directions.

    Step vectors run over all nonzero integer vectors with k|h_i| <= side;
    h and -h give the same candidate set, so only one of each pair is
    scanned. k=1 shortcuts to max - min, which is the same supremum.
    """
    if k < 1:
        raise GridvarError(f"oscillation order must be >= 1, got {k}")
    cube = _resolve_cube(f, cube)
    sub = f.restrict(cube)
    if k == 1:
        return float(np.max(sub) - np.min(sub))
    reach = cube.side // k
    if reach == 0:
        return 0.0
    best = 0.0
    span = range(-reach, reach + 1)
    for h in itertools.product(*([span] * f.d)):
        first = next((v for v in h if v != 0), 0)
        if first <= 0:  # skip zero and one of each {h, -h} pair
            continue
        best = max(best, _max_abs_kth_diff(sub, h, k))
    return best


def osc_directional(f: GridFunction, cube: LatticeCube | None, k: int, axis: int) -> float:
    """k-th oscillation restricted to steps along one coordinate axis."""
    if k < 1:
        raise GridvarError(f"oscillation order must be >= 1, got {k}")
    if not 0 <= axis < f.d:
        raise GridvarError(f"axis {axis} out of range for d={f.d}")
    return osc_mixed(f, cube, tuple(k if i == axis else 0 for i in range(f.d)))


def osc_mixed(f: GridFunction, cube: LatticeCube | None, alpha: Sequence[int]) -> float:
    """Mixed oscillation: per-axis differences of orders alpha_i composed.

    Axis i contributes an alpha_i-th difference with its own positive step;
    axes with alpha_i = 0 are untouched. With alpha concentrated on one axis
    (alpha = k e_i) this is exactly the directional oscillation.
    """
    cube = _resolve_cube(f, cube)
    alpha = as_multi_index(alpha, f.d)
    sub = f.restrict(cube)
    axes = [i for i, a in enumerate(alpha) if a > 0]
    ranges = []
    for i in axes:
        reach = cube.side // alpha[i]
        if reach == 0:
            return 0.0
        ranges.append(range(1, reach + 1))
    best = 0.0
    for steps in itertools.product(*ranges):
        v = sub
        for i, t in zip(axes, steps):
            h = tuple(t if j == i else 0 for j in range(f.d))
            for _ in range(alpha[i]):
                v = _shift_diff(v, h)
        if v.size:
            best = max(best, float(np.max(np.abs(v))))
    return best


# Invariants this module promises; the property suite registers them all
# (its completeness check fails if one is missing there).
INVARIANT_IDS = (
    "differences.linearity",
    "differences.osc-null-space",
    "differences.osc-cube-monotone",
    "differences.mixed-matches-directional",
    "differences.osc-shift-invariance",
)
