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
osc_tables gives osc_k of every cube of a grid at once, from the same
kernel run on the whole grid and window maxima (the weight table of the
variation optimizers); osc_k stays the per-cube reference. A k-th
difference (k >= 2) that overflows float64 raises GridvarError in all of
them, the directional and mixed oscillations included.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

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


def _kth_diff(values: np.ndarray, h: Sequence[int], k: int) -> np.ndarray:
    for _ in range(k):
        values = _shift_diff(values, h)
    return values


def _overflow_message(k: int) -> str:
    return f"a difference of order {k} overflows float64; rescale f"


def _max_abs_kth_diff(sub: np.ndarray, h: tuple[int, ...], k: int) -> float:
    """max |k-th difference|; raises if one overflowed (an inf, or inf - inf,
    in the shift-subtract chain leaves its true value unknown)."""
    v = _kth_diff(sub, h, k)
    best = float(np.max(np.abs(v))) if v.size else 0.0
    if not math.isfinite(best):
        raise GridvarError(_overflow_message(k))
    return best


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


def _shifted_op(values: np.ndarray, axis: int, shift: int, size: int,
                op=np.maximum) -> np.ndarray:
    """op(values[i], values[i + shift]) along the axis, for i < size."""
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, size)
    hi[axis] = slice(shift, shift + size)
    return op(values[tuple(lo)], values[tuple(hi)])


def _corner_reduce(table: np.ndarray, shift: int, op=np.maximum) -> np.ndarray:
    """Per origin o, op (max or min) of table over the 2^d corners
    o + shift*b with b in {0,1}^d, taken one axis at a time."""
    for axis in range(table.ndim):
        table = _shifted_op(table, axis, shift, table.shape[axis] - shift, op)
    return table


def _window_max(values: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Per index i along the axis, the max of values[i : i + width], from
    maxima over power-of-two spans (a sparse table)."""
    out = values.shape[axis] - width + 1
    span = 1
    while 2 * span <= width:
        values = _shifted_op(values, axis, span, values.shape[axis] - span)
        span *= 2
    return _shifted_op(values, axis, width - span, out)


def osc_tables(f: GridFunction, k: int,
               sides: Iterable[int] | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """osc_k of every cube of each side at once, equal to osc_k bit for bit.

    Yields (s, table) in ascending s for the given sides (every side
    1..n-1 when None); table has shape (n - s,)^d and table[o] is
    osc_k(f, LatticeCube(o, s), k). A side-s cube's lattice points are the
    union of those of its 2^d corner cubes of any side t with s <= 2t + 1,
    so for k = 1 the running max and min grow from side to side by corner
    maxima (at most doubling the side). For k >= 2 a stencil x, x+h, ..,
    x+kh fits a side-(s-1) corner cube unless k max|h_i| = s, so table s is
    the corner max of table s-1 plus, when k divides s, the window maxima
    of |k-th difference| over the whole grid for each new step h, of width
    s - k|h_i| + 1 on axis i. Raises GridvarError, as osc_k does, when a
    k-th difference (k >= 2) in a cube of a side up to the largest one
    asked for overflows. Live memory is the retained tables plus one.
    """
    if k < 1:
        raise GridvarError(f"oscillation order must be >= 1, got {k}")
    wanted = sorted(set(range(1, f.n) if sides is None else sides))
    if wanted and not 1 <= wanted[0] <= wanted[-1] <= f.n - 1:
        raise GridvarError(f"cube sides must lie in 1..{f.n - 1}, got {wanted}")
    if k == 1:
        return _range_tables(f.values, wanted)
    return _difference_tables(f.values, k, wanted)


def _range_tables(values: np.ndarray, wanted: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """max - min over every cube of each wanted side."""
    hi = lo = values
    t = 0
    for s in wanted:
        while t < s:
            step = min(s, 2 * t + 1) - t
            hi, lo = _corner_reduce(hi, step), _corner_reduce(lo, step, np.minimum)
            t += step
        yield s, hi - lo


def _difference_tables(values: np.ndarray, k: int,
                       wanted: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """max |k-th difference| over every cube of each wanted side."""
    # steps by reach max|h_i| and then by |h|, one of each {h, -h} pair; steps
    # of one |h| share their windows, and merging them first is exact because
    # any inf or NaN raises
    reach = wanted[-1] // k if wanted else 0
    steps: dict[int, dict[tuple[int, ...], list[tuple[int, ...]]]] = {}
    for h in itertools.product(range(-reach, reach + 1), repeat=values.ndim):
        if next((v for v in h if v != 0), 0) > 0:
            size = tuple(abs(v) for v in h)
            steps.setdefault(max(size), {}).setdefault(size, []).append(h)
    table = np.zeros(values.shape)
    t = 0
    for s in wanted:
        while t < s:
            t += 1
            table = _corner_reduce(table, 1)
            if t % k:
                continue  # no step is new at this side
            for size, group in steps[t // k].items():
                diff = np.maximum.reduce([np.abs(_kth_diff(values, h, k)) for h in group])
                for axis, a in enumerate(size):
                    if k * a < t:
                        diff = _window_max(diff, axis, t - k * a + 1)
                table = np.maximum(table, diff)
        if not np.all(np.isfinite(table)):
            raise GridvarError(_overflow_message(k))
        yield s, table


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
    (alpha = k e_i) this is exactly the directional oscillation. Raises
    GridvarError, as osc_k does, when a difference of order |alpha| >= 2
    overflows.
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
    order = sum(alpha)
    best = 0.0
    for steps in itertools.product(*ranges):
        v = sub
        for i, t in zip(axes, steps):
            h = tuple(t if j == i else 0 for j in range(f.d))
            for _ in range(alpha[i]):
                v = _shift_diff(v, h)
        if v.size:
            top = float(np.max(np.abs(v)))
            if order >= 2 and not math.isfinite(top):
                raise GridvarError(_overflow_message(order))
            best = max(best, top)
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
