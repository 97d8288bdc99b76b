"""Grid-sampled functions on [0,1]^d and the lattice geometry they live on.

A grid function is a real array indexed by {0,...,n-1}^d; index i maps to the
point i/(n-1) of the unit cube. Cubes and d-intervals are axis-aligned lattice
boxes. A packing is a finite set of cubes whose half-open index boxes
[origin, origin + side) are pairwise disjoint, so cubes may share faces but
not interiors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GridvarError, GuardError

# Exhaustive enumeration over packings (and the exact packing dynamic program,
# which visits only the cell covers reachable from the empty one) is only
# allowed on grids with at most this many unit cells, unless the caller passes
# allow_large=True. The guard counts cells, not the states the program visits.
ENUMERATION_CELL_LIMIT = 16


@dataclass(frozen=True, order=True, slots=True)
class LatticeCube:
    """Axis-aligned lattice cube: all axes share one side length (in steps).

    Ordering is lexicographic on (origin, side), which is the canonical
    enumeration and tie-breaking order everywhere in this package.
    """

    origin: tuple[int, ...]
    side: int

    def __post_init__(self) -> None:
        origin = tuple(int(i) for i in self.origin)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "side", int(self.side))
        if len(origin) < 1:
            raise GridvarError("cube needs at least one axis")
        if self.side < 1:
            raise GridvarError(f"cube side must be >= 1, got {self.side}")
        if any(i < 0 for i in origin):
            raise GridvarError(f"cube origin must be nonnegative, got {origin}")

    @property
    def d(self) -> int:
        return len(self.origin)

    @property
    def upper(self) -> tuple[int, ...]:
        return tuple(i + self.side for i in self.origin)

    def lattice_points(self) -> Iterator[tuple[int, ...]]:
        """All lattice index points of the closed cube, row-major."""
        return itertools.product(*(range(i, i + self.side + 1) for i in self.origin))

    def point_count(self) -> int:
        return (self.side + 1) ** self.d

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(o <= i <= o + self.side for o, i in zip(self.origin, point))

    def volume(self, n: int) -> float:
        """d-dimensional volume under the embedding index -> index/(n-1)."""
        return float((self.side / (n - 1)) ** self.d)


@dataclass(frozen=True, order=True)
class LatticeInterval:
    """Axis-aligned lattice box [lower, upper]; sides may differ per axis.

    At least one axis must be strictly increasing. Axes with upper == lower
    are degenerate; operations that forbid them say so.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        lower = tuple(int(i) for i in self.lower)
        upper = tuple(int(i) for i in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper) or not lower:
            raise GridvarError("interval corners must share a positive dimension")
        if any(lo < 0 or hi < lo for lo, hi in zip(lower, upper)):
            raise GridvarError(f"interval must satisfy 0 <= lower <= upper, got {lower}, {upper}")
        if all(hi == lo for lo, hi in zip(lower, upper)):
            raise GridvarError("interval is degenerate on every axis")

    @property
    def d(self) -> int:
        return len(self.lower)


class GridFunction:
    """Real values sampled on the uniform lattice {0,...,n-1}^d of [0,1]^d."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray | Sequence) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim < 1:
            raise GridvarError("grid function needs at least one axis")
        n = arr.shape[0]
        if n < 2:
            raise GridvarError(f"grid needs at least 2 points per axis, got {n}")
        if any(s != n for s in arr.shape):
            raise GridvarError(f"grid must have equal extent per axis, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise GridvarError("grid values must be finite (no NaN or infinity)")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def value_at(self, point: Sequence[int]) -> float:
        return float(self.values[tuple(int(i) for i in point)])

    def restrict(self, cube: LatticeCube) -> np.ndarray:
        """Values on the cube's lattice points, as a (side+1)^d array."""
        check_cube_in_grid(cube, self)
        sl = tuple(slice(o, o + cube.side + 1) for o in cube.origin)
        return self.values[sl]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def whole_cube(self) -> LatticeCube:
        return LatticeCube((0,) * self.d, self.n - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GridFunction(d={self.d}, n={self.n})"


def make_grid_function(values: Sequence, d: int | None = None, n: int | None = None) -> GridFunction:
    """Build a GridFunction from nested or flat row-major values.

    If `values` is flat, `d` and `n` fix the shape; otherwise the nested
    shape is used and `d`/`n` merely cross-checked.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1 and d is not None and d > 1:
        if n is None:
            raise GridvarError("flat values need n to determine the shape")
        if arr.size != n**d:
            raise GridvarError(f"expected {n**d} values for d={d}, n={n}, got {arr.size}")
        arr = arr.reshape((n,) * d)
    gf = GridFunction(arr)
    if d is not None and gf.d != d:
        raise GridvarError(f"values have dimension {gf.d}, expected {d}")
    if n is not None and gf.n != n:
        raise GridvarError(f"values have {gf.n} points per axis, expected {n}")
    return gf


def check_cube_in_grid(cube: LatticeCube, grid: GridFunction) -> None:
    if cube.d != grid.d:
        raise GridvarError(f"cube dimension {cube.d} != grid dimension {grid.d}")
    if any(o + cube.side > grid.n - 1 for o in cube.origin):
        raise GridvarError(f"cube {cube.origin}+{cube.side} exceeds grid extent {grid.n - 1}")


def check_interval_in_grid(interval: LatticeInterval, grid: GridFunction) -> None:
    if interval.d != grid.d:
        raise GridvarError(f"interval dimension {interval.d} != grid dimension {grid.d}")
    if any(hi > grid.n - 1 for hi in interval.upper):
        raise GridvarError(f"interval {interval.upper} exceeds grid extent {grid.n - 1}")


def cubes_disjoint(a: LatticeCube, b: LatticeCube) -> bool:
    """Disjointness of the half-open index boxes [origin, origin+side)."""
    return any(
        ao + a.side <= bo or bo + b.side <= ao for ao, bo in zip(a.origin, b.origin)
    )


def is_packing(cubes: Iterable[LatticeCube]) -> bool:
    """True iff the cubes share one dimension and are pairwise disjoint.

    Sorted by origin, a cube can only meet the later cubes that start on the
    first axis before it ends there.
    """
    cs = sorted(cubes)
    if len({c.d for c in cs}) > 1:
        return False
    for i, a in enumerate(cs):
        end = a.origin[0] + a.side
        for j in range(i + 1, len(cs)):
            if cs[j].origin[0] >= end:
                break
            if not cubes_disjoint(a, cs[j]):
                return False
    return True


@dataclass(frozen=True)
class Packing:
    """A finite set of pairwise-disjoint cubes, stored sorted by (origin, side)."""

    cubes: tuple[LatticeCube, ...] = field(default=())

    def __post_init__(self) -> None:
        cs = tuple(sorted(self.cubes))
        object.__setattr__(self, "cubes", cs)
        if not is_packing(cs):
            raise GridvarError("cubes overlap: not a packing")

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[LatticeCube]:
        return iter(self.cubes)


def enumerate_cubes(
    grid: GridFunction,
    min_side: int = 1,
    region: LatticeInterval | None = None,
) -> list[LatticeCube]:
    """All lattice cubes of the grid (or of `region`) with side >= min_side.

    Returned in lexicographic (origin, side) order. The count for the whole
    grid is sum over side s of (n - s)^d.
    """
    if min_side < 1:
        raise GridvarError(f"min_side must be >= 1, got {min_side}")
    if region is None:
        lo = (0,) * grid.d
        hi = (grid.n - 1,) * grid.d
    else:
        check_interval_in_grid(region, grid)
        lo, hi = region.lower, region.upper
    max_side = min(h - l for l, h in zip(lo, hi))
    out = []
    for origin in itertools.product(*(range(l, h) for l, h in zip(lo, hi))):
        top = min(h - o for o, h in zip(origin, hi))
        for side in range(min_side, top + 1):
            out.append(LatticeCube(origin, side))
    out.sort()
    return out


def cell_count(grid: GridFunction, region: LatticeInterval | None = None) -> int:
    if region is None:
        return (grid.n - 1) ** grid.d
    return int(np.prod([h - l for l, h in zip(region.lower, region.upper)]))


def check_enumeration_guard(
    grid: GridFunction,
    allow_large: bool = False,
    region: LatticeInterval | None = None,
) -> None:
    """Refuse exhaustive work on grids with more than 16 unit cells."""
    cells = cell_count(grid, region)
    if cells > ENUMERATION_CELL_LIMIT and not allow_large:
        raise GuardError(
            f"exhaustive enumeration needs {cells} cells > {ENUMERATION_CELL_LIMIT}; "
            "pass allow_large=True to override"
        )


def cube_cell_mask(cube: LatticeCube, grid_n: int, region: LatticeInterval | None = None) -> int:
    """Bitmask of the unit cells covered by the cube, row-major over the region
    (the whole grid when None)."""
    if region is None:
        lo = (0,) * cube.d
        extents = [grid_n - 1] * cube.d
    else:
        lo = region.lower
        extents = [h - l for l, h in zip(region.lower, region.upper)]
    mask = 0
    for cell in itertools.product(*(range(o, o + cube.side) for o in cube.origin)):
        idx = 0
        for c, l, m in zip(cell, lo, extents):
            idx = idx * m + (c - l)
        mask |= 1 << idx
    return mask


def enumerate_packings(
    grid: GridFunction,
    min_side: int = 1,
    max_cardinality: int | None = None,
    allow_large: bool = False,
) -> Iterator[Packing]:
    """Yield every packing (including the empty one) exactly once.

    Order is lexicographic on the sorted cube lists, with cubes compared by
    (origin, side); a packing that is a prefix of another comes first.
    Guarded: refuses grids with more than 16 unit cells unless allow_large.
    """
    check_enumeration_guard(grid, allow_large)
    cubes = enumerate_cubes(grid, min_side)
    masks = [cube_cell_mask(c, grid.n) for c in cubes]
    cap = len(cubes) if max_cardinality is None else max_cardinality
    if cap < 0:
        raise GridvarError(f"max_cardinality must be >= 0, got {cap}")

    def extend(chosen: list[LatticeCube], used: int, start: int) -> Iterator[Packing]:
        yield Packing(tuple(chosen))
        if len(chosen) == cap:
            return
        for j in range(start, len(cubes)):
            if masks[j] & used == 0:
                chosen.append(cubes[j])
                yield from extend(chosen, used | masks[j], j + 1)
                chosen.pop()

    return extend([], 0, 0)
