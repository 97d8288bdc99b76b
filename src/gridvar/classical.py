"""Classical multivariate variations: Vitali, Hardy-Krause, Tonelli.

The Vitali deviation of a d-interval is the alternating sum of f over its
corners (the fully mixed increment); the Vitali variation maximizes the sum
of absolute deviations over families of boxes with pairwise disjoint
interiors. Hardy-Krause adds the Vitali variations of all partial functions
frozen at an anchor point; Tonelli averages 1-d section variations per axis.
In one dimension all of these collapse to the Jordan variation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridvarError, GuardError
from .grid import (
    GridFunction,
    LatticeInterval,
    _box_cell_mask,
    check_enumeration_guard,
    check_interval_in_grid,
    cell_count,
)
from .variation import VariationParams, _anchor_items, max_weight_packing, variation_bruteforce

PARTITION_CUT_LIMIT = 16  # max total interior cut positions for the partitions method


def as_axis_subset(axes: Sequence[int], d: int) -> tuple[int, ...]:
    """Validate a nonempty set of distinct axes, returned sorted."""
    subset = tuple(sorted(int(a) for a in axes))
    if not subset:
        raise GridvarError("axis subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise GridvarError(f"axis subset has repeats: {subset}")
    if subset[0] < 0 or subset[-1] >= d:
        raise GridvarError(f"axis subset {subset} out of range for d={d}")
    return subset


def vitali_deviation(f: GridFunction, interval: LatticeInterval) -> float:
    """Alternating corner sum of f over the box; the sign of a corner is
    (-1)^(number of axes where it takes the lower endpoint).

    Boxes degenerate on some axis (but not all) give 0 by cancellation.
    """
    check_interval_in_grid(interval, f)
    terms = []
    for picks in itertools.product((0, 1), repeat=f.d):
        point = tuple(
            lo if j == 0 else hi
            for j, lo, hi in zip(picks, interval.lower, interval.upper)
        )
        sign = (-1.0) ** (f.d - sum(picks))
        terms.append(sign * f.value_at(point))
    return math.fsum(terms)


def enumerate_boxes(grid: GridFunction) -> list[LatticeInterval]:
    """All fully nondegenerate lattice boxes, in (lower, upper) order."""
    axis_pairs = list(itertools.combinations(range(grid.n), 2))
    out = [
        LatticeInterval(tuple(lo for lo, _ in pairs), tuple(hi for _, hi in pairs))
        for pairs in itertools.product(axis_pairs, repeat=grid.d)
    ]
    out.sort()
    return out


@dataclass(frozen=True)
class VitaliResult:
    value: float
    optimizer: tuple[LatticeInterval, ...]
    method: str
    is_exact: bool


def _vitali_bruteforce(f: GridFunction, allow_large: bool) -> VitaliResult:
    check_enumeration_guard(f, allow_large)
    boxes = enumerate_boxes(f)
    ncells = cell_count(f)
    anchored = _anchor_items(ncells, [_box_cell_mask(b.lower, b.upper, f.n, None) for b in boxes],
                             [abs(vitali_deviation(f, b)) for b in boxes])
    total, chosen = max_weight_packing(ncells, anchored)
    return VitaliResult(total, tuple(boxes[i] for i in chosen), "brute", True)


def _axis_partitions(n: int) -> list[list[tuple[int, int]]]:
    """All ways to slice [0, n-1] into consecutive slabs at interior cuts."""
    out = []
    for r in range(n - 1):
        for cuts in itertools.combinations(range(1, n - 1), r):
            bounds = (0, *cuts, n - 1)
            out.append([(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)])
    return out


def _vitali_partitions(f: GridFunction, allow_large: bool) -> VitaliResult:
    if f.d * (f.n - 2) > PARTITION_CUT_LIMIT and not allow_large:
        raise GuardError(
            f"partition enumeration needs {f.d * (f.n - 2)} cut positions > "
            f"{PARTITION_CUT_LIMIT}; pass allow_large=True to override"
        )
    best = -1.0
    best_boxes: tuple[LatticeInterval, ...] = ()
    for per_axis in itertools.product(*[_axis_partitions(f.n)] * f.d):
        boxes = [
            LatticeInterval(tuple(lo for lo, _ in slabs), tuple(hi for _, hi in slabs))
            for slabs in itertools.product(*per_axis)
        ]
        value = math.fsum(abs(vitali_deviation(f, box)) for box in boxes)
        if value > best:
            best = value
            best_boxes = tuple(sorted(boxes))
    return VitaliResult(best, best_boxes, "partitions", True)


def _vitali_local_search(f: GridFunction, budget: int) -> VitaliResult:
    boxes = enumerate_boxes(f)
    dev = [abs(vitali_deviation(f, box)) for box in boxes]
    masks = [_box_cell_mask(b.lower, b.upper, f.n, None) for b in boxes]
    current: list[int] = []
    used = 0  # the current boxes are disjoint: the others of i cover used ^ masks[i]

    def find_move() -> tuple[int | None, int] | None:
        """First strictly-improving move (dropped index or None, added index)."""
        for j, mask in enumerate(masks):
            if dev[j] > 0.0 and mask & used == 0:
                return None, j
        for i in current:
            rest = used ^ masks[i]
            for j, mask in enumerate(masks):
                if j != i and mask & rest == 0 and dev[j] - dev[i] > 0.0:
                    return i, j
        return None

    for _ in range(budget):
        move = find_move()
        if move is None:
            break
        i, j = move
        if i is not None:
            current.remove(i)
            used ^= masks[i]
        current = sorted(current + [j])
        used |= masks[j]
    value = math.fsum(dev[i] for i in current)
    return VitaliResult(value, tuple(boxes[i] for i in current), "local_search", False)


def vitali_variation(f: GridFunction, method: str = "brute", budget: int = 100,
                     allow_large: bool = False) -> VitaliResult:
    """Max of sum |deviation| over families of interior-disjoint boxes.

    Methods: "brute" (the exact packing dynamic program with boxes as items,
    visiting only reachable cell covers; guarded at 16 cells), "partitions"
    (exhaustive axis-aligned grid partitions; exact too, since refining any
    family to the grid its boxes generate never decreases the sum), and
    "local_search" (add/replace hill climbing, lower bound).
    """
    if method == "brute":
        return _vitali_bruteforce(f, allow_large)
    if method == "partitions":
        return _vitali_partitions(f, allow_large)
    if method == "local_search":
        return _vitali_local_search(f, budget)
    raise GridvarError(f"unknown method {method!r}; use brute, partitions, or local_search")


def partial_function(f: GridFunction, anchor: Sequence[int], axes: Sequence[int]) -> GridFunction:
    """Freeze all coordinates outside `axes` at the anchor point.

    Returns a grid function of dimension len(axes); axes keep their
    relative order.
    """
    subset = as_axis_subset(axes, f.d)
    anchor = tuple(int(i) for i in anchor)
    if len(anchor) != f.d or any(i < 0 or i > f.n - 1 for i in anchor):
        raise GridvarError(f"anchor {anchor} is not a lattice point of the grid")
    indexer = tuple(slice(None) if i in subset else anchor[i] for i in range(f.d))
    return GridFunction(f.values[indexer])


def jordan_variation(f: GridFunction) -> float:
    """Sum of absolute consecutive differences of a 1-d grid function."""
    if f.d != 1:
        raise GridvarError(f"jordan variation needs d=1, got d={f.d}")
    return math.fsum(abs(float(x)) for x in np.diff(f.values))


def wiener_variation(f: GridFunction, p: float, allow_large: bool = False) -> float:
    """Classical p-variation of a 1-d function: oscillation-weighted, k=1."""
    if f.d != 1:
        raise GridvarError(f"wiener variation needs d=1, got d={f.d}")
    params = VariationParams(k=1, p=p, weight="osc_k")
    return variation_bruteforce(f, params, allow_large=allow_large).value


def hardy_krause_breakdown(f: GridFunction, anchor: Sequence[int] | None = None,
                           method: str = "brute", allow_large: bool = False,
                           ) -> dict[tuple[int, ...], float]:
    """Vitali variation of each partial function frozen at the anchor.

    The anchor defaults to the all-ones corner of the unit cube (lattice
    index (n-1, ..., n-1)).
    """
    if anchor is None:
        anchor = (f.n - 1,) * f.d
    out: dict[tuple[int, ...], float] = {}
    for size in range(1, f.d + 1):
        for subset in itertools.combinations(range(f.d), size):
            section = partial_function(f, anchor, subset)
            out[subset] = vitali_variation(section, method=method, allow_large=allow_large).value
    return out


def hardy_krause_variation(f: GridFunction, anchor: Sequence[int] | None = None,
                           method: str = "brute", allow_large: bool = False) -> float:
    """Sum of the Vitali variations of all anchored partial functions."""
    return math.fsum(hardy_krause_breakdown(f, anchor, method, allow_large).values())


def tonelli_variation(f: GridFunction) -> float:
    """Per axis, the lattice average over lines of the 1-d Jordan variation
    of the axis sections, summed over axes. Equals the Jordan variation
    when d = 1.
    """
    total = []
    for axis in range(f.d):
        line_variations = np.sum(np.abs(np.diff(f.values, axis=axis)), axis=axis)
        total.append(float(np.mean(line_variations)))
    return math.fsum(total)
