"""Classical multivariate variations: Vitali, Hardy-Krause, Tonelli.

The Vitali deviation of a d-interval is the alternating sum of f over its
corners (the fully mixed increment); the Vitali variation maximizes the sum
of absolute deviations over families of boxes with pairwise disjoint
interiors. Deviations add when a box is split, so on a lattice the unit
cells attain that maximum and the variation is one closed-form sum, with no
search and no size guard. Hardy-Krause adds the Vitali variations of all
partial functions frozen at an anchor point; Tonelli averages 1-d section
variations per axis. In one dimension all of these collapse to the Jordan
variation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridvarError
from .grid import GridFunction, LatticeInterval, check_interval_in_grid
from .variation import VariationParams, variation_bruteforce


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


@dataclass(frozen=True)
class VitaliResult:
    value: float
    optimizer: tuple[LatticeInterval, ...]
    method: str
    is_exact: bool


def vitali_variation(f: GridFunction) -> VitaliResult:
    """Max of sum |deviation| over families of interior-disjoint boxes.

    A lattice box splits into the unit cells inside it and its deviation is
    the sum of theirs, so by the triangle inequality no family beats the
    unit cells: the value is the sum of |deviation| over all unit cells
    (Owen, Multidimensional variation for quasi-Monte Carlo, 2005). The
    deviations are the fully mixed first differences, one np.diff per axis.
    The optimizer lists the unit cells of nonzero deviation in row-major,
    that is (lower, upper), order.
    """
    mixed = f.values
    for axis in range(f.d):
        mixed = np.diff(mixed, axis=axis)
    value = math.fsum(np.abs(mixed).ravel().tolist())
    optimizer = tuple(
        LatticeInterval(tuple(idx), tuple(i + 1 for i in idx))
        for idx in np.argwhere(mixed != 0.0).tolist()
    )
    return VitaliResult(value, optimizer, "cells", True)


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
            out[subset] = vitali_variation(section).value
    return out


def hardy_krause_variation(f: GridFunction, anchor: Sequence[int] | None = None) -> float:
    """Sum of the Vitali variations of all anchored partial functions."""
    return math.fsum(hardy_krause_breakdown(f, anchor).values())


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


# Invariants this module promises; the property suite registers them all
# (its completeness check fails if one is missing there).
INVARIANT_IDS = ("classical.vitali-dominates-partitions",)
