"""Vitali / Hardy-Krause / Tonelli / Jordan / Wiener variation tests."""

import itertools
import math

import numpy as np
import pytest

from gridvar import (
    GridFunction,
    GridvarError,
    LatticeInterval,
    hardy_krause_breakdown,
    hardy_krause_variation,
    jordan_variation,
    partial_function,
    tonelli_variation,
    vitali_deviation,
    vitali_variation,
    wiener_variation,
)
from oracles import all_boxes, boxes_overlap, corner_sum, vitali_oracle


def coordinate_product(n):
    """f(x, y) = x * y on the unit square, n points per axis."""
    x = np.linspace(0.0, 1.0, n)
    return GridFunction(np.outer(x, x))


def coordinate_sum(n):
    x = np.linspace(0.0, 1.0, n)
    return GridFunction(x[:, None] + x[None, :])


def assert_disjoint_and_resums(f, res):
    """The reported family is interior-disjoint and re-sums to the value."""
    boxes = res.optimizer
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert not boxes_overlap(a, b)
    recomputed = math.fsum(abs(vitali_deviation(f, b)) for b in boxes)
    assert recomputed == pytest.approx(res.value, abs=1e-12)


def test_deviation_matches_corner_oracle():
    rng = np.random.default_rng(7)
    for d, n in [(1, 4), (2, 3), (3, 3)]:
        f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
        for box in all_boxes(d, n):
            assert vitali_deviation(f, box) == corner_sum(f, box)


def test_deviation_degenerate_axis_cancels():
    rng = np.random.default_rng(3)
    f = GridFunction(rng.uniform(-1, 1, size=(3, 3)))
    assert vitali_deviation(f, LatticeInterval((0, 0), (0, 2))) == 0.0
    assert vitali_deviation(f, LatticeInterval((1, 0), (2, 0))) == 0.0


@pytest.mark.parametrize("n", [3, 5])
def test_golden_values(n):
    prod = coordinate_product(n)
    assert vitali_variation(prod).value == pytest.approx(1.0, abs=1e-12)

    breakdown = hardy_krause_breakdown(prod)
    assert set(breakdown) == {(0,), (1,), (0, 1)}
    for subset, val in breakdown.items():
        assert val == pytest.approx(1.0, abs=1e-12), subset
    assert hardy_krause_variation(prod) == pytest.approx(3.0, abs=1e-12)

    sums = coordinate_sum(n)
    assert tonelli_variation(sums) == pytest.approx(2.0, abs=1e-12)
    # the fully mixed increment of an additively separable function vanishes
    assert vitali_variation(sums).value == pytest.approx(0.0, abs=1e-12)


def unit_cells(d, n):
    """Every unit cell of the lattice, in row-major order."""
    return [LatticeInterval(idx, tuple(i + 1 for i in idx))
            for idx in itertools.product(range(n - 1), repeat=d)]


def test_brute_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    grids = []
    for d, n in [(2, 3), (1, 4), (3, 3)]:
        for _ in range(3):
            grids.append(GridFunction(rng.uniform(-1, 1, size=(n,) * d)))
    # integer values: ties between families, and cells of zero deviation
    for d, n in [(1, 5), (2, 3), (2, 4), (3, 3)]:
        for _ in range(3):
            grids.append(GridFunction(rng.integers(-2, 3, size=(n,) * d).astype(float)))
    for f in grids:
        res = vitali_variation(f)
        assert res.value == pytest.approx(vitali_oracle(f), abs=1e-12)
        assert res.is_exact and res.method == "cells"
        assert res.optimizer == tuple(c for c in unit_cells(f.d, f.n) if corner_sum(f, c) != 0.0)
        assert_disjoint_and_resums(f, res)


@pytest.mark.parametrize("d, n", [(2, 12), (3, 6)])
def test_cells_dominate_random_disjoint_families(d, n):
    rng = np.random.default_rng(100 * d + n)
    f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
    res = vitali_variation(f)
    cells = unit_cells(d, n)
    assert res.value == pytest.approx(math.fsum(abs(corner_sum(f, c)) for c in cells),
                                      rel=1e-13)
    assert len(res.optimizer) == len(cells)
    assert_disjoint_and_resums(f, res)
    boxes = all_boxes(d, n)
    for _ in range(50):
        family = []
        for i in rng.permutation(len(boxes))[:60]:
            if not any(boxes_overlap(boxes[i], b) for b in family):
                family.append(boxes[i])
        total = math.fsum(abs(corner_sum(f, b)) for b in family)
        assert total <= res.value + 1e-12 * (1.0 + res.value)


def test_vitali_d1_is_jordan():
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = GridFunction(rng.uniform(-1, 1, size=6))
        assert vitali_variation(f).value == jordan_variation(f)


def test_jordan_and_wiener():
    mono = GridFunction(np.array([0.0, 0.25, 0.3, 0.9, 1.0]))
    assert jordan_variation(mono) == pytest.approx(1.0, abs=1e-15)
    assert wiener_variation(mono, 1.0) == pytest.approx(1.0, abs=1e-12)

    saw = GridFunction(np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
    assert jordan_variation(saw) == pytest.approx(8.0, abs=1e-15)
    # four unit jumps of size 2: p = 2 packs them as (4 * 2^2)^(1/2)
    assert wiener_variation(saw, 2.0) == pytest.approx(4.0, abs=1e-12)

    rng = np.random.default_rng(31)
    for _ in range(10):
        f = GridFunction(rng.uniform(-1, 1, size=5))
        assert wiener_variation(f, 1.0) == pytest.approx(jordan_variation(f), abs=1e-12)
        assert wiener_variation(f, 2.0) <= wiener_variation(f, 1.0) + 1e-12

    with pytest.raises(GridvarError):
        jordan_variation(GridFunction(np.zeros((3, 3))))
    with pytest.raises(GridvarError):
        wiener_variation(GridFunction(np.zeros((3, 3))), 1.0)


def test_partial_function_sections():
    n = 3
    x = np.linspace(0.0, 1.0, n)
    f = GridFunction(x[:, None] + 2.0 * x[None, :])
    bottom = partial_function(f, (0, 0), (0,))
    assert np.allclose(bottom.values, x)
    right = partial_function(f, (2, 2), (1,))
    assert np.allclose(right.values, 1.0 + 2.0 * x)
    both = partial_function(f, (0, 0), (0, 1))
    assert np.array_equal(both.values, f.values)

    with pytest.raises(GridvarError):
        partial_function(f, (0,), (0,))  # anchor length != d
    with pytest.raises(GridvarError):
        partial_function(f, (0, 5), (0,))  # anchor off the lattice
    with pytest.raises(GridvarError):
        partial_function(f, (0, 0), ())  # empty axes
    with pytest.raises(GridvarError):
        partial_function(f, (0, 0), (0, 0))  # repeated axis
    with pytest.raises(GridvarError):
        partial_function(f, (0, 0), (2,))  # axis out of range


def test_hardy_krause_anchor_choice():
    prod = coordinate_product(3)
    # anchored at the origin, both 1-d sections of x*y vanish identically
    low = hardy_krause_breakdown(prod, anchor=(0, 0))
    assert low[(0,)] == pytest.approx(0.0, abs=1e-12)
    assert low[(1,)] == pytest.approx(0.0, abs=1e-12)
    assert low[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    assert hardy_krause_variation(prod, anchor=(0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert hardy_krause_variation(prod) == pytest.approx(3.0, abs=1e-12)


def test_tonelli_behaviors():
    assert tonelli_variation(GridFunction(np.full((4, 4), 2.5))) == 0.0
    rng = np.random.default_rng(37)
    f1 = GridFunction(rng.uniform(-1, 1, size=7))
    assert tonelli_variation(f1) == pytest.approx(jordan_variation(f1), abs=1e-12)

    f2 = GridFunction(rng.uniform(-1, 1, size=(4, 4)))
    manual = []
    for axis in range(2):
        lines = []
        for i in range(4):
            anchor = [0, 0]
            anchor[1 - axis] = i
            lines.append(jordan_variation(partial_function(f2, anchor, (axis,))))
        manual.append(sum(lines) / 4.0)
    assert tonelli_variation(f2) == pytest.approx(math.fsum(manual), abs=1e-12)
