"""The batched weight table equals the per-cube osc_k and e_k on every cube."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridvar import (
    GridFunction,
    GridvarError,
    LatticeCube,
    VariationParams,
    e_k,
    enumerate_cubes,
    holder_seminorm,
    osc_k,
    variation_local_search,
)
from gridvar.differences import osc_tables
from gridvar.grid import cube_cell_mask
from gridvar.variation import _grid_cubes, _weight_fn


def _grids(d, n, seed):
    rng = np.random.default_rng([d, n, seed])
    return {
        "uniform": rng.uniform(-1.0, 1.0, size=(n,) * d),
        "ties": rng.integers(-2, 3, size=(n,) * d).astype(float),
        "constant": np.full((n,) * d, 3.25),
    }


def _check_cubes(f, k, origins=None):
    """Every table entry (or those at the given origins per side) against
    osc_k, and for k = 1 the e_1 table against e_k; returns the count."""
    e_params = VariationParams(k=1, p=1.0, weight="e_k")
    e_half = _weight_fn(f, e_params, range(1, f.n)) if k == 1 else None
    count = 0
    for s, table in osc_tables(f, k):
        assert table.dtype == np.float64 and table.shape == (f.n - s,) * f.d
        chosen = origins(s) if origins else itertools.product(range(f.n - s), repeat=f.d)
        for o in chosen:
            cube = LatticeCube(o, s)
            assert float(table[o]) == osc_k(f, cube, k), (cube, k)
            if e_half is not None:
                assert e_half(cube) == e_k(f, cube, 1), cube
            count += 1
    return count


@pytest.mark.parametrize("d, n", [(1, 2), (1, 9), (1, 17), (2, 2), (2, 5), (2, 9),
                                  (3, 2), (3, 4), (3, 5)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_equals_per_cube_weights(d, n, k):
    for values in _grids(d, n, 0).values():
        f = GridFunction(values)
        assert _check_cubes(f, k) == len(enumerate_cubes(f))


@pytest.mark.parametrize("d, n", [(2, 33), (3, 9)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_equals_per_cube_weights_benchmark_shapes(d, n, k):
    """Every side; every cube for k = 1, else two corners and one random
    origin per side (the per-cube oracle is slow there)."""
    rng = np.random.default_rng([d, n, k])

    def origins(s):
        top = n - 1 - s
        return {(0,) * d, (top,) * d, tuple(int(v) for v in rng.integers(0, top + 1, size=d))}

    for values in _grids(d, n, 1).values():
        _check_cubes(GridFunction(values), k, None if k == 1 else origins)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.booleans(), st.data())
def test_table_equals_per_cube_weights_drawn(d, k, integral, data):
    n = data.draw(st.integers(2, 6 if d < 3 else 4))
    elems = (st.integers(-3, 3).map(float) if integral
             else st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(elems, min_size=n**d, max_size=n**d))
    _check_cubes(GridFunction(np.reshape(values, (n,) * d)), k)


def test_order_below_one_and_bad_sides_raise():
    f = GridFunction(np.arange(9.0).reshape(3, 3))
    for k in (0, -1):
        with pytest.raises(GridvarError):
            osc_tables(f, k)  # raised on the call, not on first iteration
    for sides in ([0], [3], [1, 5]):
        with pytest.raises(GridvarError):
            osc_tables(f, 2, sides)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sides_subset_matches_full_run(k):
    f = GridFunction(np.random.default_rng(k).uniform(-1.0, 1.0, size=(17, 17)))
    full = dict(osc_tables(f, k))
    for sides in ([1, 2, 4, 8, 16], [5], [3, 16], []):
        got = dict(osc_tables(f, k, sides))
        assert list(got) == sorted(sides)
        for s, table in got.items():
            assert np.array_equal(table, full[s])


def test_overflowing_differences_raise_like_osc_k():
    """Where a k-th difference overflows, the table raises exactly when the
    per-cube osc_k raises on some cube; elsewhere every entry is equal."""
    rng = np.random.default_rng(7)
    levels = [-1.7e308, -1e308, -5e307, 0.0, 5e307, 1e308, 1.7e308]
    raised = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(40):
            d, n, k = int(rng.integers(1, 3)), int(rng.integers(3, 7)), int(rng.integers(2, 5))
            f = GridFunction(rng.choice(levels, size=(n,) * d))
            per_cube = {}
            for cube in enumerate_cubes(f):
                try:
                    per_cube[cube] = osc_k(f, cube, k)
                except GridvarError:
                    per_cube[cube] = None
            try:
                tables = dict(osc_tables(f, k))
            except GridvarError:
                raised += 1
                assert None in per_cube.values()
                continue
            assert None not in per_cube.values()
            for cube, value in per_cube.items():
                assert float(tables[cube.side][cube.origin]) == value
    assert 0 < raised < 40


@pytest.mark.parametrize("d, n, k, p", [(1, 9, 2, 1.0), (2, 9, 2, 2.0), (2, 9, 1, 1.5),
                                        (3, 5, 3, 2.0)])
def test_holder_seminorm_equals_per_cube_max(d, n, k, p):
    f = GridFunction(np.random.default_rng(d * n).uniform(-1.0, 1.0, size=(n,) * d))
    s = d / p
    want = max(osc_k(f, c, k) / (c.side / (n - 1)) ** s for c in enumerate_cubes(f))
    assert holder_seminorm(f, k, p) == want


def test_grid_cubes_are_shared_and_in_canonical_order():
    cubes, masks = _grid_cubes(2, 5)
    f = GridFunction(np.random.default_rng(0).uniform(size=(5, 5)))
    assert list(cubes) == enumerate_cubes(f)
    assert list(masks) == [cube_cell_mask(c, 5) for c in cubes]
    params = VariationParams(k=1, p=2.0)
    a = variation_local_search(f, params, budget=20).optimizer
    b = variation_local_search(f, params, budget=20).optimizer
    assert a == b and all(x is y for x, y in zip(a, b))
