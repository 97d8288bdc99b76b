import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridvar.errors import GridvarError, GuardError
from gridvar.grid import (
    ENUMERATION_CELL_LIMIT,
    GridFunction,
    LatticeCube,
    LatticeInterval,
    Packing,
    cell_count,
    check_enumeration_guard,
    cube_cell_mask,
    cubes_disjoint,
    enumerate_cubes,
    enumerate_packings,
    is_packing,
    make_grid_function,
)

from oracles import all_cubes, overlap


def test_lattice_cube_basics():
    cube = LatticeCube((1, 0), 2)
    assert cube.d == 2
    assert cube.upper == (3, 2)
    assert cube.point_count() == 9
    assert cube.contains_point((2, 1))
    assert not cube.contains_point((0, 0))
    assert cube.volume(5) == pytest.approx((2 / 4) ** 2)
    assert sorted(cube.lattice_points())[0] == (1, 0)


def test_lattice_cube_validation():
    with pytest.raises(GridvarError):
        LatticeCube((0,), 0)
    with pytest.raises(GridvarError):
        LatticeCube((-1,), 1)


def test_lattice_cube_ordering():
    cubes = [LatticeCube((1,), 1), LatticeCube((0,), 2), LatticeCube((0,), 1)]
    assert sorted(cubes) == [
        LatticeCube((0,), 1), LatticeCube((0,), 2), LatticeCube((1,), 1),
    ]


def test_lattice_interval_validation():
    LatticeInterval((0, 1), (2, 1))  # degenerate on one axis is fine
    with pytest.raises(GridvarError):
        LatticeInterval((0, 0), (0, 0))  # fully degenerate is not
    with pytest.raises(GridvarError):
        LatticeInterval((1,), (0,))


def test_grid_function_immutable_and_shape():
    f = make_grid_function([0.0, 1.0, 4.0])
    assert f.d == 1 and f.n == 3
    with pytest.raises(ValueError):
        f.values[0] = 5.0
    with pytest.raises(GridvarError):
        make_grid_function([0.0, float("nan"), 1.0])
    with pytest.raises(GridvarError):
        make_grid_function([0.0, 1.0, 2.0], d=2)  # 3 values is no square
    with pytest.raises(GridvarError):
        make_grid_function([1.0])  # n must be >= 2


def test_grid_function_restrict():
    f = make_grid_function(np.arange(9.0).reshape(3, 3))
    sub = f.restrict(LatticeCube((1, 1), 1))
    assert sub.tolist() == [[4.0, 5.0], [7.0, 8.0]]


def test_enumerate_cubes_count_and_order():
    f = make_grid_function(np.zeros((4, 4)))
    cubes = enumerate_cubes(f)
    assert len(cubes) == sum((4 - s) ** 2 for s in range(1, 4))
    assert cubes == sorted(cubes)  # (origin, side) lexicographic
    # d=1, n=3: exactly the three subcubes
    g = make_grid_function([0.0, 0.0, 0.0])
    assert set(enumerate_cubes(g)) == {
        LatticeCube((0,), 1), LatticeCube((1,), 1), LatticeCube((0,), 2),
    }


def test_enumerate_cubes_region():
    f = make_grid_function(np.zeros((5, 5)))
    region = LatticeInterval((0, 0), (2, 2))
    cubes = enumerate_cubes(f, region=region)
    assert all(c.origin >= (0, 0) and max(c.upper) <= 2 for c in cubes)
    assert len(cubes) == sum((3 - s) ** 2 for s in range(1, 3))


def test_disjointness_is_half_open():
    a = LatticeCube((0,), 1)
    b = LatticeCube((1,), 1)  # shares lattice point 1, interiors disjoint
    c = LatticeCube((0,), 2)
    assert cubes_disjoint(a, b)
    assert not cubes_disjoint(a, c)
    assert is_packing([a, b])
    assert not is_packing([a, c])


def test_is_packing_matches_pairwise_overlap_oracle():
    rng = np.random.default_rng(13)
    for trial in range(2000):
        cubes = []
        for _ in range(int(rng.integers(0, 8))):
            # every fourth list mixes dimensions; a mixed pair is never a packing
            d = int(rng.integers(1, 4)) if trial % 4 == 0 else 2
            origin = tuple(int(o) for o in rng.integers(0, 6, size=d))
            cubes.append(LatticeCube(origin, int(rng.integers(1, 4))))
        want = len({c.d for c in cubes}) <= 1 and not any(
            overlap(a, b) for i, a in enumerate(cubes) for b in cubes[i + 1:]
        )
        assert is_packing(cubes) == want, cubes


def test_packing_sorts_and_validates():
    a, b = LatticeCube((2,), 1), LatticeCube((0,), 1)
    packing = Packing((a, b))
    assert tuple(packing) == (b, a)
    with pytest.raises(GridvarError):
        Packing((LatticeCube((0,), 2), LatticeCube((1,), 1)))


def test_enumerate_packings_d1_n3():
    f = make_grid_function([0.0, 0.0, 0.0])
    packings = {tuple(p) for p in enumerate_packings(f)}
    a, b, c = LatticeCube((0,), 1), LatticeCube((1,), 1), LatticeCube((0,), 2)
    assert packings == {(), (a,), (b,), (c,), (a, b)}


def test_enumerate_packings_matches_oracle_d2():
    f = make_grid_function(np.zeros((3, 3)))
    got = {tuple(p) for p in enumerate_packings(f)}
    want = {tuple(sorted(p)) for p in _oracle_packings(2, 3)}
    assert got == want


def _oracle_packings(d, n):
    cubes = all_cubes(d, n)

    def rec(start, chosen):
        yield tuple(chosen)
        for i in range(start, len(cubes)):
            if all(not overlap(cubes[i], c) for c in chosen):
                chosen.append(cubes[i])
                yield from rec(i + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def test_enumeration_guard():
    small = make_grid_function(np.zeros((5, 5)))  # 16 cells: allowed
    check_enumeration_guard(small, allow_large=False)
    big = make_grid_function(np.zeros((6, 6)))  # 25 cells: guarded
    assert cell_count(big) == 25 > ENUMERATION_CELL_LIMIT
    with pytest.raises(GuardError):
        check_enumeration_guard(big, allow_large=False)
    check_enumeration_guard(big, allow_large=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(3, 6), st.data())
def test_cube_cell_mask_popcount(d, n, data):
    if (n - 1) ** d > 24:
        n = 3
    side = data.draw(st.integers(1, n - 1))
    origin = tuple(
        data.draw(st.integers(0, n - 1 - side)) for _ in range(d)
    )
    cube = LatticeCube(origin, side)
    mask = cube_cell_mask(cube, n)
    assert bin(mask).count("1") == side ** d


def test_cube_cell_masks_disjoint_iff_cubes_disjoint():
    n = 4
    cubes = all_cubes(2, n)
    for a in cubes:
        for b in cubes:
            expect = cubes_disjoint(a, b)
            got = not (cube_cell_mask(a, n) & cube_cell_mask(b, n))
            assert got == expect, (a, b)
