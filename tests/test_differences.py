import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridvar.differences import (
    as_multi_index,
    as_step_vector,
    finite_difference,
    osc_directional,
    osc_k,
    osc_mixed,
)
from gridvar.errors import GridvarError
from gridvar.grid import GridFunction, LatticeCube, make_grid_function

from oracles import kth_difference, osc_oracle


def _linspace_grid(n, fn):
    x = np.linspace(0.0, 1.0, n)
    return GridFunction(fn(x))


def test_finite_difference_linear():
    f = _linspace_grid(5, lambda x: x)
    # first difference of the identity over one lattice step of 0.25
    assert finite_difference(f, (0,), (1,), 1) == pytest.approx(0.25)


def test_finite_difference_quadratic():
    f = _linspace_grid(5, lambda x: x**2)
    # second difference of x^2 with step h is 2 h^2; h = 2 steps = 0.5
    assert finite_difference(f, (0,), (2,), 2) == pytest.approx(0.5)


def test_finite_difference_zero_step():
    f = _linspace_grid(4, lambda x: np.exp(x))
    assert finite_difference(f, (2,), (0,), 1) == 0.0


def test_finite_difference_off_grid():
    f = _linspace_grid(3, lambda x: x)
    with pytest.raises(GridvarError):
        finite_difference(f, (2,), (1,), 1)
    with pytest.raises(GridvarError):
        finite_difference(f, (0,), (-1,), 1)


def test_step_vector_and_multi_index_validation():
    assert as_step_vector((1, -2), 2) == (1, -2)
    with pytest.raises(GridvarError):
        as_step_vector((1,), 2)
    with pytest.raises(GridvarError):
        as_step_vector((0, 0), 2, allow_zero=False)
    assert as_multi_index((0, 2), 2) == (0, 2)
    with pytest.raises(GridvarError):
        as_multi_index((-1, 0), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_finite_difference_matches_binomial_sum(n, k, data):
    d = data.draw(st.integers(1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
    h = tuple(data.draw(st.integers(-1, 1)) for _ in range(d))
    lo = [max(0, -k * v) for v in h]
    hi = [n - 1 - max(0, k * v) for v in h]
    if any(a > b for a, b in zip(lo, hi)):
        return
    x = tuple(data.draw(st.integers(a, b)) for a, b in zip(lo, hi))
    assert finite_difference(f, x, h, k) == pytest.approx(
        kth_difference(f, x, h, k), abs=1e-12
    )


def test_osc_constant_is_zero():
    f = make_grid_function(np.full((4, 4), 3.7))
    for k in (1, 2, 3):
        assert osc_k(f, None, k) == 0.0


def test_osc_annihilates_low_degree():
    x = np.linspace(0, 1, 5)
    f = GridFunction(1.5 + 2.0 * x[:, None] - 0.5 * x[None, :])  # degree 1
    assert osc_k(f, None, 2) <= 1e-12 * (1 + f.sup_norm())


def test_osc_quadratic_value():
    f = _linspace_grid(5, lambda x: x**2)
    # attained at step h = 1/2: |f(0) - 2 f(1/2) + f(1)| = 2 (1/2)^2
    assert osc_k(f, None, 2) == pytest.approx(0.5, abs=1e-15)


def test_osc_1_is_range():
    rng = np.random.default_rng(5)
    f = GridFunction(rng.uniform(-2, 2, size=(4, 4)))
    assert osc_k(f, None, 1) == pytest.approx(float(np.ptp(f.values)), abs=1e-15)


def test_osc_small_cube_no_admissible_pair():
    rng = np.random.default_rng(6)
    f = GridFunction(rng.uniform(-1, 1, size=(4, 4)))
    # a side-1 cube admits no k=2 step vector
    assert osc_k(f, LatticeCube((1, 1), 1), 2) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(1, 3), st.data())
def test_osc_matches_exhaustive_oracle(n, k, data):
    d = data.draw(st.integers(1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
    side = data.draw(st.integers(1, n - 1))
    origin = tuple(data.draw(st.integers(0, n - 1 - side)) for _ in range(d))
    cube = LatticeCube(origin, side)
    assert osc_k(f, cube, k) == pytest.approx(osc_oracle(f, cube, k), abs=1e-12)


def test_osc_directional_restricts_isotropic():
    rng = np.random.default_rng(11)
    f = GridFunction(rng.uniform(-1, 1, size=(5, 5)))
    for k in (1, 2):
        full = osc_k(f, None, k)
        for axis in range(2):
            assert osc_directional(f, None, k, axis) <= full


def test_osc_directional_axis_validation():
    f = make_grid_function(np.zeros((3, 3)))
    with pytest.raises(GridvarError):
        osc_directional(f, None, 1, 2)
    with pytest.raises(GridvarError):
        osc_directional(f, None, 1, -1)


def test_osc_mixed_equals_directional_exactly():
    rng = np.random.default_rng(12)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
        for axis in range(d):
            alpha = tuple(k if i == axis else 0 for i in range(d))
            assert osc_mixed(f, None, alpha) == osc_directional(f, None, k, axis)


def test_osc_mixed_pure_product_case():
    # f = xy on the 2x2 grid: the (1,1) mixed difference is the corner sum
    f = make_grid_function([[0.0, 0.0], [0.0, 1.0]])
    assert osc_mixed(f, None, (1, 1)) == pytest.approx(1.0, abs=1e-15)


def test_osc_mixed_validation():
    f = make_grid_function(np.zeros((3, 3)))
    with pytest.raises(GridvarError):
        osc_mixed(f, None, (0, 0))  # order zero
    with pytest.raises(GridvarError):
        osc_mixed(f, None, (1,))  # wrong length


def test_osc_cube_monotone():
    rng = np.random.default_rng(13)
    f = GridFunction(rng.uniform(-1, 1, size=(5, 5)))
    inner = LatticeCube((1, 1), 2)
    outer = LatticeCube((0, 0), 4)
    for k in (1, 2):
        assert osc_k(f, inner, k) <= osc_k(f, outer, k) + 1e-15


def test_osc_raises_where_a_difference_overflows():
    # the first differences overflow to -inf and inf; an inf or NaN in the
    # shift-subtract chain leaves the k-th difference unknown
    f = GridFunction([1.7e308, -1.7e308, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridvarError, match="overflow"):
            osc_k(f, None, 2)
        assert osc_k(f, LatticeCube((0,), 1), 2) == 0.0  # no stencil fits
        assert osc_k(f, None, 1) == np.inf  # max - min overflows to inf


def test_directional_and_mixed_raise_where_a_difference_overflows():
    # both 4th differences along the axis are NaN (inf - inf in the chain);
    # skipping them would report 0
    f = GridFunction([1e308, 1.7e308, -1.7e308, -1e308, 1e308, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        for osc in (lambda: osc_k(f, None, 4), lambda: osc_directional(f, None, 4, 0),
                    lambda: osc_mixed(f, None, (4,))):
            with pytest.raises(GridvarError, match="overflow"):
                osc()
        g = GridFunction(np.array([[1.7e308, -1.7e308], [0.0, 0.0]]))
        with pytest.raises(GridvarError, match="overflow"):
            osc_mixed(g, None, (1, 1))
        # a first difference that overflows is still +-inf, as osc_k(., 1) is
        assert osc_directional(g, None, 1, 1) == np.inf
