import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridvar import approx
from gridvar.approx import (
    best_minimax_poly,
    cube_frame,
    e_k,
    make_polynomial,
    minimax_reference,
    poly_multi_indices,
    poly_space_dim,
)
from gridvar.errors import GridvarError, GuardError, LPError
from gridvar.grid import GridFunction, LatticeCube, make_grid_function

from oracles import all_cubes, alternation_bracket


def test_poly_multi_indices_graded():
    assert poly_multi_indices(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]
    assert poly_space_dim(2, 3) == 6  # dim of total degree <= 2 in two variables
    assert poly_space_dim(3, 1) == 1


def test_polynomial_evaluate():
    # p(x, y) = 1 + 2 (x - 0.5) on center (0.5, 0.5), scale 1
    p = make_polynomial((0.5, 0.5), 1.0, {(0, 0): 1.0, (1, 0): 2.0})
    vals = p.evaluate(np.array([[0.5, 0.0], [1.0, 0.25]]))
    assert vals == pytest.approx([1.0, 2.0])
    assert p.alphas == ((0, 0), (1, 0)) and p.coefficients == (1.0, 2.0)
    assert p.terms == (((0, 0), 1.0), ((1, 0), 2.0))


def test_cube_frame():
    center, scale = cube_frame(LatticeCube((1, 0), 2), n=5)
    assert center == (0.5, 0.25)
    assert scale == pytest.approx(0.5)


def test_e1_is_midrange():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = GridFunction(rng.uniform(-2, 2, size=(4, 4)))
        cube = f.whole_cube()
        vals = f.values
        assert e_k(f, cube, 1) == pytest.approx(
            (vals.max() - vals.min()) / 2.0, abs=1e-12
        )


def test_quadratic_three_points():
    f = make_grid_function([0.0, 0.25, 1.0])  # x^2 on {0, 1/2, 1}
    result = best_minimax_poly(f, f.whole_cube(), 2)
    assert result.value == 0.125
    # the minimizer is x - 1/8: check by evaluating at the lattice
    approx_vals = result.minimizer.evaluate(np.array([0.0, 0.5, 1.0]))
    assert approx_vals == pytest.approx([-0.125, 0.375, 0.875], abs=1e-10)
    # all three points are active in the certificate
    assert set(result.certificate) == {(0,), (1,), (2,)}
    assert minimax_reference(f, f.whole_cube(), 2) == 0.125


def test_interpolation_gives_zero():
    # two points, affine space: exact fit
    f = make_grid_function([3.0, -1.0])
    assert e_k(f, f.whole_cube(), 2) <= 1e-12


def test_low_degree_annihilation():
    x = np.linspace(0, 1, 4)
    f = GridFunction(0.3 - 1.2 * x[:, None] + 0.7 * x[None, :])
    assert e_k(f, f.whole_cube(), 2) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_shift_invariance(seed, k):
    rng = np.random.default_rng(seed)
    n = 4
    f = GridFunction(rng.uniform(-1, 1, size=(n, n)))
    cube = f.whole_cube()
    base = e_k(f, cube, k)
    # adding an element of the approximating space leaves the error unchanged
    x = np.linspace(0, 1, n)
    poly = sum(
        rng.standard_normal() * x[:, None] ** a * x[None, :] ** b
        for a, b in poly_multi_indices(2, k - 1)
    )
    shifted = GridFunction(f.values + poly)
    assert e_k(shifted, cube, k) == pytest.approx(base, abs=1e-9 * (1 + base))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(-4.0, 4.0))
@example(199, 5e-324)  # subnormal data: the certificate tolerance must not underflow
def test_homogeneity(seed, lam):
    rng = np.random.default_rng(seed)
    f = GridFunction(rng.uniform(-1, 1, size=5))
    cube = f.whole_cube()
    base = e_k(f, cube, 2)
    scaled = e_k(GridFunction(lam * f.values), cube, 2)
    assert scaled == pytest.approx(abs(lam) * base, abs=1e-9 * (1 + abs(lam) * base))
    for big_or_small in (1e-12, 1e12, 2.0**-40):
        scaled = e_k(GridFunction(big_or_small * f.values), cube, 2)
        assert abs(scaled - big_or_small * base) <= 1e-10 * big_or_small * (1 + base)


def test_cube_monotone():
    rng = np.random.default_rng(9)
    f = GridFunction(rng.uniform(-1, 1, size=(5, 5)))
    for k in (1, 2):
        inner = e_k(f, LatticeCube((1, 1), 2), k)
        outer = e_k(f, LatticeCube((0, 0), 4), k)
        assert inner <= outer + 1e-9 * (1 + outer)


def test_lp_matches_subset_reference():
    rng = np.random.default_rng(17)
    for d, n, orders in ((1, 5, (1, 2, 3)), (2, 4, (1, 2))):
        for seed in range(4):
            f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
            for cube in all_cubes(d, n):
                if cube.point_count() > 12:
                    continue
                for k in orders:
                    lp = best_minimax_poly(f, cube, k).value
                    ref = minimax_reference(f, cube, k)
                    assert lp == pytest.approx(ref, abs=1e-9 * (1 + ref)), (
                        d, n, seed, cube, k,
                    )


def test_reference_guard():
    f = make_grid_function(np.zeros((5, 5)))
    with pytest.raises(GuardError):
        minimax_reference(f, f.whole_cube(), 1)  # 25 points > 12
    assert minimax_reference(f, f.whole_cube(), 1, allow_large=True) == 0.0


def test_certificate_size():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = GridFunction(rng.uniform(-1, 1, size=5))
        res = best_minimax_poly(f, f.whole_cube(), 2)
        if res.value > 1e-9:
            # an optimal reference needs at least dim + 1 active points
            assert len(res.certificate) >= poly_space_dim(1, 2) + 1


def test_validation():
    f = make_grid_function([0.0, 1.0, 2.0])
    with pytest.raises(GridvarError):
        best_minimax_poly(f, f.whole_cube(), 0)
    with pytest.raises(GridvarError):
        e_k(f, LatticeCube((0, 0), 1), 1)  # cube dimension mismatch


# d=1, n=33 grids of three families at seed 0; on these the primal LP in
# monomials raised "unbounded", returned values off the optimum on both
# sides, or lost a 1e-12 scale to absolute tolerances
def _family_grids_d1n33() -> dict[str, np.ndarray]:
    n = 33
    x = np.arange(n) / (n - 1)
    rng = np.random.default_rng(0)
    poly9 = sum(rng.standard_normal() * x**j for j in range(10))
    rng = np.random.default_rng(0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=8)
    lacunary = sum(2.0**-j * np.cos(2.0**j * math.pi * np.linspace(0.0, 1.0, n) + phases[j])
                   for j in range(8))
    uniform = np.random.default_rng(0).uniform(-1.0, 1.0, size=n)
    return {"polynomial9": poly9, "lacunary": lacunary, "uniform": uniform}


@pytest.mark.parametrize("family", ["polynomial9", "lacunary", "uniform"])
def test_high_degree_bracketed_by_alternation(family):
    vals = _family_grids_d1n33()[family]
    f = GridFunction(vals)
    tol = 1e-9 * float(np.max(np.abs(vals)))
    for k in range(2, 21):
        res = best_minimax_poly(f, f.whole_cube(), k)
        err = vals - res.minimizer.evaluate(np.arange(f.n) / (f.n - 1))
        low, high = alternation_bracket(err, k)
        assert high - low <= tol, (k, low, high)
        assert low - tol <= res.value <= high + tol, (k, low, res.value, high)


@pytest.mark.parametrize("family", ["polynomial9", "lacunary", "uniform"])
def test_extreme_scales(family):
    vals = _family_grids_d1n33()[family]
    cube = LatticeCube((0,), 32)
    # an error at round-off level (a degree-9 polynomial from k = 10 on) has
    # no relative accuracy, hence the 1e-15 * max|f| floor
    floor = 1e-15 * float(np.max(np.abs(vals)))
    for k in range(2, 21):
        base = e_k(GridFunction(vals), cube, k)
        assert e_k(GridFunction(2.0**-40 * vals), cube, k) == 2.0**-40 * base
        tiny = e_k(GridFunction(1e-12 * vals), cube, k)
        assert abs(tiny - 1e-12 * base) <= 1e-12 * (1e-12 * base) + 1e-12 * floor, (k, tiny, base)


@pytest.mark.parametrize("family", ["polynomial9", "lacunary", "uniform"])
def test_certificate_is_scale_invariant(family):
    vals = _family_grids_d1n33()[family]
    for k in range(2, 9):
        f = GridFunction(vals)
        base = best_minimax_poly(f, f.whole_cube(), k).certificate
        assert len(base) == k + 1, (k, base)
        for lam in (2.0**-40, 1e-12, 1e12):
            f = GridFunction(lam * vals)
            assert best_minimax_poly(f, f.whole_cube(), k).certificate == base, (k, lam)


def test_values_past_2_to_the_1023():
    """max|f| >= 2^1023 is scaled by 2^-e without forming 2^e: the value,
    minimizer and certificate are those of f/2, doubled."""
    vals = np.array([0.0, 1.7e308, 0.0, 1.0])
    f, half = GridFunction(vals), GridFunction(vals / 2.0)
    got = best_minimax_poly(f, f.whole_cube(), 2)
    want = best_minimax_poly(half, half.whole_cube(), 2)
    assert got.value == 2.0 * want.value and got.value > 8e307
    assert got.certificate == want.certificate
    assert [c for _, c in got.minimizer.terms] == [2.0 * c for _, c in want.minimizer.terms]
    assert e_k(f, f.whole_cube(), 2) == got.value


def test_overflowing_minimizer_raises():
    # the best quadratic through these has coefficients past float64's range
    f = GridFunction([0.0, 1.7e308, -1.7e308, 1.0])
    with pytest.raises(GridvarError, match="overflow"):
        best_minimax_poly(f, f.whole_cube(), 3)


def _highs_minimax(vals: np.ndarray, k: int) -> float:
    """min_m max |f - m| by HiGHS, in a tensor Legendre basis on [-1, 1]^d."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    legendre = np.polynomial.legendre
    n, d = vals.shape[0], vals.ndim
    scale = float(np.max(np.abs(vals)))
    t = 2.0 * np.indices(vals.shape).reshape(d, -1).T / (n - 1) - 1.0
    alphas = [a for a in itertools.product(range(k), repeat=d) if sum(a) <= k - 1]
    phi = np.column_stack([
        np.prod([legendre.legval(t[:, i], [0] * a + [1]) for i, a in enumerate(alpha)], axis=0)
        for alpha in alphas
    ])
    npts, ncoef = phi.shape
    ones = np.ones((npts, 1))
    g = vals.ravel() / scale
    res = linprog(np.r_[np.zeros(ncoef), 1.0],
                  A_ub=np.vstack([np.hstack([-phi, -ones]), np.hstack([phi, -ones])]),
                  b_ub=np.r_[-g, g], bounds=[(None, None)] * ncoef + [(0, None)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.x[-1]) * scale


def test_matches_highs_d2n17():
    vals = np.random.default_rng(41).uniform(-1.0, 1.0, size=(17, 17))
    f = GridFunction(vals)
    for k in (2, 3, 4):
        want = _highs_minimax(vals, k)
        assert best_minimax_poly(f, f.whole_cube(), k).value == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d2n9_k7_returns_the_optimum_or_raises(seed):
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, 9))
    f = GridFunction(vals)
    want = _highs_minimax(vals, 7)
    try:
        got = best_minimax_poly(f, f.whole_cube(), 7).value
    except LPError:
        return
    assert got == pytest.approx(want, abs=1e-7)


def test_interpolating_cubes_give_exact_zeros():
    # these zeros decide ties in the exact packing optimizers
    rng = np.random.default_rng(31)
    f2 = GridFunction(rng.uniform(-1.0, 1.0, size=(5, 5)))
    for cube in all_cubes(2, 5):
        if cube.side == 1:
            assert e_k(f2, cube, 3) == 0.0
    f1 = GridFunction(rng.uniform(-1.0, 1.0, size=9))
    for k in range(2, 9):
        for cube in all_cubes(1, 9, min_side=k - 1):
            if cube.side == k - 1:
                assert e_k(f1, cube, k) == 0.0


def _value_of_best(f, cube, k):
    return best_minimax_poly(f, cube, k).value


_OFF_VALUE = ("objective", lambda v: v * (1 + 1e-6))  # a value off the optimum
_OFF_MINIMIZER = ("multipliers", lambda y: y + 1e-6)  # a minimizer off the optimum


@pytest.mark.parametrize("entry, field, perturb", [
    (_value_of_best, *_OFF_VALUE),
    (_value_of_best, *_OFF_MINIMIZER),
    (e_k, *_OFF_VALUE),
    (e_k, *_OFF_MINIMIZER),
], ids=["value", "minimizer", "e_k-value", "e_k-minimizer"])
def test_uncertified_solution_raises(monkeypatch, entry, field, perturb):
    """Both entry points check the two-sided certificate; e_k discards the
    minimizer but not the check on it."""
    solve = approx.solve_lp

    def wrong(c, A, b, **kw):
        sol = solve(c, A, b, **kw)
        return dataclasses.replace(sol, **{field: perturb(getattr(sol, field))})

    f = GridFunction(np.random.default_rng(5).uniform(-1.0, 1.0, size=9))
    assert entry(f, f.whole_cube(), 3) > 0.0
    monkeypatch.setattr(approx, "solve_lp", wrong)
    with pytest.raises(LPError, match="certificate"):
        entry(f, f.whole_cube(), 3)


@pytest.mark.parametrize("d, n", [(2, 5), (1, 17)])
def test_e_k_is_the_value_of_best_minimax_poly(d, n):
    """The value-only path returns best_minimax_poly's value exactly, on
    every cube: interpolating ones (no LP) and ones sharing a phase-1 start."""
    f = GridFunction(np.random.default_rng(17).uniform(-1.0, 1.0, size=(n,) * d))
    for k in range(2, 5):
        for cube in all_cubes(d, n):
            assert e_k(f, cube, k) == best_minimax_poly(f, cube, k).value, (cube, k)
