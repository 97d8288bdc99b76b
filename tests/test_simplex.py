import numpy as np
import pytest

from gridvar import simplex
from gridvar.errors import LPError
from gridvar.simplex import feasible_start, solve_lp

from oracles import lp_reference


def _assert_warm_equals_cold(c, A, b):
    """A shared phase-1 start gives the cold solve's result bit for bit,
    and the start is left unchanged for the next solve."""
    cold = solve_lp(c, A, b)
    start = feasible_start(A, b)
    tableau = start.tableau.copy()
    for _ in range(2):
        warm = solve_lp(c, A, b, start=start)
        assert np.array_equal(warm.x, cold.x)
        assert np.array_equal(warm.multipliers, cold.multipliers)
        assert np.array_equal(warm.reduced_costs, cold.reduced_costs)
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations - start.iterations
    assert np.array_equal(start.tableau, tableau)
    return cold


def test_known_lp():
    # min -x1 - x2 s.t. x1 + x2 + s = 1: optimum -1 at the x1 + x2 = 1 face
    sol = solve_lp(np.array([-1.0, -1.0, 0.0]),
                   np.array([[1.0, 1.0, 1.0]]),
                   np.array([1.0]))
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert np.min(sol.reduced_costs) >= -1e-9


def test_negative_rhs_is_flipped():
    # -x1 = -1 with x1 >= 0 is feasible at x1 = 1
    sol = _assert_warm_equals_cold(np.array([1.0]), np.array([[-1.0]]), np.array([-1.0]))
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.multipliers[0] == pytest.approx(-1.0)


def test_infeasible_raises():
    # x1 + x2 = -1 has no nonnegative solution
    with pytest.raises(LPError):
        solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_unbounded_raises():
    # min -x1 with only x1 - x2 = 0: x1 = x2 -> infinity
    with pytest.raises(LPError):
        solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))


def test_redundant_row_handled():
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])  # second row redundant
    b = np.array([1.0, 2.0])
    sol = _assert_warm_equals_cold(np.array([1.0, 2.0, 3.0]), A, b)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert feasible_start(A, b).tableau.shape == (1, 5)  # the redundant row is dropped


def test_shape_mismatch():
    with pytest.raises(LPError):
        solve_lp(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))


def test_start_shape_mismatch():
    A, b = np.array([[1.0, 1.0, 1.0]]), np.array([1.0])
    start = feasible_start(A, b)
    assert start.shape == (1, 3)
    with pytest.raises(LPError, match="shapes"):
        solve_lp(np.array([1.0, 2.0]), A[:, :2], b, start=start)
    with pytest.raises(LPError, match="shapes"):
        solve_lp(np.array([1.0, 2.0, 3.0, 4.0]), A, b, start=start)
    # the start is for A's shape, whatever A is passed
    with pytest.raises(LPError, match="shapes"):
        solve_lp(np.array([1.0, 2.0, 3.0]), np.ones((2, 3)), np.ones(2), start=start)


def test_start_is_read_only_and_infeasibility_is_raised_by_phase_1():
    start = feasible_start(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        start.tableau[0, 0] = 2.0
    with pytest.raises(LPError, match="infeasible"):
        feasible_start(np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_random_bounded_lps_match_vertex_enumeration():
    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(60):
        m = int(rng.integers(1, 4))
        nvars = int(rng.integers(m + 1, m + 4))
        A = rng.uniform(-1, 1, size=(m, nvars))
        A[0] = np.abs(A[0]) + 0.1  # a strictly positive row bounds the feasible set
        x0 = np.abs(rng.uniform(0.1, 1.0, size=nvars))
        b = A @ x0  # feasible by construction
        c = rng.uniform(-1, 1, size=nvars)
        ref, _ = lp_reference(c, A, b)
        sol = _assert_warm_equals_cold(c, A, b)
        assert sol.objective == pytest.approx(ref, abs=1e-8)
        assert np.min(sol.reduced_costs) >= -1e-9
        assert np.min(sol.x) >= -1e-9
        assert np.max(np.abs(A @ sol.x - b)) < 1e-8
        # the multipliers solve the dual: strong duality and reduced costs
        assert b @ sol.multipliers == pytest.approx(c @ sol.x, abs=1e-9)
        assert np.max(np.abs(sol.reduced_costs - (c - A.T @ sol.multipliers))) < 1e-9
        solved += 1
    assert solved == 60


def test_degenerate_ties_terminate():
    # many coincident vertices: Bland's rule must still terminate
    A = np.array([
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([1.0, 1.0, 1.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
    sol = _assert_warm_equals_cold(c, A, b)
    ref, _ = lp_reference(c, A, b)
    assert sol.objective == pytest.approx(ref, abs=1e-10)


# Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 over the slack basis
# {x1, x2, x3}. Dantzig's rule with lowest-index ratio ties cycles from that
# basis; the optimum is -5/4 at x4 = x6 = 1.
BEALE_A = np.array([
    [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])


def test_beale_cycling_lp():
    sol = _assert_warm_equals_cold(BEALE_C, BEALE_A, BEALE_B)
    assert sol.objective == -1.25
    assert BEALE_B @ sol.multipliers == pytest.approx(-1.25, abs=1e-12)


def _beale_from_slack_basis() -> tuple[float, int]:
    tableau, rhs, zrow = BEALE_A.copy(), BEALE_B.copy(), BEALE_C.copy()
    basis = np.arange(3)
    iters = simplex._run_simplex(tableau, rhs, zrow, basis, 7, 1e-9, 1000)
    return float(BEALE_C[basis] @ rhs), iters


def test_beale_from_slack_basis_bland_fallback(monkeypatch):
    assert _beale_from_slack_basis() == (-1.25, 2)
    # a run of zero degenerate pivots hands every pivot to Bland's rule,
    # whose path through the degenerate vertex is longer
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", 0)
    assert _beale_from_slack_basis() == (-1.25, 6)
