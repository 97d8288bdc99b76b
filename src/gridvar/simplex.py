"""Dense two-phase simplex solver with Dantzig pricing and a Bland fallback.

Solves min c.x subject to A x = b, x >= 0 on a dense numpy tableau. The
entering column has the most negative reduced cost (Dantzig's rule); the
leaving row has the minimum ratio, ties going to the largest pivot. After
DEGENERATE_RUN consecutive degenerate pivots the solver prices by Bland's
rule (smallest eligible index enters, smallest basic index breaks ratio
ties) until a pivot makes progress again: Bland's rule cannot cycle, and a
nondegenerate pivot lowers the objective, so the solver terminates.
Optimality is certified by dual feasibility: the solver only stops when
every reduced cost is >= -tol.

The artificial columns of phase 1 stay in the tableau through phase 2, where
they may not enter. Their reduced costs are -y, so the simplex multipliers
(B^T y = c_B) are read off the tableau without another solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPError

PIVOT_TOL = 1e-11
DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule prices


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float
    reduced_costs: np.ndarray
    iterations: int
    multipliers: np.ndarray  # y with B^T y = c_B; 0 on dropped redundant rows


def _pivot(tableau: np.ndarray, rhs: np.ndarray, zrow: np.ndarray, basis: np.ndarray,
           row: int, col: int) -> None:
    piv = tableau[row, col]
    tableau[row] /= piv
    rhs[row] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    rhs -= factors * rhs[row]
    zfac = zrow[col]
    zrow -= zfac * tableau[row]
    basis[row] = col
    # keep the basic columns numerically clean
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    zrow[col] = 0.0


def _run_simplex(tableau: np.ndarray, rhs: np.ndarray, zrow: np.ndarray, basis: np.ndarray,
                 allowed: int, tol: float, max_iter: int) -> int:
    """Pivot until all reduced costs over columns [0, allowed) are >= -tol."""
    iters = 0
    degenerate = 0  # length of the current run of degenerate pivots
    while True:
        costs = zrow[:allowed]
        bland = degenerate >= DEGENERATE_RUN
        if bland:
            improving = np.flatnonzero(costs < -tol)
            if not improving.size:
                return iters
            entering = int(improving[0])
        else:
            entering = int(np.argmin(costs))
            if costs[entering] >= -tol:
                return iters
        col = tableau[:, entering]
        positive = col > PIVOT_TOL
        if not positive.any():
            raise LPError("LP is unbounded")
        ratios = np.full(len(rhs), np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        # Among minimal ratios: Bland leaves the smallest basic index, Dantzig
        # the largest pivot. The threshold must sit above `best` even when
        # roundoff has pushed a basic value (hence `best`) slightly negative.
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
        row = int(ties[np.argmin(basis[ties])] if bland else ties[np.argmax(col[ties])])
        degenerate = degenerate + 1 if best <= 1e-12 else 0
        _pivot(tableau, rhs, zrow, basis, row, entering)
        iters += 1
        if iters > max_iter:
            raise LPError(f"simplex exceeded {max_iter} pivots")


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray, *,
             tol: float = 1e-9, max_iter: int = 100_000) -> LPSolution:
    """Minimize c.x subject to A x = b, x >= 0.

    Raises LPError if the program is infeasible or unbounded, or if the
    final basis cannot be certified optimal (reduced costs >= -tol).
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, nvars = A.shape
    if b.shape != (m,) or c.shape != (nvars,):
        raise LPError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    tableau = np.hstack([A, np.eye(m)])
    rhs = b.copy()
    basis = np.arange(nvars, nvars + m)
    zrow = np.concatenate([-A.sum(axis=0), np.zeros(m)])
    phase1_obj = float(rhs.sum())
    iters = _run_simplex(tableau, rhs, zrow, basis, nvars + m, tol, max_iter)
    infeas = float(rhs[basis >= nvars].sum()) if np.any(basis >= nvars) else 0.0
    if infeas > tol * (1.0 + phase1_obj):
        raise LPError(f"LP infeasible: phase-1 residual {infeas:.3e}")

    # Drive leftover zero-value artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= nvars:
            pivots = np.where(np.abs(tableau[r, :nvars]) > 1e-9)[0]
            if pivots.size:
                _pivot(tableau, rhs, zrow, basis, r, int(pivots[0]))
                iters += 1
            else:
                keep[r] = False
    tableau = tableau[keep]
    rhs = rhs[keep]
    basis = basis[keep]

    # Phase 2: the real objective; artificials cost 0 and may not enter.
    cost = np.concatenate([c, np.zeros(m)])
    zrow = cost - cost[basis] @ tableau
    iters += _run_simplex(tableau, rhs, zrow, basis, nvars, tol, max_iter)

    if np.min(zrow[:nvars]) < -tol:
        raise LPError("optimality certificate failed: negative reduced cost")
    x = np.zeros(nvars)
    x[basis] = rhs
    y = -zrow[nvars:]
    y[flip] *= -1.0
    return LPSolution(x=x, objective=float(c @ x), reduced_costs=zrow[:nvars],
                      iterations=iters, multipliers=y)
