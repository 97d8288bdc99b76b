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

Phase 1 (feasible_start) reads only A, b and tol, so its result can be
shared: solve_lp(..., start=) runs phase 2 only, from a copy of the start,
and gives the cold solve's result bit for bit. The minimax LP of the approx
module runs phase 1 once per (d, side, k) this way and each cube runs phase
2 only.

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
    iterations: int  # pivots made by this call: phase 2, plus phase 1 without a start
    multipliers: np.ndarray  # y with B^T y = c_B; 0 on dropped redundant rows


@dataclass(frozen=True)
class FeasibleStart:
    """The end of phase 1, read-only: shared by every solve over one A, b."""

    tableau: np.ndarray  # B^-1 [A | I] on the kept rows (rows with b < 0 negated)
    rhs: np.ndarray  # B^-1 b >= 0
    basis: np.ndarray  # basic column per kept row; no artificial left
    flip: np.ndarray  # per original row: was it negated
    iterations: int  # phase-1 pivots, including those driving out artificials

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of A: (rows before dropping, structural columns)."""
        m = len(self.flip)
        return m, self.tableau.shape[1] - m


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


def feasible_start(A: np.ndarray, b: np.ndarray, *,
                   tol: float = 1e-9, max_iter: int = 100_000) -> FeasibleStart:
    """Phase 1 for A x = b, x >= 0: a feasible basis of the rows that stay.

    Rows with b < 0 are negated first. Minimizes the sum of artificials from
    the artificial basis, raises LPError if that sum stays above tol, then
    drives zero-valued artificials out of the basis and drops the rows none
    can leave (redundant rows). The start depends on A, b and tol only, so
    one start serves every objective c over the same constraints.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise LPError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}")
    m, nvars = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # artificial basis, minimize the sum of artificials
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
    start = FeasibleStart(tableau[keep], rhs[keep], basis[keep], flip, iters)
    for arr in (start.tableau, start.rhs, start.basis, start.flip):
        arr.flags.writeable = False
    return start


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray, *,
             tol: float = 1e-9, max_iter: int = 100_000,
             start: FeasibleStart | None = None) -> LPSolution:
    """Minimize c.x subject to A x = b, x >= 0.

    Runs phase 2 from a copy of `start`, which must be feasible_start(A, b)
    (computed here when None), so a start shared by many objectives gives
    the same result, bit for bit, as a cold solve. Raises LPError if the
    program is infeasible or unbounded, if the shapes of c, A, b and start
    disagree, or if the final basis cannot be certified optimal (reduced
    costs >= -tol).
    """
    c = np.array(c, dtype=float)
    shape = np.shape(A) if start is None else start.shape
    if (len(shape) != 2 or np.shape(A) != shape or np.shape(b) != shape[:1]
            or c.shape != shape[1:]):
        raise LPError(f"inconsistent LP shapes: A {np.shape(A)}, b {np.shape(b)}, "
                      f"c {c.shape}, start {None if start is None else start.shape}")
    if start is None:
        start = feasible_start(A, b, tol=tol, max_iter=max_iter)
        iters = start.iterations
    else:
        iters = 0
    m, nvars = shape
    tableau = start.tableau.copy()
    rhs = start.rhs.copy()
    basis = start.basis.copy()

    # Phase 2: the real objective; artificials cost 0 and may not enter.
    cost = np.concatenate([c, np.zeros(m)])
    zrow = cost - cost[basis] @ tableau
    iters += _run_simplex(tableau, rhs, zrow, basis, nvars, tol, max_iter)

    if np.min(zrow[:nvars]) < -tol:
        raise LPError("optimality certificate failed: negative reduced cost")
    x = np.zeros(nvars)
    x[basis] = rhs
    y = -zrow[nvars:]
    y[start.flip] *= -1.0
    return LPSolution(x=x, objective=float(c @ x), reduced_costs=zrow[:nvars],
                      iterations=iters, multipliers=y)
