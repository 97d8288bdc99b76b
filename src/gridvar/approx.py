"""Best uniform polynomial approximation on the lattice points of a cube.

The degree-(k-1) minimax error

    e_k(f; Q) = min over polynomials m of total degree <= k-1 of
                max over lattice points x in Q of |f(x) - m(x)|

is computed by linear programming in a basis of monomials in the locally
rescaled variable (x - center(Q)) / side(Q). Optimality is certified by the
solver's dual feasibility (reduced costs >= -1e-9). For k = 1 the value has
a closed form, (max - min)/2, used as a fast path by callers that only need
the value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridvarError, GuardError, LPError
from .grid import GridFunction, LatticeCube, check_cube_in_grid
from .simplex import solve_lp

CERT_TOL = 1e-9


def poly_multi_indices(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with |alpha| <= max_degree, graded lexicographic order."""
    out = [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=d)
        if sum(alpha) <= max_degree
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def poly_space_dim(d: int, k: int) -> int:
    """Dimension of polynomials of total degree <= k-1 in d variables."""
    return math.comb(k - 1 + d, d)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the shifted variable z = (x - center)/scale.

    `terms` maps multi-indices to coefficients: p(x) = sum c_a z^a.
    """

    center: tuple[float, ...]
    scale: float
    terms: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def coefficients(self) -> dict[tuple[int, ...], float]:
        return dict(self.terms)

    @property
    def degree(self) -> int:
        return max((sum(a) for a, _ in self.terms), default=0)

    def evaluate(self, points: np.ndarray | Sequence) -> np.ndarray:
        """Evaluate at continuous points, shape (m, d) or (m,) when d = 1."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.d == 1 else pts[None, :]
        z = (pts - np.asarray(self.center)) / self.scale
        vals = np.zeros(len(z))
        for alpha, coef in self.terms:
            vals += coef * np.prod(z ** np.asarray(alpha), axis=1)
        return vals

    def evaluate_on_grid(self, grid: GridFunction) -> np.ndarray:
        pts = np.array(list(itertools.product(range(grid.n), repeat=grid.d)), dtype=float)
        return self.evaluate(pts / (grid.n - 1)).reshape((grid.n,) * grid.d)


def make_polynomial(center: Sequence[float], scale: float,
                    coefficients: dict[tuple[int, ...], float]) -> Polynomial:
    terms = tuple(sorted(coefficients.items(), key=lambda t: (sum(t[0]), t[0])))
    return Polynomial(tuple(float(c) for c in center), float(scale), terms)


@dataclass(frozen=True)
class ApproxResult:
    value: float
    minimizer: Polynomial
    certificate: tuple[tuple[int, ...], ...]  # lattice points attaining the value


def cube_frame(cube: LatticeCube, n: int) -> tuple[tuple[float, ...], float]:
    """Continuous center and scale (= side length) of a cube in [0,1]^d."""
    center = tuple((o + cube.side / 2.0) / (n - 1) for o in cube.origin)
    return center, cube.side / (n - 1)


def _basis_matrix(coords: np.ndarray, center: Sequence[float], scale: float,
                  alphas: list[tuple[int, ...]]) -> np.ndarray:
    z = (coords - np.asarray(center)) / scale
    cols = [np.prod(z ** np.asarray(a), axis=1) for a in alphas]
    return np.column_stack(cols)


def best_minimax_poly(f: GridFunction, cube: LatticeCube, k: int) -> ApproxResult:
    """Best uniform approximation by total degree <= k-1 on the cube's lattice.

    Solved as an LP: minimize t subject to -t <= f(x) - m(x) <= t at every
    lattice point of the cube. Raises LPError (with the cube and k in the
    message) if the solver cannot certify optimality.
    """
    if k < 1:
        raise GridvarError(f"approximation order must be >= 1, got {k}")
    check_cube_in_grid(cube, f)
    pts = list(cube.lattice_points())
    coords = np.asarray(pts, dtype=float) / (f.n - 1)
    fvals = np.array([f.value_at(x) for x in pts])
    center, scale = cube_frame(cube, f.n)
    alphas = poly_multi_indices(f.d, k - 1)
    phi = _basis_matrix(coords, center, scale, alphas)
    P, M = phi.shape

    # variables: [t, u (M), v (M), surplus (2P)]; coefficients are c = u - v
    nvars = 1 + 2 * M + 2 * P
    A = np.zeros((2 * P, nvars))
    b = np.empty(2 * P)
    A[:P, 0] = 1.0
    A[:P, 1 : 1 + M] = phi
    A[:P, 1 + M : 1 + 2 * M] = -phi
    A[P:, 0] = 1.0
    A[P:, 1 : 1 + M] = -phi
    A[P:, 1 + M : 1 + 2 * M] = phi
    A[np.arange(2 * P), 1 + 2 * M + np.arange(2 * P)] = -1.0
    b[:P] = fvals
    b[P:] = -fvals
    c = np.zeros(nvars)
    c[0] = 1.0
    try:
        sol = solve_lp(c, A, b)
    except LPError as exc:
        raise LPError(f"minimax LP failed on cube {cube.origin} side {cube.side}, k={k}: {exc}") from exc

    value = max(float(sol.x[0]), 0.0)  # a max of absolute values: below 0 is round-off
    coef = sol.x[1 : 1 + M] - sol.x[1 + M : 1 + 2 * M]
    minimizer = make_polynomial(center, scale, dict(zip(alphas, coef)))
    err = np.abs(fvals - phi @ coef)
    cert_cut = value - CERT_TOL * (1.0 + abs(value))
    certificate = tuple(pt for pt, e in zip(pts, err) if e >= cert_cut)
    return ApproxResult(value=value, minimizer=minimizer, certificate=certificate)


def e_k(f: GridFunction, cube: LatticeCube, k: int) -> float:
    """Minimax error value only. k = 1 uses the exact midrange identity."""
    if k == 1:
        sub = f.restrict(cube)
        return float(np.max(sub) - np.min(sub)) / 2.0
    return best_minimax_poly(f, cube, k).value


REFERENCE_POINT_LIMIT = 12


def minimax_reference(f: GridFunction, cube: LatticeCube, k: int,
                      allow_large: bool = False) -> float:
    """Slow independent evaluation of e_k via its dual characterization.

    e_k equals the maximum of |sum lambda_x f(x)| / sum |lambda_x| over
    weight vectors lambda annihilating every polynomial of total degree
    <= k-1. Maximizing vectors can be taken supported on at most dim+1
    points with a one-dimensional annihilator there, so scanning all point
    subsets of size 2..dim+1 and, per subset, the null vectors of the
    transposed basis matrix, is exhaustive. Cost grows combinatorially;
    guarded to cubes with at most 12 lattice points.
    """
    if k < 1:
        raise GridvarError(f"approximation order must be >= 1, got {k}")
    check_cube_in_grid(cube, f)
    pts = list(cube.lattice_points())
    if len(pts) > REFERENCE_POINT_LIMIT and not allow_large:
        raise GuardError(
            f"reference-subset search needs {len(pts)} points > {REFERENCE_POINT_LIMIT}; "
            "pass allow_large=True to override"
        )
    coords = np.asarray(pts, dtype=float) / (f.n - 1)
    fvals = np.array([f.value_at(x) for x in pts])
    center, scale = cube_frame(cube, f.n)
    phi = _basis_matrix(coords, center, scale, poly_multi_indices(f.d, k - 1))
    m = phi.shape[1]
    best = 0.0
    for size in range(2, min(m + 1, len(pts)) + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            rows = phi[list(subset)]
            u, s, _ = np.linalg.svd(rows, full_matrices=True)
            smax = s[0] if s.size else 0.0
            for j in range(size):
                null_dir = j >= s.size or s[j] <= 1e-10 * max(smax, 1.0)
                if not null_dir:
                    continue
                lam = u[:, j]
                denom = float(np.sum(np.abs(lam)))
                if denom > 1e-12:
                    best = max(best, abs(float(lam @ fvals[list(subset)])) / denom)
    return best


# Invariants this module promises; the property suite registers them all
# (its completeness check fails if one is missing there).
INVARIANT_IDS = (
    "approx.shift-invariance",
    "approx.homogeneity",
    "approx.upper-bound-vs-interpolants",
    "approx.cube-monotone",
    "approx.whitney-lower-constant",
    "approx.lp-matches-subset-oracle",
)
