"""Best uniform polynomial approximation on the lattice points of a cube.

The degree-(k-1) minimax error

    e_k(f; Q) = min over polynomials m of total degree <= k-1 of
                max over lattice points x in Q of |f(x) - m(x)|

is computed by the dual linear program over an orthonormal basis of the
polynomials on the cube's lattice: tensor products of 1-d discrete
orthonormal polynomials, shared by every cube of one side. The LP's
constraints depend only on (d, side, k), so its phase 1 runs once per
(d, side, k) and each cube runs phase 2 only. The minimizer is recovered
from the simplex multipliers and returned in monomials of the locally
rescaled variable (x - center(Q)) / side(Q). Each value is certified from
both sides (the minimizer's error above, an annihilating weight vector
below) or LPError is raised; e_k runs the same certified LP and returns
the value alone. Cubes on which the polynomials interpolate get exactly 0
without an LP. For k = 1 the value has a closed form, (max - min)/2, used
as a fast path by callers that only need the value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridvarError, GuardError, LPError
from .grid import GridFunction, LatticeCube, check_cube_in_grid
from .simplex import FeasibleStart, feasible_start, solve_lp

CERT_TOL = 1e-9
_LP_TOL = 1e-12  # reduced-cost tolerance of the dual LP, whose data are O(1)


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


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Polynomial in the shifted variable z = (x - center)/scale.

    p(x) = sum c_a z^a over the multi-indices a in `alphas` (graded order)
    and the matching `coefficients`; `terms` gives the (a, c_a) pairs.
    """

    center: tuple[float, ...]
    scale: float
    alphas: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return tuple(zip(self.alphas, self.coefficients))

    def evaluate(self, points: np.ndarray | Sequence) -> np.ndarray:
        """Evaluate at continuous points, shape (m, d) or (m,) when d = 1."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.d == 1 else pts[None, :]
        z = (pts - np.asarray(self.center)) / self.scale
        vals = np.zeros(len(z))
        for alpha, coef in zip(self.alphas, self.coefficients):
            vals += coef * np.prod(z ** np.asarray(alpha), axis=1)
        return vals


def make_polynomial(center: Sequence[float], scale: float,
                    coefficients: dict[tuple[int, ...], float]) -> Polynomial:
    terms = sorted(coefficients.items(), key=lambda t: (sum(t[0]), t[0]))
    return Polynomial(tuple(float(c) for c in center), float(scale),
                      tuple(a for a, _ in terms), tuple(float(c) for _, c in terms))


@dataclass(frozen=True, slots=True)
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


@functools.lru_cache(maxsize=64)
def _line_basis(side: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete orthonormal polynomials q_0..q_degree on the side+1 points
    z_i = i/side - 1/2, by Arnoldi with reorthogonalization.

    Returns their values (points x polynomials) and their monomial
    coefficients in z (powers x polynomials).
    """
    z = np.arange(side + 1) / side - 0.5
    q = np.zeros((side + 1, degree + 1))
    coef = np.zeros((degree + 1, degree + 1))
    q[:, 0] = coef[0, 0] = 1.0 / math.sqrt(side + 1)
    for j in range(degree):
        v = z * q[:, j]
        c = np.roll(coef[:, j], 1)  # z * q_j; the top power of q_j is below `degree`
        for _ in range(2):  # Gram-Schmidt twice keeps the columns orthonormal
            h = q[:, : j + 1].T @ v
            v -= q[:, : j + 1] @ h
            c -= coef[:, : j + 1] @ h
        norm = math.sqrt(float(v @ v))
        q[:, j + 1] = v / norm
        coef[:, j + 1] = c / norm
    return q, coef


@dataclass(frozen=True)
class _CubeBasis:
    """Everything the minimax LP needs that depends only on (d, side, k)."""

    alphas: tuple[tuple[int, ...], ...]  # the Polynomial's monomials, graded order
    monomials: np.ndarray  # z^alpha at the lattice points, points x monomials
    q: np.ndarray  # orthonormal basis of the polynomial space, points x rank
    to_monomials: np.ndarray  # monomial coefficients of q's columns, monomials x rank
    A: np.ndarray  # dual LP constraints [Q^T, -Q^T, 0; 1, 1, 1]
    b: np.ndarray  # their right-hand side (0, ..., 0, 1)
    start: FeasibleStart | None  # phase 1 of the LP; None when the polynomials interpolate


@functools.lru_cache(maxsize=64)
def _cube_basis(d: int, side: int, k: int) -> _CubeBasis:
    """Tensor products of 1-d orthonormal polynomials of degree <= min(side, k-1).

    On the (side+1)^d lattice the products with |alpha| <= k-1 and every
    alpha_i <= side span the polynomials of total degree <= k-1 exactly, so
    the rank is known without a tolerance.
    """
    alphas = poly_multi_indices(d, k - 1)
    degree = min(side, k - 1)
    line, line_coef = _line_basis(side, degree)
    z = np.arange(side + 1) / side - 0.5
    powers = z[:, None] ** np.arange(k)
    coef = np.zeros((k, degree + 1))
    coef[: degree + 1] = line_coef
    spanning = [a for a in alphas if max(a) <= side]

    def tensor(table: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
        return functools.reduce(np.multiply.outer, [table[:, a] for a in alpha]).ravel()

    monomials = np.column_stack([tensor(powers, a) for a in alphas])
    q = np.column_stack([tensor(line, a) for a in spanning])
    # the tensor of coefficient columns is indexed by all powers below k
    flat = np.ravel_multi_index(np.array(alphas).T, (k,) * d)
    to_monomials = np.column_stack([tensor(coef, a)[flat] for a in spanning])
    A = np.zeros((q.shape[1] + 1, 2 * q.shape[0] + 1))
    A[:-1, : q.shape[0]] = q.T
    A[:-1, q.shape[0] : -1] = -q.T
    A[-1] = 1.0
    b = np.zeros(q.shape[1] + 1)
    b[-1] = 1.0
    for arr in (monomials, q, to_monomials, A, b):
        arr.flags.writeable = False
    start = feasible_start(A, b, tol=_LP_TOL) if q.shape[0] > q.shape[1] else None
    return _CubeBasis(tuple(alphas), monomials, q, to_monomials, A, b, start)


@functools.lru_cache(maxsize=4096)
def _lattice_point(*point: int) -> tuple[int, ...]:
    """One shared tuple per recently certified lattice point, so the
    certificates kept by callers share their points."""
    return point


def best_minimax_poly(f: GridFunction, cube: LatticeCube, k: int) -> ApproxResult:
    """Best uniform approximation by total degree <= k-1 on the cube's lattice.

    Solved as the dual LP: maximize sum lambda_x g(x) subject to
    Q^T lambda = 0 and ||lambda||_1 <= 1, where g = f / 2^e (2^e near
    max|f|, so the scaling is exact) and Q is an orthonormal basis of the
    polynomial space on the lattice. The LP's phase 1 is shared by every
    cube of one (d, side, k); each cube runs phase 2 only. The minimizer
    comes from the simplex multipliers. The value is certified from both
    sides: the minimizer's error U = max|f - m| and the lower bound
    L = |sum lambda' f| / ||lambda'||_1 of the annihilating part lambda' of
    lambda must agree, and bracket the value, to CERT_TOL * 2^e. Raises
    LPError (with the cube and k in the message) otherwise, or if the solver
    fails, and GridvarError if the minimizer overflows float64. The
    certificate lists the lattice points whose error is within
    CERT_TOL * 2^e of the value.
    """
    value_f, coef_f, err, value = _certified_minimax(f, cube, k)
    center, cube_scale = cube_frame(cube, f.n)
    minimizer = Polynomial(center, cube_scale, _cube_basis(f.d, cube.side, k).alphas,
                           tuple(coef_f.tolist()))
    attained = (err >= value - CERT_TOL).tolist()
    certificate = tuple(_lattice_point(*pt)
                        for pt, hit in zip(cube.lattice_points(), attained) if hit)
    return ApproxResult(value=value_f, minimizer=minimizer, certificate=certificate)


def _certified_minimax(f: GridFunction, cube: LatticeCube,
                       k: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The certified LP of best_minimax_poly (see there).

    Returns the value and the minimizer's monomial coefficients (in the
    order of _cube_basis(d, side, k).alphas), both in units of f, then the
    errors |g - m| at the cube's lattice points (row-major) and the value,
    both in units of 2^e, for the certificate.
    """
    if k < 1:
        raise GridvarError(f"approximation order must be >= 1, got {k}")
    fvals = f.restrict(cube).ravel()
    basis = _cube_basis(f.d, cube.side, k)
    npts, rank = basis.q.shape
    fmax = float(np.max(np.abs(fvals)))
    e = math.frexp(fmax)[1]  # 0 when fmax is 0; 2^e itself can overflow
    g = np.ldexp(fvals, -e)

    def fail(reason: str) -> LPError:
        return LPError(f"minimax LP failed on cube {cube.origin} side {cube.side}, k={k}: {reason}")

    if basis.start is None:  # the polynomials interpolate: the error is exactly 0
        value, lam, y = 0.0, np.zeros(npts), -(basis.q.T @ g)
    else:
        c = np.concatenate([-g, g, [0.0]])
        try:
            sol = solve_lp(c, basis.A, basis.b, tol=_LP_TOL, start=basis.start)
        except LPError as exc:
            raise fail(str(exc)) from exc
        value = max(-sol.objective, 0.0)  # a max of absolute values: below 0 is round-off
        lam = sol.x[:npts] - sol.x[npts:-1]
        y = sol.multipliers[:-1]
    # certified in units of 2^e, so the check cannot underflow for tiny f
    coef = -(basis.to_monomials @ y)
    err = np.abs(g - basis.monomials @ coef)
    upper = float(np.max(err))
    lam = lam - basis.q @ (basis.q.T @ lam)
    mass = float(np.sum(np.abs(lam)))
    lower = abs(float(lam @ g)) / mass if mass > 0.0 else 0.0
    if not (upper - lower <= CERT_TOL and lower - CERT_TOL <= value <= upper + CERT_TOL):
        with np.errstate(over="ignore"):
            lower, value, upper = np.ldexp([lower, value, upper], e)
        raise fail(f"certificate gap: lower {lower:.17g}, value {value:.17g}, upper {upper:.17g}")

    with np.errstate(over="ignore"):
        value_f, coef_f = float(np.ldexp(value, e)), np.ldexp(coef, e)
    if not (math.isfinite(value_f) and np.all(np.isfinite(coef_f))):
        raise GridvarError(f"minimax polynomial on cube {cube.origin} side {cube.side}, k={k}: "
                           "its value or coefficients overflow float64")
    return value_f, coef_f, err, value


def e_k(f: GridFunction, cube: LatticeCube, k: int) -> float:
    """Minimax error value only. k = 1 uses the exact midrange identity;
    k >= 2 runs the certified LP of best_minimax_poly, with its errors, and
    skips building the minimizer and the certificate."""
    if k == 1:
        sub = f.restrict(cube)
        return float(np.max(sub) - np.min(sub)) / 2.0
    return _certified_minimax(f, cube, k)[0]


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
