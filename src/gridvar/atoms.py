"""Atoms, chains, and two-sided bounds for the atomic-decomposition norm.

An atom of order k is a finitely supported function living on the lattice
points of one cube, with l1 mass at most 1 and vanishing moments against all
polynomials of total degree <= k-1. A chain spreads atoms over a packing
with coefficients; its size is the l_{p'} norm of the coefficient vector
(1/p + 1/p' = 1, with max for p = 1). The decomposition norm of a finitely
supported g is the infimum of summed chain sizes over presentations of g as
a sum of chains; it is bracketed here by

    lower  =  max over witnesses f of |<f, g>| / variation(f)
    upper  =  best found presentation's summed chain sizes,

the first by the pairing inequality |<f, b>| <= [b]_{p'} var_p^k(f).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .approx import _basis_matrix, poly_multi_indices
from .errors import GridvarError, UnisolventError
from .grid import GridFunction, LatticeCube, is_packing
from .variation import VariationParams, variation_bruteforce

MOMENT_TOL = 1e-10
L1_TOL = 1e-12


def _moments(points: Sequence[tuple[int, ...]], weights: Sequence[float],
             n: int, k: int) -> np.ndarray:
    """Weighted power sums against degree <= k-1 monomials, centered and
    scaled to the point set for conditioning (orthogonality to the
    polynomial space does not depend on the frame)."""
    pts = np.asarray(points, dtype=float) / (n - 1)
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    scale = max(float(np.max(pts.max(axis=0) - pts.min(axis=0))), 1.0 / (n - 1))
    d = pts.shape[1]
    phi = _basis_matrix(pts, center, scale, poly_multi_indices(d, k - 1))
    return np.asarray(weights, dtype=float) @ phi


@dataclass(frozen=True)
class Atom:
    """Weights on lattice points inside one supporting cube."""

    cube: LatticeCube
    weights: tuple[tuple[tuple[int, ...], float], ...]

    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p for p, _ in self.weights)

    def weight_values(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.weights)

    def l1(self) -> float:
        return math.fsum(abs(w) for _, w in self.weights)


def make_atom(cube: LatticeCube, weights: Mapping[tuple[int, ...], float] | Iterable) -> Atom:
    items = weights.items() if isinstance(weights, Mapping) else weights
    cleaned = tuple(sorted((tuple(int(i) for i in p), float(w)) for p, w in items))
    return Atom(cube, cleaned)


@dataclass(frozen=True)
class AtomReport:
    valid: bool
    l1: float
    max_moment: float
    support_ok: bool
    failures: tuple[str, ...]


def validate_atom(atom: Atom, n: int, k: int,
                  l1_tol: float = L1_TOL, moment_tol: float = MOMENT_TOL) -> AtomReport:
    """Check support containment, the l1 bound, and moment orthogonality."""
    failures = []
    support_ok = all(atom.cube.contains_point(p) for p in atom.points())
    if not support_ok:
        failures.append("support leaves the cube")
    if any(hi > n - 1 for hi in atom.cube.upper):
        support_ok = False
        failures.append("cube leaves the grid")
    l1 = atom.l1()
    if l1 > 1.0 + l1_tol:
        failures.append(f"l1 mass {l1} exceeds 1")
    if atom.weights:
        max_moment = float(np.max(np.abs(
            _moments(atom.points(), atom.weight_values(), n, k)
        )))
    else:
        max_moment = 0.0
    if max_moment > moment_tol:
        failures.append(f"moment violation {max_moment:.3e} > {moment_tol:.1e}")
    return AtomReport(
        valid=not failures,
        l1=l1,
        max_moment=max_moment,
        support_ok=support_ok,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class Chain:
    """Atoms on pairwise-disjoint cubes, combined with real coefficients."""

    atoms: tuple[Atom, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.coefficients):
            raise GridvarError("chain needs one coefficient per atom")
        if not is_packing([a.cube for a in self.atoms]):
            raise GridvarError("chain atoms must sit on a packing")

    def items(self) -> Iterator[tuple[tuple[int, ...], float]]:
        for atom, coef in zip(self.atoms, self.coefficients):
            for point, w in atom.weights:
                yield point, coef * w


def make_chain(atoms: Sequence[Atom], coefficients: Sequence[float]) -> Chain:
    return Chain(tuple(atoms), tuple(float(c) for c in coefficients))


def conjugate_exponent(p: float) -> float:
    return math.inf if p == 1.0 else p / (p - 1.0)


def chain_norm(chain: Chain, p: float) -> float:
    """l_{p'} norm of the coefficients, 1/p + 1/p' = 1 (max when p = 1)."""
    coefs = np.abs(np.asarray(chain.coefficients, dtype=float))
    if coefs.size == 0:
        return 0.0
    q = conjugate_exponent(p)
    if math.isinf(q):
        return float(np.max(coefs))
    return float(np.sum(coefs**q) ** (1.0 / q))


def chain_values(chain: Chain, n: int, d: int) -> np.ndarray:
    out = np.zeros((n,) * d)
    for point, v in chain.items():
        out[point] += v
    return out


def delta_correction(point: Sequence[int], interp_set: Sequence[Sequence[int]],
                     k: int, n: int) -> dict[tuple[int, ...], float]:
    """Point mass at `point` minus the unique degree <= k-1 reproduction
    from the interpolating set: the result annihilates every polynomial of
    total degree <= k-1.

    The set must have exactly dim(degree <= k-1 space) points and be
    unisolvent (inverse condition number above 1e-9).
    """
    x = tuple(int(i) for i in point)
    pts = [tuple(int(i) for i in s) for s in interp_set]
    if x in pts:
        raise GridvarError(f"point {x} must not belong to the interpolating set")
    d = len(x)
    alphas = poly_multi_indices(d, k - 1)
    m = len(alphas)
    if len(pts) != m:
        raise GridvarError(f"interpolating set needs exactly {m} points, got {len(pts)}")
    allpts = pts + [x]
    coords = np.asarray(allpts, dtype=float) / (n - 1)
    center = (coords.min(axis=0) + coords.max(axis=0)) / 2.0
    scale = max(float(np.max(coords.max(axis=0) - coords.min(axis=0))), 1.0 / (n - 1))
    phi = _basis_matrix(coords, center, scale, alphas)
    vander, phi_x = phi[:-1], phi[-1]
    svals = np.linalg.svd(vander, compute_uv=False)
    if svals[-1] < 1e-9 * svals[0] or svals[0] == 0.0:
        raise UnisolventError(
            f"interpolating set is not unisolvent for order {k} "
            f"(inverse condition {svals[-1] / max(svals[0], 1e-300):.2e})"
        )
    coef = np.linalg.solve(vander.T, phi_x)
    out = {x: 1.0}
    for s, c in zip(pts, coef):
        out[s] = out.get(s, 0.0) - float(c)
    return out


@dataclass(frozen=True)
class UNormBounds:
    lower: float
    upper: float
    presentation: tuple[Chain, ...]  # achieves `upper`
    witness: tuple[tuple[tuple[int, ...], float], ...]  # achieves `lower`
    params: VariationParams


def _support(g: GridFunction) -> list[tuple[int, ...]]:
    return [tuple(int(i) for i in idx) for idx in np.argwhere(g.values != 0.0)]


def _enclosing_cube(points: Sequence[tuple[int, ...]], n: int) -> LatticeCube:
    lo = [min(p[i] for p in points) for i in range(len(points[0]))]
    hi = [max(p[i] for p in points) for i in range(len(points[0]))]
    side = max(1, max(h - l for l, h in zip(lo, hi)))
    origin = tuple(min(l, n - 1 - side) for l in lo)
    return LatticeCube(origin, side)


def _set_partitions(items: Sequence, cap: int) -> Iterator[list[list]]:
    """Set partitions in restricted-growth order, at most `cap` of them."""
    n = len(items)
    count = 0

    def rec(i: int, blocks: list[list]):
        nonlocal count
        if count >= cap:
            return
        if i == n:
            count += 1
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _chains_for_blocks(g: GridFunction, blocks: list[list[tuple[int, ...]]],
                       k: int) -> list[Chain] | None:
    """One-atom-per-block chains, greedily grouped onto packings; None if
    some block is not moment-free."""
    gnorm = math.fsum(abs(g.value_at(p)) for p in _support(g))
    pieces = []
    for block in blocks:
        weights = [g.value_at(p) for p in block]
        mom = float(np.max(np.abs(_moments(block, weights, g.n, k))))
        mass = math.fsum(abs(w) for w in weights)
        if mom > MOMENT_TOL * (1.0 + gnorm) or mass == 0.0:
            return None
        cube = _enclosing_cube(block, g.n)
        atom = make_atom(cube, {p: w / mass for p, w in zip(block, weights)})
        pieces.append((cube, atom, mass))
    groups: list[list[tuple[LatticeCube, Atom, float]]] = []
    for piece in pieces:
        for group in groups:
            if is_packing([c for c, _, _ in group] + [piece[0]]):
                group.append(piece)
                break
        else:
            groups.append([piece])
    return [make_chain([a for _, a, _ in grp], [c for _, _, c in grp]) for grp in groups]


def u_norm_bounds(g: GridFunction, params: VariationParams, budget: int = 2000,
                  allow_large: bool = False) -> UNormBounds:
    """Bracket the decomposition norm of a finitely supported g.

    Upper: scan set partitions of the support (up to `budget` of them) into
    moment-free blocks; each block becomes one atom on its enclosing cube,
    blocks are greedily grouped into chains on packings, and the best summed
    chain norm wins. The single-block presentation is always admissible, so
    upper <= l1 mass of g. Lower: best duality quotient over deterministic
    and seeded random witnesses.
    """
    support = _support(g)
    if not support:
        raise GridvarError("g must not be identically zero")
    gvals = [g.value_at(p) for p in support]
    mom = float(np.max(np.abs(_moments(support, gvals, g.n, params.k))))
    gnorm = math.fsum(abs(v) for v in gvals)
    if mom > MOMENT_TOL * (1.0 + gnorm):
        raise GridvarError(
            f"g must annihilate degree <= {params.k - 1} polynomials; "
            f"worst moment {mom:.3e}"
        )

    best_upper = math.inf
    best_chains: list[Chain] = []
    for blocks in _set_partitions(support, cap=max(1, budget)):
        chains = _chains_for_blocks(g, blocks, params.k)
        if chains is None:
            continue
        total = math.fsum(chain_norm(ch, params.p) for ch in chains)
        if total < best_upper:
            best_upper = total
            best_chains = chains

    rng = np.random.default_rng(0)

    def as_array(point_weights: Mapping[tuple[int, ...], float]) -> np.ndarray:
        w = np.zeros_like(g.values)
        for pt, val in point_weights.items():
            w[pt] += val
        return w

    # Witness family: g itself and its sign pattern, point masses and
    # signed pairs on the support, corrected deltas near the support, and a
    # few seeded random support patterns.
    witnesses: list[np.ndarray] = [g.values.copy(), np.sign(g.values)]
    base = sorted(support)[:6]
    for pt in base:
        witnesses.append(as_array({pt: 1.0}))
    for a, b in itertools.combinations(base, 2):
        witnesses.append(as_array({a: 1.0, b: -1.0}))
    dim = len(poly_multi_indices(g.d, params.k - 1))
    grid_points = list(itertools.product(range(g.n), repeat=g.d))
    for x in base:
        near = sorted(
            (p for p in grid_points if p != x),
            key=lambda p: (max(abs(i - j) for i, j in zip(p, x)), p),
        )[: dim + 3]
        subsets = [tuple(near[:dim])]
        for _ in range(4):
            picks = rng.choice(len(near), size=dim, replace=False)
            subsets.append(tuple(near[int(i)] for i in picks))
        for s_set in subsets:
            try:
                corr = delta_correction(x, list(s_set), params.k, g.n)
            except UnisolventError:
                continue
            witnesses.append(as_array(corr))
            break
    for _ in range(8):
        w = np.zeros_like(g.values)
        for p in support:
            w[p] = rng.standard_normal()
        witnesses.append(w)
    best_lower = 0.0
    best_witness = witnesses[0]
    for w in witnesses:
        fw = GridFunction(w)
        var = variation_bruteforce(fw, params, allow_large=allow_large).value
        if var <= 1e-12:
            continue
        pairing = abs(float(np.sum(w * g.values))) / var
        if pairing > best_lower:
            best_lower = pairing
            best_witness = w
    witness_items = tuple(
        (p, float(best_witness[p])) for p in support if best_witness[p] != 0.0
    )
    return UNormBounds(
        lower=best_lower,
        upper=best_upper,
        presentation=tuple(best_chains),
        witness=witness_items,
        params=params,
    )


@dataclass(frozen=True)
class DualityReport:
    lhs: float  # |<f, chain>|
    rhs: float  # chain norm * variation + slack
    margin: float
    ok: bool


def duality_check(f: GridFunction, chain: Chain, params: VariationParams,
                  allow_large: bool = False) -> DualityReport:
    """Verify |<f, b>| <= [b]_{p'} * brute-force variation of f, with slack
    1e-10 scaled to the bound's size."""
    lhs = abs(math.fsum(f.value_at(p) * v for p, v in chain.items()))
    var = variation_bruteforce(f, params, allow_large=allow_large).value
    bound = chain_norm(chain, params.p) * var
    rhs = bound + 1e-10 * (1.0 + abs(bound))
    return DualityReport(lhs=lhs, rhs=rhs, margin=rhs - lhs, ok=lhs <= rhs)


# Invariants this module promises; the property suite registers them all
# (its completeness check fails if one is missing there).
INVARIANT_IDS = (
    "atoms.orthogonality",
    "atoms.upper-scaling",
    "atoms.upper-triangle",
    "atoms.lower-below-upper",
)
