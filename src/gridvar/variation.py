"""Variations of grid functions over packings of lattice cubes.

The (k,p)-variation of f over a region S is

    sup over packings pi of cubes in S of ( sum_{Q in pi} w(f;Q)^p )^(1/p),

with per-cube weight w either the minimax error e_k or the oscillation
osc_k. Exact maximization (brute force) runs one dynamic program,
max_weight_packing, over the covers of unit cells reachable by filling the
lowest free cell (skip it, or place a cube anchored there); the capped
variants run on the same engine, which serves cube packings only. It visits
far fewer states than the 2^cells covers (cells + 1 of them in one
dimension), but it is still an exhaustive search and keeps the 16-cell guard
of packing enumeration. Two scalable lower-bound methods are provided: a
recursion over the dyadic cube tree, and hill-climbing local search over
packings. Both are certified lower bounds because every packing's objective
is one.

Every optimizer takes its weights from one table per call (_weight_fn): the
osc_k of every cube of the sides it needs, one array per side indexed by
cube origin, built from whole-grid arrays by differences.osc_tables and
equal to osc_k bit for bit; e_k with k = 1 is half of it. The table costs
one array pass per side and, for k >= 2, one per step h with k max|h_i| up
to the largest side, each over the whole grid. It holds sum (n - s)^d
floats over the sides kept: those of the candidate cubes for the exact and
local-search methods, the dyadic sides for dyadic. e_k with k >= 2 stays
one memoized LP per cube, whose phase 1 is shared by every cube of one
(d, side, k): each cube runs phase 2 only. holder_seminorm takes the max of each side's
table and enumerates no cubes.

Capped variants restrict the packings: a cap on every cube's volume (the
fine-mesh modulus) or on the total volume of the packing (the absolute
continuity modulus). Both caps are applied as lattice integers: a mesh cap
becomes the largest admissible cube side, and a volume cap becomes a budget
of unit cells, the same for ac_modulus and local search.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .approx import e_k
from .differences import osc_k, osc_tables
from .errors import GridvarError, GuardError
from .grid import (
    GridFunction,
    LatticeCube,
    LatticeInterval,
    Packing,
    check_cube_in_grid,
    check_enumeration_guard,
    cell_count,
    cube_cell_mask,
    enumerate_cubes,
    is_packing,
)

WEIGHT_KINDS = ("e_k", "osc_k")


@dataclass(frozen=True)
class VariationParams:
    """Order k >= 1, exponent 1 <= p < infinity, and the per-cube weight."""

    k: int
    p: float
    weight: str = "e_k"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise GridvarError(f"order k must be >= 1, got {self.k}")
        if not (1.0 <= self.p < math.inf):
            raise GridvarError(f"exponent p must satisfy 1 <= p < inf, got {self.p}")
        if self.weight not in WEIGHT_KINDS:
            raise GridvarError(f"weight must be one of {WEIGHT_KINDS}, got {self.weight!r}")


@dataclass(frozen=True)
class VariationResult:
    value: float
    optimizer: Packing
    method: str
    is_exact: bool
    params: VariationParams
    smoothness: float  # d / p, the scaling exponent the parameters encode


def smoothness(d: int, p: float) -> float:
    return d / p


def cube_weight(f: GridFunction, cube: LatticeCube, params: VariationParams) -> float:
    if params.weight == "osc_k":
        return osc_k(f, cube, params.k)
    return e_k(f, cube, params.k)


def _weight_fn(f: GridFunction, params: VariationParams,
               sides: Iterable[int]) -> Callable[[LatticeCube], float]:
    """Memoized powered weight w(f;Q)^p, the item value of every optimizer.

    osc_k, and e_k with k = 1 (half of osc_1), are read from one table of
    every cube's weight for the given sides, built once by osc_tables; e_k
    with k >= 2 is one LP per cube (phase 2 only, from a shared start).
    """
    cache: dict[LatticeCube, float] = {}
    if params.weight == "osc_k" or params.k == 1:
        tables = dict(osc_tables(f, params.k, sides))
        if params.weight == "e_k":
            tables = {s: t / 2.0 for s, t in tables.items()}

        def raw(cube: LatticeCube) -> float:
            return float(tables[cube.side][cube.origin])
    else:
        def raw(cube: LatticeCube) -> float:
            return e_k(f, cube, params.k)

    def weight(cube: LatticeCube) -> float:
        got = cache.get(cube)
        if got is None:
            got = cache[cube] = raw(cube) ** params.p
        return got

    return weight


def _max_side(f: GridFunction, mesh_cap: float | None) -> int:
    """Largest cube side whose volume is at most mesh_cap (0 if none is)."""
    if mesh_cap is None:
        return f.n - 1
    origin = (0,) * f.d
    return max((s for s in range(1, f.n) if LatticeCube(origin, s).volume(f.n) <= mesh_cap + 1e-12),
               default=0)


def _cell_budget(f: GridFunction, volume_cap: float) -> int:
    """A cap on total volume, as a number of unit cells."""
    return int(math.floor(volume_cap * cell_count(f) + 1e-9))


def packing_objective(f: GridFunction, packing: Packing | Iterable[LatticeCube],
                      params: VariationParams) -> float:
    """(sum of w(f;Q)^p over the packing)^(1/p); empty packings give 0."""
    cubes = list(packing)
    if not is_packing(cubes):
        raise GridvarError("objective needs pairwise-disjoint cubes")
    total = math.fsum(cube_weight(f, c, params) ** params.p for c in cubes)
    return total ** (1.0 / params.p)


def max_weight_packing(ncells: int, anchored: list[list[tuple[int, int, float]]], *,
                       budget: int | None = None) -> tuple[float, list[int]]:
    """Maximize the sum of weights over disjoint items on a cell set.

    `anchored[c]` lists (item_index, cell_mask, weight) for items whose lowest
    cell is c, in ascending item order; an item covers cell_mask.bit_count()
    cells. With a `budget`, the chosen items cover at most that many cells.

    The table holds only the states reachable from the empty cover by filling
    the lowest free cell: skip it, or place an item anchored there. A state is
    (covered mask, cells left), with cells left clamped to the free cells, so
    an unbudgeted run has exactly one state per reachable mask. Returns the
    exact maximum and the lexicographically smallest achieving item list
    (item order, with a shorter achieving prefix preferred), reconstructed
    bit-exactly from the table. Zero-weight items never appear in the
    reconstruction: skipping such an item's anchor cell leaves the exact same
    continuation sums available, so the target is still met bit-for-bit.
    """
    full = (1 << ncells) - 1

    def moves(mask: int, left: int):
        """The skip state, and (item, weight, state) for each item that fits."""
        low = ~mask & (mask + 1)  # the lowest free cell
        skip = (mask | low, min(left, ncells - 1 - mask.bit_count()))
        places = []
        for idx, cmask, w in anchored[low.bit_length() - 1]:
            size = cmask.bit_count()
            if size <= left and cmask & mask == 0:
                places.append((idx, w, (mask | cmask, left - size)))
        return skip, places

    start = (0, ncells if budget is None else min(budget, ncells))
    table: dict[tuple[int, int], float] = {}
    stack = [start]
    while stack:  # depth first: a state is valued once all its successors are
        state = stack[-1]
        if state[0] == full:
            table[stack.pop()] = 0.0
            continue
        skip, places = moves(*state)
        todo = [s for s in (skip, *(nxt for _, _, nxt in places)) if s not in table]
        if todo:
            stack += todo
            continue
        best = table[skip]
        for _, w, nxt in places:
            v = w + table[nxt]
            if v > best:
                best = v
        table[stack.pop()] = best
    chosen: list[int] = []
    state = start
    while state[0] != full and table[state] > 0.0:
        skip, places = moves(*state)
        target = table[state]
        for idx, w, nxt in places:
            if w > 0.0 and w + table[nxt] == target:
                chosen.append(idx)
                state = nxt
                break
        else:
            state = skip
    return float(table[start]), chosen


def _exact_packing(f: GridFunction, params: VariationParams, cubes: Sequence[LatticeCube],
                   region: LatticeInterval | None,
                   budget: int | None = None) -> tuple[float, list[int]]:
    """max_weight_packing over the cubes, with item weights w(f;Q)^p."""
    weight = _weight_fn(f, params, {c.side for c in cubes})
    ncells = cell_count(f, region)
    anchored: list[list[tuple[int, int, float]]] = [[] for _ in range(ncells)]
    for idx, cube in enumerate(cubes):
        mask = cube_cell_mask(cube, f.n, region)
        anchored[(mask & -mask).bit_length() - 1].append((idx, mask, weight(cube)))
    return max_weight_packing(ncells, anchored, budget=budget)


def variation_bruteforce(
    f: GridFunction,
    params: VariationParams,
    region: LatticeInterval | None = None,
    allow_large: bool = False,
    _cube_filter: Callable[[LatticeCube], bool] | None = None,
) -> VariationResult:
    """Exact maximum of the packing objective over all packings in the region.

    Guarded like packing enumeration: at most 16 unit cells unless
    allow_large. The reported optimizer keeps only cubes of positive weight
    and is the lexicographically smallest such packing attaining the value
    (cubes ordered by (origin, side), shorter prefixes first).
    """
    check_enumeration_guard(f, allow_large, region)
    cubes = enumerate_cubes(f, 1, region)
    if _cube_filter is not None:
        cubes = [c for c in cubes if _cube_filter(c)]
    total, chosen = _exact_packing(f, params, cubes, region)
    return VariationResult(
        value=total ** (1.0 / params.p),
        optimizer=Packing(tuple(cubes[i] for i in chosen)),
        method="brute",
        is_exact=True,
        params=params,
        smoothness=smoothness(f.d, params.p),
    )


@functools.lru_cache(maxsize=4096)
def _dyadic_children(cube: LatticeCube) -> tuple[LatticeCube, ...]:
    """The 2^d half-side subcubes. Memoized, so the optimizers of many dyadic
    runs on one grid shape share their cube objects instead of copying them."""
    half = cube.side // 2
    return tuple(
        LatticeCube(tuple(o + b * half for o, b in zip(cube.origin, bits)), half)
        for bits in itertools.product((0, 1), repeat=cube.d)
    )


def variation_dyadic(f: GridFunction, params: VariationParams,
                     mesh_cap: float | None = None) -> VariationResult:
    """Best packing drawn from the dyadic cube tree (lower bound, heuristic).

    Needs n - 1 to be a power of two so the tree reaches side-1 cubes.
    The recursion keeps a cube when its own weight beats the sum over its
    2^d children, preferring the coarser cube on ties.
    """
    m = f.n - 1
    if m & (m - 1):
        raise GuardError(f"non-dyadic grid: n - 1 = {m} is not a power of two")
    max_side = _max_side(f, mesh_cap)
    weight = _weight_fn(f, params, [1 << j for j in range(m.bit_length()) if 1 << j <= max_side])

    def rec(cube: LatticeCube) -> tuple[float, list[LatticeCube]]:
        wp = weight(cube) if cube.side <= max_side else None
        if cube.side == 1:
            total, chosen = 0.0, []
        else:
            parts = [rec(child) for child in _dyadic_children(cube)]
            total = math.fsum(v for v, _ in parts)
            chosen = [c for _, cs in parts for c in cs]
        if wp is not None and wp >= total:
            return (wp, [cube]) if wp > 0.0 else (0.0, [])
        return total, chosen

    total, chosen = rec(f.whole_cube())
    return VariationResult(
        value=total ** (1.0 / params.p),
        optimizer=Packing(tuple(chosen)),
        method="dyadic",
        is_exact=False,
        params=params,
        smoothness=smoothness(f.d, params.p),
    )


@functools.lru_cache(maxsize=16)
def _grid_cubes(d: int, n: int) -> tuple[tuple[LatticeCube, ...], tuple[int, ...]]:
    """Every cube of the {0..n-1}^d grid in (origin, side) order, with its
    cell mask. Memoized like _dyadic_children, so local searches on one grid
    shape share their candidate cubes."""
    cubes = tuple(LatticeCube(o, side) for o in itertools.product(range(n - 1), repeat=d)
                  for side in range(1, n - max(o)))
    return cubes, tuple(cube_cell_mask(c, n) for c in cubes)


def variation_local_search(
    f: GridFunction,
    params: VariationParams,
    seed: Packing | None = None,
    budget: int = 100,
    mesh_cap: float | None = None,
    volume_cap: float | None = None,
) -> VariationResult:
    """First-improvement hill climbing over packings (lower bound, heuristic).

    Moves are scanned in a fixed order (grow, add, replace, shrink) over
    candidates in (origin, side) order, so the result is a deterministic
    function of the seed and budget; each accepted move costs one unit of
    budget and strictly increases the objective. budget = 0 returns the seed
    packing's objective.
    """
    if budget < 0:
        raise GridvarError(f"budget must be >= 0, got {budget}")
    max_side = _max_side(f, mesh_cap)
    cell_budget = math.inf if volume_cap is None else _cell_budget(f, volume_cap)
    # the candidate table: a cube's grown and shrunk sides are its neighbours
    cubes, cube_masks = _grid_cubes(f.d, f.n)
    keep = [i for i, c in enumerate(cubes) if c.side <= max_side]
    cands = [cubes[i] for i in keep]
    masks = [cube_masks[i] for i in keep]
    index = {c: i for i, c in enumerate(cands)}
    sizes = [c.side**f.d for c in cands]
    weight = _weight_fn(f, params, range(1, max_side + 1))

    seed_cubes = list(seed) if seed is not None else []
    for cube in seed_cubes:
        check_cube_in_grid(cube, f)
        if cube.side > max_side:
            raise GridvarError("seed packing violates the mesh cap")
    current = sorted(index[c] for c in seed_cubes)
    used = 0  # the current cubes are disjoint: the others of i cover used ^ masks[i]
    for i in current:
        used |= masks[i]
    cells = sum(sizes[i] for i in current)
    if cells > cell_budget:
        raise GridvarError("seed packing violates the volume cap")

    def fits(j: int, rest: int, rest_cells: int) -> bool:
        return masks[j] & rest == 0 and rest_cells + sizes[j] <= cell_budget

    def gain(i: int, j: int) -> float:
        return weight(cands[j]) - weight(cands[i])

    def find_move() -> tuple[int | None, int] | None:
        """First strictly-improving move (dropped index or None, added index)."""
        for i in current:  # grow: bump one cube's side by one
            j = i + 1
            if (j < len(cands) and cands[j].origin == cands[i].origin
                    and fits(j, used ^ masks[i], cells - sizes[i]) and gain(i, j) > 0.0):
                return i, j
        for j in range(len(cands)):  # add: insert a disjoint candidate
            if fits(j, used, cells) and weight(cands[j]) > 0.0:
                return None, j
        for i in current:  # replace: swap one packing cube for one candidate
            rest, rest_cells = used ^ masks[i], cells - sizes[i]
            for j in range(len(cands)):
                if j != i and fits(j, rest, rest_cells) and gain(i, j) > 0.0:
                    return i, j
        for i in current:  # shrink: drop one cube's side by one
            if cands[i].side > 1 and gain(i, i - 1) > 0.0:
                return i, i - 1
        return None

    for _ in range(budget):
        move = find_move()
        if move is None:
            break
        i, j = move
        if i is not None:
            current.remove(i)
            used ^= masks[i]
            cells -= sizes[i]
        current = sorted(current + [j])
        used |= masks[j]
        cells += sizes[j]

    packing = Packing(tuple(cands[i] for i in current))
    return VariationResult(
        value=math.fsum(weight(c) for c in packing) ** (1.0 / params.p),
        optimizer=packing,
        method="local_search",
        is_exact=False,
        params=params,
        smoothness=smoothness(f.d, params.p),
    )


def restricted_variation(f: GridFunction, params: VariationParams, mesh_cap: float,
                         allow_large: bool = False) -> float:
    """Exact variation over packings whose every cube has volume <= mesh_cap.

    Nondecreasing in the cap; caps below one lattice cell admit only the
    empty packing, so the value is 0 there.
    """
    if mesh_cap <= 0:
        raise GridvarError(f"mesh_cap must be > 0, got {mesh_cap}")
    max_side = _max_side(f, mesh_cap)
    return variation_bruteforce(
        f, params, allow_large=allow_large, _cube_filter=lambda c: c.side <= max_side,
    ).value


def ac_modulus(f: GridFunction, params: VariationParams, volume_cap: float,
               allow_large: bool = False) -> float:
    """Exact variation over packings of total volume <= volume_cap.

    Nondecreasing in the cap; cap >= 1 is the unrestricted variation.
    """
    if volume_cap <= 0:
        raise GridvarError(f"volume_cap must be > 0, got {volume_cap}")
    check_enumeration_guard(f, allow_large)
    budget = _cell_budget(f, volume_cap)
    if budget <= 0:
        return 0.0
    total, _ = _exact_packing(f, params, enumerate_cubes(f, 1), None, budget)
    return total ** (1.0 / params.p)


def holder_seminorm(f: GridFunction, k: int, p: float) -> float:
    """max over cubes of osc_k(f;Q) / |Q|^(s/d) with s = d/p.

    For any packing, sum osc^p <= (this max)^p * sum |Q| <= (this max)^p,
    since s*p = d makes the per-cube volume factors telescope; so the
    oscillation-weighted variation never exceeds this seminorm. Computed
    from the weight table one side at a time: each side's largest osc_k is
    one array max over its (n - side)^d cubes, and no cube is enumerated.
    """
    s = smoothness(f.d, p)
    best = 0.0
    for side, table in osc_tables(f, k):  # rounding is monotone: max(x) / c == max(x / c)
        best = max(best, float(np.max(table)) / (side / (f.n - 1))**s)
    return best


# Invariants this module promises; the property suite registers them all
# (its completeness check fails if one is missing there).
INVARIANT_IDS = (
    "variation.null-space",
    "variation.seminorm",
    "variation.method-ordering",
    "variation.parameter-monotonicity",
    "variation.region-subadditivity",
    "variation.lp-sandwich",
    "variation.lipschitz-embedding",
    "variation.vitali-telescoping",
    "variation.weight-transfer",
)
