import math

import numpy as np
import pytest

from gridvar.differences import osc_k
from gridvar.errors import GridvarError, GuardError
from gridvar.grid import GridFunction, LatticeCube, LatticeInterval, Packing, make_grid_function
from gridvar.variation import (
    VariationParams,
    ac_modulus,
    cube_weight,
    holder_seminorm,
    packing_objective,
    restricted_variation,
    smoothness,
    variation_bruteforce,
    variation_dyadic,
    variation_local_search,
)

from oracles import all_cubes, all_packings, interval_variation_oracle, variation_oracle


def test_params_validation():
    VariationParams(k=1, p=1.0)
    with pytest.raises(GridvarError):
        VariationParams(k=0, p=1.0)
    with pytest.raises(GridvarError):
        VariationParams(k=1, p=0.5)
    with pytest.raises(GridvarError):
        VariationParams(k=1, p=1.0, weight="nope")


def test_smoothness():
    assert smoothness(2, 1.0) == 2.0
    assert smoothness(3, 2.0) == 1.5


def test_packing_objective_rejects_overlap():
    f = make_grid_function([0.0, 1.0, 0.0])
    bad = [LatticeCube((0,), 2), LatticeCube((1,), 1)]
    with pytest.raises(GridvarError):
        packing_objective(f, bad, VariationParams(k=1, p=1.0))


def test_bruteforce_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    cases = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    grids = [rng.uniform(-1, 1, size=(n,) * d) for d, n in cases for _ in range(3)]
    # integer values make many cube weights tie exactly, pinning the tie-breaking
    grids += [np.round(rng.uniform(-2, 2, size=(n,) * d)) for d, n in cases for _ in range(2)]
    for i, vals in enumerate(grids):
        f = GridFunction(vals)
        for k in (1, 2):
            for p in (1.0, 2.0):
                for weight in ("e_k", "osc_k"):
                    params = VariationParams(k=k, p=p, weight=weight)
                    res = variation_bruteforce(f, params)
                    want_val, want_opt = variation_oracle(
                        f, k, p, lambda c: cube_weight(f, c, params)
                    )
                    assert res.value == pytest.approx(want_val, abs=1e-12), (i, k, p, weight)
                    assert tuple(res.optimizer) == want_opt, (i, k, p, weight)
                    assert res.is_exact and res.method == "brute"


def test_point_mass_value():
    vals = np.zeros(7)
    vals[3] = 1.0
    f = GridFunction(vals)
    res = variation_bruteforce(f, VariationParams(k=1, p=1.0))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # two disjoint cubes flank the mass, each worth 1/2; every reported
    # cube must carry weight, and lex order favors the widest left cube
    assert tuple(res.optimizer) == (LatticeCube((0,), 3), LatticeCube((3,), 1))
    assert all(3 in range(c.origin[0], c.origin[0] + c.side + 1) for c in res.optimizer)


def test_monotone_walk_telescopes():
    rng = np.random.default_rng(1)
    for _ in range(10):
        vals = np.cumsum(np.abs(rng.standard_normal(5)))
        f = GridFunction(vals)
        res = variation_bruteforce(f, VariationParams(k=1, p=1.0, weight="osc_k"))
        assert res.value == pytest.approx(vals[-1] - vals[0], abs=1e-12)


def test_null_space():
    x = np.linspace(0, 1, 5)
    f = GridFunction(1.0 + 3.0 * x)
    assert variation_bruteforce(f, VariationParams(k=2, p=1.0)).value <= 1e-8 * (
        1 + f.sup_norm()
    )


def test_region_restriction():
    rng = np.random.default_rng(2)
    f = GridFunction(rng.uniform(-1, 1, size=5))
    params = VariationParams(k=1, p=1.0)
    region = LatticeInterval((1,), (3,))
    res = variation_bruteforce(f, params, region=region)
    assert all(c.origin[0] >= 1 and c.upper[0] <= 3 for c in res.optimizer)
    full = variation_bruteforce(f, params)
    assert res.value <= full.value + 1e-12


def test_bruteforce_guard():
    f = GridFunction(np.zeros((6, 6)))
    with pytest.raises(GuardError):
        variation_bruteforce(f, VariationParams(k=1, p=1.0))


def test_dyadic_requires_power_of_two_mesh():
    f = GridFunction(np.zeros(4))  # n - 1 = 3
    with pytest.raises(GuardError):
        variation_dyadic(f, VariationParams(k=1, p=1.0))


def test_dyadic_prefers_coarser_on_ties():
    f = GridFunction(np.array([0.0, 0.5, 1.0]))  # identity: children tie parent
    res = variation_dyadic(f, VariationParams(k=1, p=1.0))
    assert res.value == pytest.approx(0.5, abs=1e-15)
    assert tuple(res.optimizer) == (LatticeCube((0,), 2),)
    assert not res.is_exact and res.method == "dyadic"


def test_dyadic_below_bruteforce():
    rng = np.random.default_rng(3)
    for d, n in ((1, 5), (2, 5)):
        for seed in range(3):
            f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
            for k in (1, 2):
                params = VariationParams(k=k, p=1.0)
                dy = variation_dyadic(f, params)
                br = variation_bruteforce(f, params)
                assert dy.value <= br.value + 1e-12
                assert packing_objective(f, Packing(tuple(dy.optimizer)), params) == (
                    pytest.approx(dy.value, abs=1e-12)
                )


def test_local_search_deterministic_and_below_brute():
    rng = np.random.default_rng(4)
    cases = [(rng.uniform(-1, 1, size=(4, 4)), VariationParams(k=1, p=2.0)) for _ in range(4)]
    # integer values: e_3 of some unit cells is 0 up to LP round-off
    cases.append((np.round(np.random.default_rng(2040).uniform(-2, 2, size=(4, 4))),
                  VariationParams(k=3, p=3.5)))
    for vals, params in cases:
        f = GridFunction(vals)
        a = variation_local_search(f, params, budget=50)
        b = variation_local_search(f, params, budget=50)
        assert a.value == b.value and tuple(a.optimizer) == tuple(b.optimizer)
        br = variation_bruteforce(f, params)
        assert a.value <= br.value + 1e-12
        assert not a.is_exact and a.method == "local_search"


UNIT_CELLS_D2N5 = tuple(((i, j), 1) for i in range(4) for j in range(4))

# (d, n, grid seed, integer grid, k, p, weight, dyadic seed, mesh_cap, volume_cap,
#  budget, value, optimizer as (origin, side) pairs)
LOCAL_SEARCH_PINS = [
    (1, 9, 50, False, 1, 1.0, "e_k", False, None, None, 100,
     3.9245689391420973, (((0,), 4), ((4,), 2), ((6,), 1), ((7,), 1))),
    (1, 9, 64, True, 2, 2.0, "osc_k", True, 0.25, None, 100,
     7.681145747868608, (((1,), 2), ((4,), 2), ((6,), 2))),
    (2, 4, 52, True, 1, 2.0, "e_k", False, None, 0.5, 100,
     2.0, (((0, 1), 2),)),
    (2, 5, 55, True, 1, 3.5, "osc_k", False, 0.3, 0.7, 100,
     7.076680792966236, (((0, 0), 2), ((0, 2), 1), ((1, 2), 1), ((2, 0), 1), ((2, 2), 1),
                         ((2, 3), 1), ((3, 2), 1), ((3, 3), 1))),
    (2, 5, 54, True, 1, 3.5, "e_k", True, 0.25, None, 100,
     3.4113205783096783, UNIT_CELLS_D2N5),
    (2, 5, 55, False, 2, 2.0, "e_k", True, None, None, 100,
     3.1984065596995492, (((0, 0), 2), ((0, 2), 1), ((0, 3), 1), ((1, 2), 1), ((1, 3), 1),
                          ((2, 0), 2), ((2, 2), 2))),
    (2, 9, 59, False, 2, 3.5, "osc_k", True, None, None, 100,
     10.947712119619942, (((0, 0), 2), ((0, 2), 2), ((0, 4), 2), ((0, 6), 2), ((2, 0), 2),
                          ((2, 2), 2), ((2, 4), 2), ((2, 6), 2), ((4, 0), 4), ((4, 4), 4))),
    (2, 9, 57, True, 1, 1.0, "osc_k", False, None, 0.5, 20,
     38.0, (((0, 1), 3), ((0, 5), 3), ((1, 0), 1), ((1, 4), 1), ((2, 0), 1), ((2, 4), 1),
            ((3, 0), 1), ((3, 1), 2), ((3, 3), 1), ((3, 4), 1), ((3, 5), 1), ((3, 6), 1),
            ((6, 0), 1))),
]


@pytest.mark.parametrize("case", LOCAL_SEARCH_PINS)
def test_local_search_pinned_optimizers(case):
    # exact values and cube lists: these pin the scan order and the tie-breaking
    d, n, grid_seed, integer, k, p, weight, dyadic, mesh_cap, volume_cap, budget, value, cubes = case
    vals = np.random.default_rng(grid_seed).uniform(-2, 2, size=(n,) * d)
    f = GridFunction(np.round(vals) if integer else vals)
    params = VariationParams(k=k, p=p, weight=weight)
    seed = variation_dyadic(f, params, mesh_cap=mesh_cap).optimizer if dyadic else None
    res = variation_local_search(f, params, seed=seed, budget=budget,
                                 mesh_cap=mesh_cap, volume_cap=volume_cap)
    assert res.value == value
    assert tuple(res.optimizer) == tuple(LatticeCube(o, s) for o, s in cubes)


def test_local_search_budget_zero_keeps_seed():
    f = GridFunction(np.array([0.0, 1.0, 0.0]))
    params = VariationParams(k=1, p=1.0)
    seed = Packing((LatticeCube((0,), 1),))
    res = variation_local_search(f, params, seed=seed, budget=0)
    assert tuple(res.optimizer) == tuple(seed)
    assert res.value == pytest.approx(0.5)


def test_local_search_respects_caps():
    rng = np.random.default_rng(5)
    f = GridFunction(rng.uniform(-1, 1, size=5))
    params = VariationParams(k=1, p=1.0)
    res = variation_local_search(f, params, budget=50, mesh_cap=0.25)
    assert all(c.volume(f.n) <= 0.25 + 1e-12 for c in res.optimizer)
    res2 = variation_local_search(f, params, budget=50, volume_cap=0.5)
    assert math.fsum(c.volume(f.n) for c in res2.optimizer) <= 0.5 + 1e-12


def test_restricted_variation_monotone_in_cap():
    rng = np.random.default_rng(6)
    f = GridFunction(rng.uniform(-1, 1, size=5))
    params = VariationParams(k=1, p=1.0)
    cell = 0.25
    vals = [restricted_variation(f, params, cap) for cap in (cell, 2 * cell, 1.0)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
    assert vals[2] == pytest.approx(
        variation_bruteforce(f, params).value, abs=1e-12
    )
    with pytest.raises(GridvarError):
        restricted_variation(f, params, 0.0)


def test_restricted_variation_matches_filtered_oracle():
    rng = np.random.default_rng(7)
    f = GridFunction(rng.uniform(-1, 1, size=(3, 3)))
    params = VariationParams(k=1, p=1.0)
    cap = 0.25  # one lattice cell on n=3
    got = restricted_variation(f, params, cap)
    want, _ = variation_oracle(
        f, 1, 1.0, lambda c: cube_weight(f, c, params),
        cube_filter=lambda c: c.volume(f.n) <= cap + 1e-12,
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_ac_modulus_caps_total_volume():
    rng = np.random.default_rng(8)
    f = GridFunction(rng.uniform(-1, 1, size=5))
    params = VariationParams(k=1, p=1.0)
    full = variation_bruteforce(f, params).value
    assert ac_modulus(f, params, 1.0) == pytest.approx(full, abs=1e-12)
    quarter = ac_modulus(f, params, 0.25)  # exactly one unit cell
    best_single = max(
        cube_weight(f, LatticeCube((i,), 1), params) for i in range(4)
    )
    assert quarter == pytest.approx(best_single, abs=1e-12)
    assert ac_modulus(f, params, 0.2) == 0.0  # below one cell: empty packing
    with pytest.raises(GridvarError):
        ac_modulus(f, params, -1.0)


def test_ac_modulus_monotone():
    rng = np.random.default_rng(9)
    f = GridFunction(rng.uniform(-1, 1, size=(3, 3)))
    params = VariationParams(k=1, p=2.0)
    caps = (0.25, 0.5, 0.75, 1.0)
    vals = [ac_modulus(f, params, c) for c in caps]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("d, n", [(2, 4), (1, 6)])
def test_ac_modulus_matches_volume_filtered_oracle(d, n):
    rng = np.random.default_rng(10 + d)
    f = GridFunction(rng.uniform(-1, 1, size=(n,) * d))
    packings = list(all_packings(all_cubes(d, n)))
    volumes = [math.fsum(c.volume(n) for c in pk) for pk in packings]
    ncells = (n - 1) ** d
    for params in (VariationParams(k=1, p=1.0), VariationParams(k=2, p=2.0, weight="osc_k")):
        w = {c: cube_weight(f, c, params) ** params.p for c in all_cubes(d, n)}
        sums = [math.fsum(w[c] for c in pk) for pk in packings]
        for j in range(1, ncells + 1):
            cap = j / ncells
            want = max(s for s, v in zip(sums, volumes) if v <= cap + 1e-9)
            got = ac_modulus(f, params, cap)
            assert got == pytest.approx(want ** (1.0 / params.p), abs=1e-12), (params, j)


def test_ac_modulus_full_cap_equals_bruteforce_bitwise():
    rng = np.random.default_rng(11)
    grids = [
        rng.uniform(-1, 1, size=(4, 4)),
        np.round(rng.uniform(-2, 2, size=9)),
        # the LP gives e_3 of some unit cells here as a tiny negative round-off,
        # which is complex to the power 3.5
        np.round(np.random.default_rng(2040).uniform(-2, 2, size=(4, 4))),
    ]
    for vals in grids:
        f = GridFunction(vals)
        for k in (1, 2, 3):
            for weight in ("e_k", "osc_k"):
                for p in (1.0, 2.0, 3.5):
                    params = VariationParams(k=k, p=p, weight=weight)
                    assert ac_modulus(f, params, 1.0) == variation_bruteforce(f, params).value


@pytest.mark.parametrize("weight", ["osc_k", "e_k"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bruteforce_past_guard_matches_interval_dp(weight, p):
    # 40 cells: a dense 2^cells table would be out of reach; reachable states are 41
    n = 41
    vals = np.random.default_rng(12).standard_normal(n).cumsum()
    f = GridFunction(vals)

    def weight_fn(i: int, j: int) -> float:
        spread = float(vals[i : j + 1].max() - vals[i : j + 1].min())
        return spread if weight == "osc_k" else spread / 2  # k=1: osc, best constant

    res = variation_bruteforce(f, VariationParams(k=1, p=p, weight=weight), allow_large=True)
    assert res.value == pytest.approx(interval_variation_oracle(n, p, weight_fn), rel=1e-12)
    assert res.is_exact


def test_holder_seminorm_identity_map():
    f = GridFunction(np.linspace(0.0, 1.0, 3))
    # osc_1 over a side-l cube is l/(n-1); dividing by (l/(n-1))^1 gives 1
    assert holder_seminorm(f, 1, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_variation_result_smoothness_recorded():
    f = GridFunction(np.linspace(0.0, 1.0, 3))
    res = variation_bruteforce(f, VariationParams(k=1, p=2.0))
    assert res.smoothness == pytest.approx(0.5)
