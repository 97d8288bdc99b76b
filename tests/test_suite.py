"""Property-suite harness: registry completeness, determinism, reporting."""

import pytest

from gridvar import GridvarError, run_suite
from gridvar.grid_io import dump_json, json_safe
from gridvar.suite import (
    CATALOG,
    REGISTRY,
    CellResult,
    SuiteConfig,
    SuiteReport,
    _cell,
    missing_invariants,
)

CHEAP = ("differences.linearity", "differences.osc-shift-invariance")


def test_registry_matches_catalog():
    assert set(REGISTRY) == set(CATALOG)
    assert len(CATALOG) == len(set(CATALOG))  # no duplicate declarations
    assert missing_invariants() == ()


def test_full_suite_passes_one_seed():
    report = run_suite(SuiteConfig(seeds=1))
    assert report.ok, [c.detail for c in report.failures]
    assert {c.invariant for c in report.cells} == set(REGISTRY)
    assert report.runtime_seconds > 0.0


def test_reports_are_deterministic():
    cfg = {"invariants": list(CHEAP), "seeds": 2}
    a = run_suite(cfg).to_payload(include_timing=False)
    b = run_suite(cfg).to_payload(include_timing=False)
    assert a == b
    assert "runtime_seconds" not in a


def test_unknown_invariant_rejected():
    with pytest.raises(GridvarError):
        run_suite(SuiteConfig(invariants=("no.such-thing",)))
    with pytest.raises(GridvarError):
        run_suite({"invariants": ["differences.linearity", "bogus"]})


def test_unknown_config_key_rejected():
    with pytest.raises(GridvarError):
        run_suite({"seeds": 1, "wavelength": 3})


def test_base_seed_offsets_cells():
    report = run_suite({"invariants": [CHEAP[0]], "seeds": 2, "base_seed": 5})
    assert {c.seed for c in report.cells} <= {5, 6}
    assert report.config["base_seed"] == 5


def test_fuzz_draws_and_records_base_seed():
    report = run_suite({"invariants": [CHEAP[0]], "seeds": 1, "fuzz": True})
    drawn = report.config["base_seed"]
    assert isinstance(drawn, int) and drawn >= 0
    assert all(c.seed == drawn for c in report.cells)
    assert report.ok, [c.detail for c in report.failures]


def test_cell_outcomes():
    bad = _cell("i", "f", 0, [(1.5, "broke"), (-1.0, "held")], repro={"d": 1})
    assert not bad.ok and bad.slack == 1.5
    assert "broke" in bad.detail and "held" not in bad.detail
    assert bad.repro == {"d": 1}

    good = _cell("i", "f", 0, [(-0.5, "held")], repro={"d": 1})
    assert good.ok and good.slack == -0.5
    assert good.repro is None  # repro only survives on failure

    empty = _cell("i", "f", 0, [])
    assert not empty.ok and empty.detail == "no checks ran"


def test_payload_shape_and_serializability():
    report = run_suite({"invariants": list(CHEAP), "seeds": 1})
    payload = report.to_payload()
    assert payload["schema_version"] == 1
    assert payload["ok"] is True
    assert set(payload["config"]) == {"invariants", "seeds", "base_seed"}
    for cell in payload["cells"]:
        assert {"invariant", "family", "seed", "ok", "slack", "constants"} <= set(cell)
        assert "detail" not in cell  # passing cells stay terse
    assert set(payload["summary"]) == set(CHEAP)
    dump_json(json_safe(payload))  # must serialize without error


def test_failure_cells_carry_repro_in_payload():
    failing = CellResult(
        invariant="i", family="f", seed=0, ok=False, slack=2.0,
        detail="broke", repro={"grid": [0.0]},
    )
    passing = CellResult(invariant="i", family="f", seed=1, ok=True, slack=-1.0)
    report = SuiteReport(config={}, cells=(failing, passing), runtime_seconds=0.0)
    assert not report.ok and report.failures == (failing,)
    payload = report.to_payload()
    assert payload["cells"][0]["detail"] == "broke"
    assert payload["cells"][0]["repro"] == {"grid": [0.0]}
    assert "repro" not in payload["cells"][1]


def test_summary_aggregates_constants():
    cells = (
        CellResult("i", "f", 0, True, -0.5, constants=(("c", 2.0),)),
        CellResult("i", "g", 1, False, 0.25, constants=(("c", 3.0),)),
    )
    report = SuiteReport(config={}, cells=cells, runtime_seconds=0.0)
    agg = report.summary()["i"]
    assert agg["passes"] == 1 and agg["failures"] == 1
    assert agg["worst_slack"] == 0.25
    assert agg["constants"]["c"] == 3.0


def test_raising_runner_becomes_a_failing_cell(monkeypatch):
    """A runner that raises after yielding one cell keeps that cell, adds a
    failing cell with the exception and a config that reruns it, and the
    other invariants still report every cell."""
    broken, other = CHEAP
    real = REGISTRY[broken]

    def runner(cfg):
        cells = real(cfg)
        yield next(iter(cells))
        raise GridvarError("interval (9,) exceeds grid extent 8")

    monkeypatch.setitem(REGISTRY, broken, runner)
    cfg = {"invariants": [broken, other], "seeds": 2, "base_seed": 3}
    report = run_suite(cfg)
    assert not report.ok
    (failed,) = report.failures
    assert failed.invariant == broken and failed.seed == 3
    assert "GridvarError: interval (9,) exceeds grid extent 8" in failed.detail
    assert failed.repro == {"invariants": [broken], "seeds": 2, "base_seed": 3}
    assert sum(c.invariant == broken and c.ok for c in report.cells) == 1
    others = [c for c in report.cells if c.invariant == other]
    assert others and all(c.ok for c in others)
    assert others == [c for c in run_suite({**cfg, "invariants": [other]}).cells]
    dump_json(json_safe(report.to_payload()))
