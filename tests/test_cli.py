"""End-to-end CLI tests: happy paths, exit codes, piping."""

import io
import json
import types

import numpy as np
import pytest

from gridvar import GridFunction, GridvarError, hardy_krause_variation
from gridvar.cli import main
from gridvar.grid_io import dump_json, grid_payload
from gridvar.suite import REGISTRY


def write_grid(tmp_path, values, name="g.json"):
    path = tmp_path / name
    path.write_text(dump_json(grid_payload(GridFunction(np.asarray(values)))))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


def test_var_defaults(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    code, out, _ = run_cli(capsys, ["var", path])
    assert code == 0
    payload = parse(out)
    assert payload["command"] == "var"
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)
    assert payload["method"] == "brute" and payload["is_exact"] is True
    assert payload["smoothness"] == pytest.approx(1.0)
    assert all({"origin", "side"} <= set(c) for c in payload["optimizer"])


def test_var_osc_weight_and_p(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    code, out, _ = run_cli(capsys, ["var", path, "--weight", "osc_k", "--p", "2"])
    assert code == 0
    assert parse(out)["value"] == pytest.approx(1.0, abs=1e-12)


def test_var_guard_exit_3(tmp_path, capsys):
    path = write_grid(tmp_path, np.zeros((6, 6)))
    code, _, err = run_cli(capsys, ["var", path])
    assert code == 3
    assert "guard:" in err and "dyadic" in err


def test_var_dyadic_and_local(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.1, 0.5, 0.6, 1.0])  # n - 1 = 4 is dyadic
    code, out, _ = run_cli(capsys, ["var", path, "--method", "dyadic"])
    assert code == 0
    dyadic = parse(out)
    assert dyadic["is_exact"] is False

    code, out, _ = run_cli(capsys, ["var", path, "--method", "local", "--budget", "50"])
    assert code == 0
    local = parse(out)
    assert local["is_exact"] is False

    code, out, _ = run_cli(capsys, ["var", path])
    brute = parse(out)
    assert dyadic["value"] <= local["value"] + 1e-12
    assert local["value"] <= brute["value"] + 1e-12


def test_var_min_side_needs_brute(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    code, _, err = run_cli(capsys, ["var", path, "--min-side", "2", "--method", "local"])
    assert code == 2 and "error:" in err


def test_var_caps(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    code, out, _ = run_cli(capsys, ["var", path, "--mesh-cap", "0.5"])
    assert code == 0
    assert parse(out)["mesh_cap"] == 0.5
    code, out, _ = run_cli(capsys, ["var", path, "--volume-cap", "0.5"])
    assert code == 0
    assert parse(out)["volume_cap"] == 0.5
    code, _, err = run_cli(
        capsys, ["var", path, "--mesh-cap", "0.5", "--volume-cap", "0.5"]
    )
    assert code == 2


def test_osc_kinds(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    code, out, _ = run_cli(capsys, ["osc", path])
    assert code == 0
    iso = parse(out)
    assert iso["kind"] == "isotropic" and iso["value"] == pytest.approx(1.0)

    code, out, _ = run_cli(capsys, ["osc", path, "--axis", "0"])
    assert parse(out)["kind"] == "directional"

    code, out, _ = run_cli(capsys, ["osc", path, "--alpha", "1"])
    assert parse(out)["kind"] == "mixed"

    code, out, _ = run_cli(capsys, ["osc", path, "--cube", "0:1"])
    assert parse(out)["cube"] == {"origin": [0], "side": 1}
    assert parse(out)["value"] == pytest.approx(0.5)


def test_approx_parabola(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    csv.write_text("0.0,0.25,1.0\n")
    code, out, _ = run_cli(capsys, ["approx", str(csv), "--k", "2"])
    assert code == 0
    payload = parse(out)
    assert payload["value"] == pytest.approx(0.125, abs=1e-12)
    assert len(payload["certificate"]) == 3
    assert payload["polynomial"]["terms"]


def test_classical_golden(tmp_path, capsys):
    x = np.linspace(0.0, 1.0, 3)
    prod = write_grid(tmp_path, np.outer(x, x), "prod.json")
    code, out, _ = run_cli(capsys, ["classical", prod, "--notion", "vitali"])
    assert code == 0
    assert parse(out)["value"] == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run_cli(capsys, ["classical", prod, "--notion", "hardy-krause"])
    payload = parse(out)
    assert payload["value"] == pytest.approx(3.0, abs=1e-12)
    assert payload["components"] == pytest.approx({"0": 1.0, "1": 1.0, "0,1": 1.0})
    assert payload["anchor"] == [2, 2]

    sums = write_grid(tmp_path, x[:, None] + x[None, :], "sums.json")
    code, out, _ = run_cli(capsys, ["classical", sums, "--notion", "tonelli"])
    assert parse(out)["value"] == pytest.approx(2.0, abs=1e-12)


def test_classical_hardy_krause_matches_library_bitwise(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for _ in range(30):  # the builtin sum differs in the last bit on several
        f = GridFunction(rng.uniform(-1, 1, size=(4, 4)))
        path = write_grid(tmp_path, f.values)
        code, out, _ = run_cli(capsys, ["classical", path, "--notion", "hardy-krause"])
        assert code == 0
        assert parse(out)["value"] == hardy_krause_variation(f)


def test_classical_d1_vitali_redirects(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 1.0, 0.5])
    code, out, _ = run_cli(capsys, ["classical", path, "--notion", "vitali"])
    payload = parse(out)
    assert "jordan" in payload["note"]
    assert payload["value"] == pytest.approx(1.5, abs=1e-12)

    code, out, _ = run_cli(capsys, ["classical", path, "--notion", "wiener", "--p", "2"])
    payload = parse(out)
    assert payload["notion"] == "wiener_p" and payload["p"] == 2.0


def test_atom_validate(tmp_path, capsys):
    atom = {
        "n": 3,
        "cube": {"origin": [0], "side": 2},
        "weights": [[[0], 0.25], [[1], -0.5], [[2], 0.25]],
    }
    path = tmp_path / "atom.json"
    path.write_text(json.dumps(atom))
    code, out, _ = run_cli(capsys, ["atom", "validate", str(path), "--k", "2"])
    assert code == 0
    payload = parse(out)
    assert payload["valid"] is True and payload["failures"] == []
    assert payload["l1"] == pytest.approx(1.0)

    code, _, err = run_cli(capsys, ["atom", "validate", str(tmp_path / "no.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    code, _, err = run_cli(capsys, ["atom", "validate", str(bad)])
    assert code == 2 and "atom JSON" in err


def test_atom_validate_stdin(tmp_path, capsys, monkeypatch):
    atom = {"n": 3, "cube": {"origin": [0], "side": 1},
            "weights": [[[0], 0.5], [[1], -0.5]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(atom)))
    code, out, _ = run_cli(capsys, ["atom", "validate", "-", "--k", "1"])
    assert code == 0 and parse(out)["valid"] is True


def test_atom_bounds(tmp_path, capsys):
    vals = np.zeros(5)
    vals[0], vals[4] = 1.0, -1.0
    path = write_grid(tmp_path, vals)
    code, out, _ = run_cli(capsys, ["atom", "bounds", path, "--k", "1", "--p", "1"])
    assert code == 0
    payload = parse(out)
    assert payload["lower"] == pytest.approx(2.0, abs=1e-10)
    assert payload["upper"] == pytest.approx(2.0, abs=1e-10)
    assert payload["chains"] and payload["witness"]


def test_suite_subset_ok(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["suite", "--invariants", "differences.linearity", "--seeds", "1",
         "--no-timing"],
    )
    assert code == 0
    payload = parse(out)
    assert payload["ok"] is True
    assert "runtime_seconds" not in payload


def test_suite_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"invariants": ["differences.linearity"], "seeds": 3}))
    code, out, _ = run_cli(
        capsys, ["suite", "--config", str(cfg), "--seeds", "1"]
    )
    assert code == 0
    assert parse(out)["config"]["seeds"] == 1  # flag overrides the file


def test_suite_failure_exit_1(capsys, monkeypatch):
    fake = types.SimpleNamespace(
        ok=False,
        to_payload=lambda include_timing=True: {"ok": False, "cells": []},
    )
    monkeypatch.setattr("gridvar.cli.run_suite", lambda config: fake)
    code, out, _ = run_cli(capsys, ["suite", "--seeds", "1"])
    assert code == 1
    assert parse(out)["ok"] is False


def test_suite_raising_invariant_exit_1(capsys, monkeypatch):
    def runner(cfg):
        raise GridvarError("broken runner")
        yield

    monkeypatch.setitem(REGISTRY, "differences.linearity", runner)
    code, out, _ = run_cli(capsys, ["suite", "--invariants",
                                    "differences.linearity,differences.osc-shift-invariance",
                                    "--seeds", "1", "--no-timing"])
    assert code == 1
    payload = parse(out)
    failed = [c for c in payload["cells"] if not c["ok"]]
    assert [c["invariant"] for c in failed] == ["differences.linearity"]
    assert "broken runner" in failed[0]["detail"]
    assert payload["summary"]["differences.osc-shift-invariance"]["passes"] == 1


def test_suite_unknown_invariant_exit_2(capsys):
    code, _, err = run_cli(capsys, ["suite", "--invariants", "bogus.id"])
    assert code == 2 and "error:" in err


def test_generate_and_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["generate", "point-masses", "--seed", "3", "--n", "9",
                 "--param", "count=2", "--param", "amplitude=1.0"],
    )
    assert code == 0
    payload = parse(out)
    assert payload["family"] == "point-masses" and payload["seed"] == 3
    assert sum(1 for v in payload["values"] if v != 0.0) == 2

    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run_cli(capsys, ["var", "-", "--p", "1"])
    assert code == 0
    assert parse(out2)["value"] == pytest.approx(2.0, abs=1e-10)


def test_generate_csv_out(tmp_path, capsys):
    target = tmp_path / "g.csv"
    code, out, _ = run_cli(
        capsys, ["generate", "uniform", "--n", "4", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert len(target.read_text().strip().splitlines()) == 4

    code, _, err = run_cli(capsys, ["generate", "uniform", "--param", "count=2"])
    assert code == 2  # unknown parameter for the family


def test_out_file_and_pretty(tmp_path, capsys):
    path = write_grid(tmp_path, [0.0, 0.5, 1.0])
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["var", path, "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "var"

    code, out, _ = run_cli(capsys, ["var", path, "--pretty"])
    assert out.startswith("{\n")


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2  # missing subcommand
    capsys.readouterr()
    assert main(["var"]) == 2  # missing input
    capsys.readouterr()
    with_file = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, ["var", str(with_file)])
    assert code == 2 and "error:" in err
    assert main(["--help"]) == 0
    capsys.readouterr()
