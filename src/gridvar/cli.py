"""Command-line surface.

Subcommands: var, osc, approx, classical, atom, suite, generate. Every
command reads a grid (JSON/CSV file, or "-" for JSON on stdin), computes
through the library, and writes one JSON document to stdout or --out.
Exit codes: 0 success, 1 suite invariant failure, 2 usage error, 3
enumeration/guard violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .approx import best_minimax_poly
from .atoms import make_atom, u_norm_bounds, validate_atom
from .classical import (
    hardy_krause_breakdown,
    jordan_variation,
    tonelli_variation,
    vitali_variation,
    wiener_variation,
)
from .errors import GridvarError, GuardError
from .families import FAMILIES, generate
from .grid import GridFunction, LatticeCube, check_cube_in_grid
from .grid_io import dump_json, grid_payload, json_safe, load_grid, save_grid
from .suite import SuiteConfig, run_suite
from .variation import (
    VariationParams,
    ac_modulus,
    restricted_variation,
    smoothness,
    variation_bruteforce,
    variation_dyadic,
    variation_local_search,
)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = dump_json(json_safe(payload), pretty=getattr(args, "pretty", False))
    out = getattr(args, "out", None)
    if out and out != "-":
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_cube(spec: str, f: GridFunction) -> LatticeCube:
    """Cube syntax: "origin[,origin...]:side", e.g. "0,2:2"."""
    try:
        origin_part, side_part = spec.split(":")
        origin = tuple(int(v) for v in origin_part.split(","))
        side = int(side_part)
    except ValueError as exc:
        raise GridvarError(
            f"cube must look like 'o1,...,od:side', got {spec!r}"
        ) from exc
    cube = LatticeCube(origin, side)
    check_cube_in_grid(cube, f)
    return cube


def _cube_arg(args: argparse.Namespace, f: GridFunction) -> LatticeCube:
    if getattr(args, "cube", None):
        return _parse_cube(args.cube, f)
    return f.whole_cube()


def _cube_payload(cube: LatticeCube) -> dict:
    return {"origin": list(cube.origin), "side": cube.side}


def _point_list(spec: str) -> tuple[int, ...]:
    return tuple(int(v) for v in spec.split(","))


# ---------------------------------------------------------------------------
# var


def cmd_var(args: argparse.Namespace) -> int:
    f = load_grid(args.input)
    params = VariationParams(k=args.k, p=args.p, weight=args.weight)
    if args.min_side > 1 and args.method != "brute":
        raise GridvarError("--min-side only applies to --method brute")
    payload: dict = {
        "command": "var",
        "d": f.d,
        "n": f.n,
        "params": {"k": args.k, "p": args.p, "weight": args.weight},
        "smoothness": smoothness(f.d, args.p),
    }
    if args.mesh_cap is not None:
        payload["mesh_cap"] = args.mesh_cap
    if args.volume_cap is not None:
        payload["volume_cap"] = args.volume_cap

    if args.method == "brute":
        if args.mesh_cap is not None and args.volume_cap is not None:
            raise GridvarError("use at most one of --mesh-cap/--volume-cap with --method brute")
        try:
            if args.volume_cap is not None:
                value = ac_modulus(f, params, args.volume_cap, allow_large=args.allow_large)
                payload.update(value=value, method="brute", is_exact=True, optimizer=None)
            elif args.mesh_cap is not None:
                value = restricted_variation(f, params, args.mesh_cap,
                                             allow_large=args.allow_large)
                payload.update(value=value, method="brute", is_exact=True, optimizer=None)
            else:
                cube_filter = None
                if args.min_side > 1:
                    min_side = args.min_side
                    cube_filter = lambda c: c.side >= min_side  # noqa: E731
                result = variation_bruteforce(f, params, allow_large=args.allow_large,
                                              _cube_filter=cube_filter)
                payload.update(
                    value=result.value, method=result.method, is_exact=result.is_exact,
                    optimizer=[_cube_payload(c) for c in result.optimizer],
                )
        except GuardError as exc:
            raise GuardError(f"{exc}; try --method dyadic or --allow-large") from exc
    elif args.method == "dyadic":
        if args.volume_cap is not None:
            raise GridvarError("--volume-cap is not supported with --method dyadic")
        result = variation_dyadic(f, params, mesh_cap=args.mesh_cap)
        payload.update(
            value=result.value, method=result.method, is_exact=result.is_exact,
            optimizer=[_cube_payload(c) for c in result.optimizer],
        )
    else:  # local
        result = variation_local_search(f, params, budget=args.budget,
                                        mesh_cap=args.mesh_cap,
                                        volume_cap=args.volume_cap)
        payload.update(
            value=result.value, method=result.method, is_exact=result.is_exact,
            optimizer=[_cube_payload(c) for c in result.optimizer],
        )
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# osc


def cmd_osc(args: argparse.Namespace) -> int:
    from .differences import osc_directional, osc_k, osc_mixed

    f = load_grid(args.input)
    cube = _cube_arg(args, f)
    payload: dict = {"command": "osc", "d": f.d, "n": f.n, "cube": _cube_payload(cube)}
    if args.alpha is not None:
        alpha = _point_list(args.alpha)
        payload.update(value=osc_mixed(f, cube, alpha), alpha=list(alpha), kind="mixed")
    elif args.axis is not None:
        payload.update(value=osc_directional(f, cube, args.k, args.axis),
                       k=args.k, axis=args.axis, kind="directional")
    else:
        payload.update(value=osc_k(f, cube, args.k), k=args.k, kind="isotropic")
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# approx


def cmd_approx(args: argparse.Namespace) -> int:
    f = load_grid(args.input)
    cube = _cube_arg(args, f)
    result = best_minimax_poly(f, cube, args.k)
    poly = result.minimizer
    payload = {
        "command": "approx",
        "d": f.d,
        "n": f.n,
        "k": args.k,
        "cube": _cube_payload(cube),
        "value": result.value,
        "polynomial": {
            "center": list(poly.center),
            "scale": poly.scale,
            "terms": [{"alpha": list(a), "coefficient": c} for a, c in poly.terms],
        },
        "certificate": [list(pt) for pt in result.certificate],
    }
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classical


def _parse_anchor(spec: str | None, f: GridFunction) -> tuple[int, ...] | None:
    if spec is None or spec == "ones":
        return None  # library default: the all-ones corner
    if spec == "zeros":
        return (0,) * f.d
    return _point_list(spec)


def cmd_classical(args: argparse.Namespace) -> int:
    f = load_grid(args.input)
    notion = args.notion.replace("-", "_")
    payload: dict = {"command": "classical", "d": f.d, "n": f.n, "notion": notion}
    if notion == "vitali" and f.d == 1:
        payload["note"] = "vitali variation on d=1 is the jordan variation"
        notion = "jordan"
    if notion == "jordan":
        payload["value"] = jordan_variation(f)
    elif notion in ("wiener", "wiener_p"):
        payload["notion"] = "wiener_p"
        payload["p"] = args.p
        payload["value"] = wiener_variation(f, args.p, allow_large=args.allow_large)
    elif notion == "vitali":
        result = vitali_variation(f)
        payload.update(
            value=result.value, method=result.method, is_exact=result.is_exact,
            optimizer=[{"lower": list(b.lower), "upper": list(b.upper)}
                       for b in result.optimizer],
        )
    elif notion == "hardy_krause":
        anchor = _parse_anchor(args.anchor, f)
        breakdown = hardy_krause_breakdown(f, anchor)
        payload["anchor"] = list(anchor) if anchor is not None else [f.n - 1] * f.d
        payload["components"] = {
            ",".join(str(a) for a in axes): val for axes, val in breakdown.items()
        }
        payload["value"] = math.fsum(breakdown.values())
    elif notion == "tonelli":
        payload["value"] = tonelli_variation(f)
    else:
        raise GridvarError(
            f"unknown notion {args.notion!r}; use jordan, wiener_p, vitali, "
            "hardy_krause, or tonelli"
        )
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# atom


def _atom_from_payload(obj: dict) -> tuple:
    try:
        n = int(obj["n"])
        cube = LatticeCube(tuple(int(v) for v in obj["cube"]["origin"]),
                           int(obj["cube"]["side"]))
        weights = {tuple(int(v) for v in pt): float(w) for pt, w in obj["weights"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise GridvarError(
            "atom JSON must look like "
            '{"n": 5, "cube": {"origin": [0], "side": 2}, '
            '"weights": [[[0], 0.25], [[1], -0.5], [[2], 0.25]]}'
        ) from exc
    return make_atom(cube, weights), n


def cmd_atom(args: argparse.Namespace) -> int:
    if args.atom_command == "validate":
        if str(args.input) == "-":
            obj = json.load(sys.stdin)
        else:
            path = Path(args.input)
            if not path.exists():
                raise GridvarError(f"no such atom file: {path}")
            obj = json.loads(path.read_text())
        atom, n = _atom_from_payload(obj)
        report = validate_atom(atom, n, args.k)
        payload = {
            "command": "atom-validate",
            "k": args.k,
            "n": n,
            "valid": report.valid,
            "l1": report.l1,
            "max_moment": report.max_moment,
            "support_ok": report.support_ok,
            "failures": list(report.failures),
        }
        _emit(payload, args)
        return EXIT_OK
    # bounds
    f = load_grid(args.input)
    params = VariationParams(k=args.k, p=args.p)
    bounds = u_norm_bounds(f, params, budget=args.budget, allow_large=args.allow_large)
    payload = {
        "command": "atom-bounds",
        "d": f.d,
        "n": f.n,
        "params": {"k": args.k, "p": args.p},
        "lower": bounds.lower,
        "upper": bounds.upper,
        "chains": [
            {
                "coefficients": list(chain.coefficients),
                "atoms": [
                    {
                        "cube": _cube_payload(atom.cube),
                        "weights": [[list(pt), w] for pt, w in atom.weights],
                    }
                    for atom in chain.atoms
                ],
            }
            for chain in bounds.presentation
        ],
        "witness": [[list(pt), val] for pt, val in bounds.witness],
    }
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# suite


def cmd_suite(args: argparse.Namespace) -> int:
    config: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise GridvarError(f"no such config file: {path}")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise GridvarError("suite config must be a JSON object")
        config.update(loaded)
    if args.invariants:
        config["invariants"] = [s.strip() for s in args.invariants.split(",") if s.strip()]
    if args.seeds is not None:
        config["seeds"] = args.seeds
    if args.base_seed is not None:
        config["base_seed"] = args.base_seed
    if args.fuzz:
        config["fuzz"] = True
    report = run_suite(config or None)
    _emit(report.to_payload(include_timing=not args.no_timing), args)
    return EXIT_OK if report.ok else EXIT_SUITE_FAILURE


# ---------------------------------------------------------------------------
# generate


def _parse_family_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise GridvarError(f"--param expects name=value, got {text!r}")
    name, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # plain string parameter
    return name.replace("-", "_"), value


def cmd_generate(args: argparse.Namespace) -> int:
    overrides: dict = {}
    for item in args.param or ():
        name, value = _parse_family_param(item)
        overrides[name] = value
    if args.d is not None:
        overrides["d"] = args.d
    if args.n is not None:
        overrides["n"] = args.n
    f = generate(args.family, args.seed, **overrides)
    if args.out and args.out != "-" and Path(args.out).suffix.lower() == ".csv":
        save_grid(f, args.out)
        return EXIT_OK
    payload = grid_payload(f)
    payload["family"] = args.family.replace("_", "-")
    payload["seed"] = args.seed
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the JSON report to this path instead of stdout")
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridvar",
        description="(k,p)-variations, oscillations, minimax polynomial "
                    "approximation, and classical variations of grid functions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    var = subs.add_parser("var", help="compute a (k,p)-variation")
    var.add_argument("input", help="grid file (.json/.csv) or '-' for JSON on stdin")
    var.add_argument("--k", type=int, default=1)
    var.add_argument("--p", type=float, default=1.0)
    var.add_argument("--weight", choices=("e_k", "osc_k"), default="e_k")
    var.add_argument("--method", choices=("brute", "dyadic", "local"), default="brute")
    var.add_argument("--mesh-cap", type=float, default=None,
                     help="largest admissible cube volume in a packing")
    var.add_argument("--volume-cap", type=float, default=None,
                     help="largest admissible total packing volume")
    var.add_argument("--min-side", type=int, default=1,
                     help="smallest admissible cube side (brute method)")
    var.add_argument("--budget", type=int, default=100,
                     help="local-search improvement budget")
    var.add_argument("--allow-large", action="store_true",
                     help="lift the exhaustive-enumeration size guard")
    _add_common_output(var)
    var.set_defaults(handler=cmd_var)

    osc = subs.add_parser("osc", help="compute an oscillation")
    osc.add_argument("input")
    osc.add_argument("--k", type=int, default=1)
    osc.add_argument("--cube", help="subcube as 'o1,...,od:side' (default: whole grid)")
    group = osc.add_mutually_exclusive_group()
    group.add_argument("--axis", type=int, default=None,
                       help="directional oscillation along this axis")
    group.add_argument("--alpha", default=None,
                       help="mixed oscillation at this multi-index, e.g. '1,1'")
    _add_common_output(osc)
    osc.set_defaults(handler=cmd_osc)

    approx = subs.add_parser("approx", help="best uniform polynomial approximation")
    approx.add_argument("input")
    approx.add_argument("--k", type=int, default=1,
                        help="approximate by total degree <= k-1")
    approx.add_argument("--cube", help="subcube as 'o1,...,od:side' (default: whole grid)")
    _add_common_output(approx)
    approx.set_defaults(handler=cmd_approx)

    classical = subs.add_parser("classical", help="classical variation notions")
    classical.add_argument("input")
    classical.add_argument("--notion", required=True,
                           choices=("jordan", "wiener", "wiener_p", "vitali",
                                    "hardy_krause", "hardy-krause", "tonelli"))
    classical.add_argument("--p", type=float, default=1.0, help="exponent for wiener_p")
    classical.add_argument("--anchor", default=None,
                           help="'ones', 'zeros', or lattice indices 'i1,...,id'")
    classical.add_argument("--allow-large", action="store_true",
                           help="lift the enumeration guard of wiener_p")
    _add_common_output(classical)
    classical.set_defaults(handler=cmd_classical)

    atom = subs.add_parser("atom", help="validate atoms / bracket decomposition norms")
    atom_subs = atom.add_subparsers(dest="atom_command", required=True)
    validate = atom_subs.add_parser("validate", help="check an atom description")
    validate.add_argument("input", help="atom JSON file or '-'")
    validate.add_argument("--k", type=int, default=1)
    _add_common_output(validate)
    validate.set_defaults(handler=cmd_atom)
    bounds = atom_subs.add_parser("bounds", help="two-sided decomposition-norm bounds")
    bounds.add_argument("input", help="grid file holding the functional's weights")
    bounds.add_argument("--k", type=int, default=1)
    bounds.add_argument("--p", type=float, default=1.0)
    bounds.add_argument("--budget", type=int, default=2000)
    bounds.add_argument("--allow-large", action="store_true")
    _add_common_output(bounds)
    bounds.set_defaults(handler=cmd_atom)

    suite = subs.add_parser("suite", help="run the invariant suite")
    suite.add_argument("--config", help="JSON file with suite settings")
    suite.add_argument("--invariants", help="comma-separated invariant ids")
    suite.add_argument("--seeds", type=int, default=None)
    suite.add_argument("--base-seed", type=int, default=None)
    suite.add_argument("--fuzz", action="store_true",
                       help="draw a fresh base seed (recorded in the report)")
    suite.add_argument("--no-timing", action="store_true",
                       help="omit the runtime field for byte-identical reruns")
    _add_common_output(suite)
    suite.set_defaults(handler=cmd_suite)

    gen = subs.add_parser("generate", help="sample a built-in function family")
    gen.add_argument("family", help=f"one of: {', '.join(sorted(FAMILIES))}")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--param", action="append",
                     help="family parameter as name=value (repeatable)")
    _add_common_output(gen)
    gen.set_defaults(handler=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except GridvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
