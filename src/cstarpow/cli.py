"""Command-line interface.

Subcommands compute symmetric power data, classify irreducible
representations, exercise crossed products and induced representations, and
run the named verification suites.  JSON is the canonical output format and
the human-readable tables are derived from it, so identical inputs and seed
produce byte-identical JSON.

Exit codes: 0 success, 2 parse error, 3 budget exceeded (a BudgetError,
or a MemoryError as a backstop), 4 verification failure (a failed check of
the payload, or a VerificationError raised by a computation).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import acceptance
from .algebra import (algebra_from_json, make_algebra, symmetric_power_basis,
                      symmetric_power_count)
from .classify import (direct_sum_of_power_maps, enumerate_sn_irreps,
                       homogeneous_components, schur_weyl_family,
                       schur_weyl_injectivity_check, wedderburn_comparison)
from .crossed import (action_from_json, corner_embedding, corner_projection,
                      convolve, group_average_projection, integrated_form,
                      involution, spatial_pair, tensor_permutation_action)
from .errors import BudgetError, VerificationError
from .groups import trivial_subgroup, young_subgroup
from .induction import commutant_restriction, fixed_point_unitary, induce
from .linalg import DEFAULT_TOL, op_norm
from .structure import commutant_dimension

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    tol: float = DEFAULT_TOL
    seed: int = 0
    output: str = "table"
    budget: int = 2000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


class CliParseError(Exception):
    pass


def _parse_blocks(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise CliParseError(f"bad block list {text!r}") from exc


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    parse.__name__ = "int"
    return parse


def _load_algebra(args):
    if getattr(args, "spec", None):
        try:
            with open(args.spec) as fh:
                return algebra_from_json(json.load(fh))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CliParseError(f"cannot read algebra spec: {exc}") from exc
    if getattr(args, "blocks", None):
        return make_algebra(_parse_blocks(args.blocks))
    raise CliParseError("provide --blocks or --spec")


def _check_budget(algebra, n, budget):
    ambient = algebra.ambient ** n
    if ambient > budget:
        raise BudgetError(
            f"ambient size {ambient} exceeds the budget {budget}")


def _print_payload(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for line in _table_lines(payload):
        print(line)


def _is_nested(value):
    return isinstance(value, dict) or (
        isinstance(value, list)
        and any(isinstance(x, (dict, list)) for x in value))


def _table_lines(payload, prefix=""):
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if _is_nested(value):
                lines.append(f"{prefix}{key}:")
                lines.extend(_table_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key:<28} {value}")
    elif isinstance(payload, list):
        for value in payload:
            if _is_nested(value):
                lines.append(f"{prefix}-")
                lines.extend(_table_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_sympow(args, cfg: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(args)
    _check_budget(algebra, args.n, cfg.budget)
    sym = symmetric_power_basis(algebra, args.n)
    enumerated, spectral = wedderburn_comparison(
        algebra, args.n, tol=cfg.tol, seed=cfg.seed, sym=sym)
    expected = symmetric_power_count(algebra.dim, args.n)
    payload = {
        "blocks": list(algebra.blocks),
        "n": args.n,
        "dim_symmetric_power": sym.size,
        "binomial_check": sym.size == expected,
        "wedderburn_block_dims": spectral,
        "enumerated_dims": enumerated,
        "sum_of_squares": sum(d * d for d in enumerated),
    }
    code = EXIT_OK if payload["binomial_check"] and enumerated == spectral \
        else EXIT_VERIFY
    return code, payload


def cmd_classify(args, cfg: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(args)
    _check_budget(algebra, args.n, cfg.budget)
    descs = enumerate_sn_irreps(algebra, args.n)
    expected = symmetric_power_count(algebra.dim, args.n)
    payload = {
        "blocks": list(algebra.blocks),
        "n": args.n,
        "descriptors": [d.to_json() for d in descs],
        "sum_of_squares": sum(d.dim ** 2 for d in descs),
        "expected_sum_of_squares": expected,
    }
    code = EXIT_OK if payload["sum_of_squares"] == expected else EXIT_VERIFY
    if args.crosscheck:
        enumerated, spectral = wedderburn_comparison(
            algebra, args.n, tol=cfg.tol, seed=cfg.seed)
        payload["crosscheck"] = {
            "enumerated": enumerated,
            "spectral": spectral,
            "passed": enumerated == spectral,
        }
        if not payload["crosscheck"]["passed"]:
            code = EXIT_VERIFY
    return code, payload


def _load_action(args, cfg: RunConfig):
    if getattr(args, "action_spec", None):
        try:
            with open(args.action_spec) as fh:
                return action_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliParseError(f"cannot read action spec: {exc}") from exc
    blocks = _parse_blocks(args.blocks) if args.blocks else None
    if blocks is None:
        raise CliParseError("provide --blocks or --action-spec")
    base = make_algebra(blocks)
    _check_budget(base, args.n, cfg.budget)
    return tensor_permutation_action(base, args.n)


def cmd_crossed(args, cfg: RunConfig) -> tuple[int, dict]:
    action = _load_action(args, cfg)
    rng = np.random.default_rng(cfg.seed)
    pair = spatial_pair(action, check=False) if hasattr(action, "base") else None
    p = corner_projection(action)
    pp = convolve(p, p)
    p_residual = float(np.max(np.abs(pp.values - p.values)))
    star_residual = float(np.max(np.abs(involution(p).values - p.values)))
    fixed = action.fixed_space(cfg.tol)
    sample_worst = 0.0
    if pair is not None:
        pu = group_average_projection(pair)
        for _ in range(args.samples):
            c = rng.standard_normal(fixed.shape[0]) \
                + 1j * rng.standard_normal(fixed.shape[0])
            x = fixed.T @ c
            ix = corner_embedding(action, x, tol=1e-6)
            err = op_norm(integrated_form(pair, ix) - pair.apply(x) @ pu)
            sample_worst = max(sample_worst, err)
    payload = {
        "group_order": action.group.order,
        "algebra_dim": action.algebra.dim,
        "fixed_point_dim": int(fixed.shape[0]),
        "corner_idempotent_residual": p_residual,
        "corner_selfadjoint_residual": star_residual,
        "corner_compression_residual": sample_worst,
        "samples": args.samples,
    }
    ok = max(p_residual, star_residual, sample_worst) < cfg.tol
    return (EXIT_OK if ok else EXIT_VERIFY), payload


def cmd_induce(args, cfg: RunConfig) -> tuple[int, dict]:
    action = _load_action(args, cfg)
    group = action.group
    if args.q:
        sub = young_subgroup(_parse_blocks(args.q), group)
    else:
        sub = trivial_subgroup(group)
    base = spatial_pair(action, check=False).restrict(sub)
    ind = induce(base, action, sub, tol=cfg.tol)
    iso = fixed_point_unitary(ind, cfg.tol)
    restriction = commutant_restriction(ind, 0, cfg.tol)
    payload = {
        "subgroup_order": sub.order,
        "index": sub.index,
        "base_dim": base.dim,
        "induced_dim": ind.pair.dim,
        "fixed_rank_base": int(iso.shape[1]),
        "commutant_dim_induced": restriction.source_dim,
        "commutant_dim_compressed": restriction.target_dim,
    }
    ok = ind.pair.dim == sub.index * base.dim \
        and restriction.source_dim == restriction.target_dim
    return (EXIT_OK if ok else EXIT_VERIFY), payload


def cmd_schur_weyl(args, cfg: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(args)
    _check_budget(algebra, args.n, cfg.budget)
    family = schur_weyl_family(algebra, args.n, cfg.tol)
    reps = [{
        "block": j,
        "partition": list(lam),
        "dim": rep.dim,
        "commutant_dim": commutant_dimension(rep.images, cfg.tol),
    } for j, lam, rep in family]
    payload = {
        "blocks": list(algebra.blocks),
        "n": args.n,
        "schur_weyl_irreps": reps,
    }
    code = EXIT_OK if all(r["commutant_dim"] == 1 for r in reps) else EXIT_VERIFY
    if args.injectivity_nmax:
        ok = schur_weyl_injectivity_check(algebra, args.injectivity_nmax,
                                          cfg.tol, {args.n: family})
        payload["injectivity"] = {"n_max": args.injectivity_nmax, "passed": ok}
        if not ok:
            code = EXIT_VERIFY
    return code, payload


def cmd_homog(args, cfg: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(args)
    degrees = _parse_blocks(args.degrees)
    _check_budget(algebra, max(degrees), cfg.budget)
    n_max = args.nmax if args.nmax is not None else max(degrees)
    phi = direct_sum_of_power_maps(algebra, degrees)
    comps = homogeneous_components(phi, algebra, n_max, tol=cfg.tol,
                                   seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    x = algebra.random_element(rng)
    x = x / max(algebra.norm(x), 1e-12)
    recovered = [float(op_norm(c(x))) for c in comps]
    unit_projs = [c(algebra.unit()) for c in comps]
    ortho = 0.0
    for i in range(len(unit_projs)):
        for j in range(len(unit_projs)):
            if i != j:
                ortho = max(ortho, op_norm(unit_projs[i] @ unit_projs[j]))
    payload = {
        "degrees": degrees,
        "n_max": n_max,
        "component_norms_at_sample": recovered,
        "projection_orthogonality_residual": float(ortho),
    }
    return (EXIT_OK if ortho < cfg.tol else EXIT_VERIFY), payload


def cmd_verify(args, cfg: RunConfig) -> tuple[int, dict]:
    names = acceptance.suite_names()
    wanted = names if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in names:
        raise CliParseError(f"unknown suite {args.suite!r}; "
                            f"choose from {', '.join(names)} or all")
    suites = []
    all_ok = True
    for name in wanted:
        result = acceptance.run_suite(name, tol=cfg.tol, seed=cfg.seed,
                                      budget=cfg.budget)
        suites.append(result)
        ok = all(a["passed"] for a in result["assertions"])
        all_ok = all_ok and ok
        for a in result["assertions"]:
            status = "PASS" if a["passed"] else "FAIL"
            print(f"[{status}] {name}: {a['name']}", file=sys.stderr)
    payload = {"suites": suites, "passed": all_ok, "seed": cfg.seed}
    return (EXIT_OK if all_ok else EXIT_VERIFY), payload


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarpow",
        description="symmetric powers and crossed products of "
                    "finite-dimensional C*-algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of a table")
        p.add_argument("--budget", type=int, default=2000,
                       help="largest allowed ambient matrix size")

    p = sub.add_parser("sympow", help="dimension and block data of a symmetric power")
    p.add_argument("--blocks", help="comma separated block sizes, e.g. 2,3")
    p.add_argument("--spec", help="path to an algebra JSON file")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("classify", help="enumerate irreducible representations")
    p.add_argument("--blocks")
    p.add_argument("--spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--crosscheck", action="store_true")
    common(p)

    p = sub.add_parser("crossed", help="corner identities of a crossed product")
    p.add_argument("--blocks")
    p.add_argument("--action-spec", dest="action_spec")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=_int_at_least(0), default=20)
    common(p)

    p = sub.add_parser("induce", help="induce a covariant pair from a subgroup")
    p.add_argument("--blocks")
    p.add_argument("--action-spec", dest="action_spec")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", help="composition describing a Young subgroup")
    common(p)

    p = sub.add_parser("schur-weyl", help="Schur-Weyl representations")
    p.add_argument("--blocks")
    p.add_argument("--spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--injectivity-nmax", dest="injectivity_nmax", type=int)
    common(p)

    p = sub.add_parser("homog", help="homogeneous components of a power map sum")
    p.add_argument("--blocks")
    p.add_argument("--spec")
    p.add_argument("--degrees", default="1,2")
    p.add_argument("--nmax", type=_int_at_least(1))
    common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    common(p)

    return parser


_COMMANDS = {
    "sympow": cmd_sympow,
    "classify": cmd_classify,
    "crossed": cmd_crossed,
    "induce": cmd_induce,
    "schur-weyl": cmd_schur_weyl,
    "homog": cmd_homog,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(tol=args.tol, seed=args.seed,
                        output="json" if args.json else "table",
                        budget=args.budget)
        code, payload = _COMMANDS[args.command](args, cfg)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"budget exceeded: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _print_payload(payload, cfg.output == "json")
    return code


if __name__ == "__main__":
    sys.exit(main())
