"""Command-line interface.

Subcommands compute symmetric power data, classify irreducible
representations, exercise crossed products and induced representations, and
run the named verification suites.  JSON is the canonical output format and
the human-readable tables are derived from it, so identical inputs and seed
produce byte-identical JSON.

The command line is read by ``_parse_args`` from the one flag table,
``_COMMANDS`` and ``_COMMON``, with argparse's grammar and exit codes but
without argparse, whose first use loads gettext and locale.  Spec files are
checked field by field before anything reads them.

Exit codes: 0 success, 2 parse error, 3 budget exceeded (a BudgetError,
or a MemoryError as a backstop), 4 verification failure (a failed check of
the payload, or a VerificationError raised by a computation).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import acceptance
from .algebra import (MAX_DENSE_ENTRIES, algebra_from_json,
                      ambient_power_within_budget, make_algebra,
                      symmetric_power_basis, symmetric_power_count)
from .classify import (direct_sum_of_power_maps, enumerate_sn_irreps,
                       homogeneous_components, schur_weyl_family,
                       schur_weyl_injectivity_check, wedderburn_comparison)
from .crossed import (action_from_json, corner_embedding, corner_projection,
                      convolve, group_average_projection, integrated_form,
                      involution, spatial_pair, tensor_permutation_action)
from .errors import BudgetError, VerificationError
from .groups import trivial_subgroup, young_subgroup
from .induction import commutant_restriction, fixed_point_unitary, induce
from .linalg import DEFAULT_TOL, Draws, largest_op_norm
from .structure import commutant

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
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be positive and finite")
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
    """The type of a flag that takes integers no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return parse


def _read_spec(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliParseError(f"cannot read {what}: {exc}") from exc
    if not isinstance(spec, dict):
        raise CliParseError(f"cannot read {what}: not a JSON object")
    return spec


def _spec_blocks(spec, key: str, what: str) -> list[int]:
    """``spec[key]``, a block list of a spec file, which must be a JSON list
    of integers."""
    blocks = spec.get(key) if isinstance(spec, dict) else None
    if not isinstance(blocks, list) or any(type(k) is not int
                                           for k in blocks):
        raise CliParseError(f"cannot read {what}: {key!r} must be a JSON "
                            "list of integers")
    return blocks


def _check_budget(blocks, n: int, budget: int):
    """Refuse a block list whose ambient size, the sum of the blocks, to the
    power n exceeds the budget, before anything is built.  A list with a
    block below 1 is left to make_algebra, which refuses it."""
    blocks = [int(k) for k in blocks]
    if min(blocks, default=0) >= 1 and \
            not ambient_power_within_budget(blocks, n, budget):
        raise BudgetError(
            f"ambient size {sum(blocks)}^{n} exceeds the budget {budget}")


def _load_algebra(args, n: int, budget: int):
    """The algebra of --spec or --blocks, once _check_budget passes its
    blocks at degree n."""
    if getattr(args, "spec", None):
        spec = _read_spec(args.spec, "algebra spec")
        _check_budget(_spec_blocks(spec, "blocks", "algebra spec"), n, budget)
        return algebra_from_json(spec)
    if getattr(args, "blocks", None):
        blocks = _parse_blocks(args.blocks)
        _check_budget(blocks, n, budget)
        return make_algebra(blocks)
    raise CliParseError("provide --blocks or --spec")


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
    algebra = _load_algebra(args, args.n, cfg.budget)
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
    algebra = _load_algebra(args, args.n, cfg.budget)
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
    """The action of --action-spec, or the factor permutations of the --n-th
    tensor power of --blocks, once _check_budget passes its algebra: the
    power, or the algebra a dense action acts on."""
    if getattr(args, "action_spec", None):
        spec = _read_spec(args.action_spec, "action spec")
        try:
            if "tensor_permutation" in spec:
                power = spec["tensor_permutation"]
                blocks = _spec_blocks(power, "base_blocks", "action spec")
                if type(power.get("n")) is not int:
                    raise CliParseError(
                        "cannot read action spec: 'n' must be an integer")
                _check_budget(blocks, power["n"], cfg.budget)
            elif "maps" in spec:
                _check_budget(_spec_blocks(spec, "blocks", "action spec"), 1,
                              cfg.budget)
            return action_from_json(spec)
        except (ValueError, KeyError) as exc:
            raise CliParseError(f"cannot read action spec: {exc}") from exc
    if not args.blocks:
        raise CliParseError("provide --blocks or --action-spec")
    blocks = _parse_blocks(args.blocks)
    _check_budget(blocks, args.n, cfg.budget)
    return tensor_permutation_action(make_algebra(blocks), args.n)


def _max_deviation(a, b) -> float:
    """The largest entry of |a - b|, computed in place in ``a``."""
    return float(np.max(np.abs(np.subtract(a, b, out=a), out=a).real))


def cmd_crossed(args, cfg: RunConfig) -> tuple[int, dict]:
    action = _load_action(args, cfg)
    rng = Draws(cfg.seed)
    pair = spatial_pair(action, check=False) if hasattr(action, "base") else None
    dim = action.algebra.dim
    if pair is not None and args.samples * dim > MAX_DENSE_ENTRIES:
        raise BudgetError(f"{args.samples} samples of dimension {dim}")
    p = corner_projection(action)
    p_residual = _max_deviation(convolve(p, p).values, p.values)
    star_residual = _max_deviation(involution(p).values, p.values)
    fixed = action.fixed_space(cfg.tol)
    sample_worst = 0.0
    if pair is not None:
        pu = group_average_projection(pair)
        shape = (args.samples, fixed.shape[0])
        xs = rng.complex_normal(shape) @ fixed
        sample_worst = largest_op_norm(
            integrated_form(pair, corner_embedding(action, x, tol=cfg.tol))
            - pair.apply(x) @ pu for x in xs)
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
    # the injectivity check realizes every degree up to its bound
    algebra = _load_algebra(args, max(args.n, args.injectivity_nmax or 0),
                            cfg.budget)
    family = schur_weyl_family(algebra, args.n, cfg.tol)
    reps = [{
        "block": j,
        "partition": list(lam),
        "dim": rep.dim,
        "commutant_dim": commutant(rep.images, cfg.tol).dim,
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
    degrees = _parse_blocks(args.degrees)
    if not degrees:
        raise CliParseError("--degrees needs at least one degree")
    algebra = _load_algebra(args, max(degrees), cfg.budget)
    n_max = args.nmax if args.nmax is not None else max(degrees)
    phi, target = direct_sum_of_power_maps(algebra, degrees)
    comps = homogeneous_components(phi, algebra, target, n_max, tol=cfg.tol,
                                   seed=cfg.seed)
    x = algebra.random_element(Draws(cfg.seed + 1))
    recovered = target.norm(comps(x / max(algebra.norm(x), 1e-12))).tolist()
    unit_projs = comps(algebra.unit())
    ortho = max(target.norm(target.multiply(p, q))
                for i, p in enumerate(unit_projs)
                for j, q in enumerate(unit_projs) if i != j)
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

_BLOCKS = ("--blocks", {"help": "comma separated block sizes, e.g. 2,3"})
_ALGEBRA = [_BLOCKS, ("--spec", {"help": "path to an algebra JSON file"})]
_N = ("--n", {"type": _int_at_least(1), "required": True})
_ACTION = [_BLOCKS, ("--action-spec", {"help": "path to an action JSON file"}),
           ("--n", {"type": _int_at_least(1), "default": 2})]
_COMMON = [
    ("--tol", {"type": float, "default": DEFAULT_TOL}),
    ("--seed", {"type": _int_at_least(0), "default": 0}),
    ("--json", {"action": "store_true",
                "help": "emit canonical JSON instead of a table"}),
    ("--budget", {"type": int, "default": 2000,
                  "help": "largest allowed ambient matrix size"}),
]

# subcommand -> (handler, help, arguments before the common ones)
_COMMANDS = {
    "sympow": (cmd_sympow, "dimension and block data of a symmetric power",
               [*_ALGEBRA, _N]),
    "classify": (cmd_classify, "enumerate irreducible representations",
                 [*_ALGEBRA, _N, ("--crosscheck", {"action": "store_true"})]),
    "crossed": (cmd_crossed, "corner identities of a crossed product",
                [*_ACTION, ("--samples", {"type": _int_at_least(0),
                                          "default": 20})]),
    "induce": (cmd_induce, "induce a covariant pair from a subgroup",
               [*_ACTION, ("--q", {"help": "composition describing a Young "
                                           "subgroup"})]),
    "schur-weyl": (cmd_schur_weyl, "Schur-Weyl representations",
                   [*_ALGEBRA, _N, ("--injectivity-nmax",
                                     {"type": _int_at_least(1)})]),
    "homog": (cmd_homog, "homogeneous components of a power map sum",
              [*_ALGEBRA, ("--degrees", {"default": "1,2"}),
               ("--nmax", {"type": _int_at_least(1)})]),
    "verify": (cmd_verify, "run a named verification suite",
               [("suite", {"help": "a suite name, or all"})]),
}


def _usage(name, full: bool = False) -> str:
    """The usage of subcommand ``name``, or of the program if None; ``full``
    adds a line for each argument, or for each subcommand."""
    rows = [(f if f[0] != "-" or o.get("action") else
             f"{f} {f.lstrip('-').replace('-', '_').upper()}",
             o.get("help", ""), f[0] != "-" or o.get("required"))
            for f, o in [*_COMMANDS[name][2], *_COMMON]] if name else [
        (cmd, entry[1], True) for cmd, entry in _COMMANDS.items()]
    words = [name, "[-h]", *(w if req else f"[{w}]" for w, _, req in rows)] \
        if name else ["[-h]", f"{{{','.join(_COMMANDS)}}} ..."]
    width = max(len(row[0]) for row in rows)
    return "\n".join([" ".join(["usage: cstarpow", *words]), *(
        f"  {w:<{width}}  {h}".rstrip() for w, h, _ in rows if full)])


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command line, read from the table as argparse
    reads it: an ambiguous prefix fails first, then the tokens are read in
    order, then a missing argument fails, then an unknown one.  Help raises
    SystemExit(0); an error prints the usage and raises SystemExit(2)."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None

    def fail(message):
        print(_usage(name), f"error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)

    table = dict([*_COMMANDS[name][2], *_COMMON] if name else [
        ("command", {"type": lambda text: fail(
            f"argument command: invalid choice: {text!r}")})])
    names = ("-h", "--help", *(f for f in table if f[0] == "-"))

    def option(token):
        """(flag or None if unknown, ``=`` value or None), or None: a value."""
        head, eq, value = token.partition("=")
        matches = [f for f in names if f == head] or [
            f for f in names if head[:2] == "--" != head and f.startswith(head)]
        if len(matches) > 1:
            fail(f"ambiguous option: {head} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
        return None if token[:1] != "-" or token == "-" or " " in token \
            or re.fullmatch(r"-\d+|-\d*\.\d+", token) else (None, None)

    rest = argv[1:] if name else argv
    kinds = [option(token) for token in rest]
    values = {f: o.get("default", False if o.get("action") else None)
              for f, o in table.items()}
    slots, extras, i = [f for f in table if f[0] != "-"], [], 0
    while i < len(rest):
        token, kind, i = rest[i], kinds[i], i + 1
        flag, value = kind or ((slots.pop(0), token) if slots else (None, None))
        if flag is None:
            extras.append(token)
        elif flag not in table or table[flag].get("action"):
            if value is not None:
                fail(f"argument {flag}: ignored explicit argument {value!r}")
            if flag not in table:
                print(_usage(name, full=True))
                raise SystemExit(EXIT_OK)
            values[flag] = True
        elif value is None and (i == len(rest) or kinds[i] is not None):
            fail(f"argument {flag}: expected one argument")
        else:
            if value is None:
                value, i = rest[i], i + 1
            try:
                values[flag] = table[flag].get("type", str)(value)
            except ValueError as exc:
                fail(f"argument {flag}: {exc}")
    missing = [f for f, o in table.items() if values[f] is None
               and (f[0] != "-" or o.get("required"))]
    if missing or extras:
        fail(f"the following arguments are required: {', '.join(missing)}"
             if missing else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, **{
        f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        cfg = RunConfig(tol=args.tol, seed=args.seed,
                        output="json" if args.json else "table",
                        budget=args.budget)
        code, payload = _COMMANDS[args.command][0](args, cfg)
    except (CliParseError, ValueError) as exc:
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
