"""Command line front end.

Exit codes: 0 on success, 1 on a negative finding (failed check,
non-affiliated prior for the closed form, unreachable target), 2 on any
error.  `main` writes each command's JSON report: it repeats the command
line, digests the input file, and renders results with 12 significant
digits, so identical invocations produce byte-identical result sections;
numbers that move with roundoff go unrounded to `diagnostics` instead.
`ising sweep` prints CSV rows instead.

`check`, `nu` and `bound` import the numpy layers they run when they
run, so the plain-float `ising` commands start without loading numpy.
Where numpy is not installed, those three exit 2 with an error naming it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import List, Optional, Tuple

from .bethe import (
    bethe_fixed_point,
    critical_coupling,
    enforceable_epsilon,
    nu_bethe_limit,
    sensitivity_profile,
)
from .errors import (InferaError, MissingDependency, NotAffiliated, ParseError,
                     SpectralNormTooLarge, UnboundedInfluence, UnsupportedPrior)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_ERROR = 2


def _sig(value):
    """Round floats to 12 significant digits, recursively; numpy arrays and
    scalars first become lists and Python numbers."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return repr(value)
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig(v) for v in value]
    return value


def _digest(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return None


def _write(text: str, args) -> None:
    """Write text to --out, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, flag: str) -> List[float]:
    """The comma-separated numbers given to `flag`; ParseError when any
    field, an empty one included, is not a number."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad {flag} value: {text}") from exc


def _parse_eps(text: str, n: int):
    from .mechanism import PrivacyBudget

    parts = _parse_floats(text, "--eps")
    if len(parts) == 1:
        return PrivacyBudget.uniform(n, parts[0])
    if len(parts) != n:
        raise ParseError(f"--eps needs 1 or {n} values, got {len(parts)}")
    return PrivacyBudget(parts)


def _positive(text: str, source: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ParseError(f"bad {source} value {text!r}") from exc
    if value < 1:
        raise ParseError(f"{source} must be a positive integer, got {text}")
    return value


def _load(args) -> Tuple[object, int]:
    """The prior in --dist, loaded within --cap (or INFERA_CAP), and that
    cap."""
    from .dist import DEFAULT_CAP
    from .files import load_distribution

    if args.cap is not None:
        cap = _positive(args.cap, "--cap")
    else:
        env = os.environ.get("INFERA_CAP")
        cap = _positive(env, "INFERA_CAP") if env else DEFAULT_CAP
    return load_distribution(args.dist, cap=cap), cap


def cmd_check(args, report: dict) -> int:
    from .dist import is_pairwise_positively_correlated, is_positively_affiliated

    prior, cap = _load(args)
    dist = prior.dense(cap)
    results = report["results"]
    failed = False
    what = args.what
    if what in ("affiliation", "both"):
        ok, witness = is_positively_affiliated(dist)
        results["affiliated"] = ok
        if not ok:
            results["witness"] = [list(witness[0]), list(witness[1])]
            failed = True
    if what in ("pairwise", "both"):
        ok = is_pairwise_positively_correlated(dist)
        results["pairwise_positive"] = ok
        failed = failed or not ok
    return EXIT_FINDING if failed else EXIT_OK


def _direction(z) -> str:
    return f"{z[0]}->{z[1]}"


def cmd_nu(args, report: dict) -> int:
    from .files import save_mechanism
    from .lp_exact import DEFAULT_LP_CAP
    from .methods import leakage

    prior, cap = _load(args)
    budget = _parse_eps(args.eps, prior.n)
    lp_cap = DEFAULT_LP_CAP if args.lp_cap is None else _positive(args.lp_cap, "--lp-cap")
    results = report["results"]
    results.update(n=prior.n, target=args.target, method=args.method)
    try:
        found = leakage(prior, budget, args.target, args.method, cap=cap, lp_cap=lp_cap)
    except UnsupportedPrior as exc:
        raise ParseError("--method gibbs needs an ising_tree generator file") from exc
    except NotAffiliated as exc:
        # Only the closed form on its own raises this: "all" skips it.
        results["nu"] = None
        results["not_affiliated_witness"] = [list(w) for w in exc.witness]
        report["warnings"].append(str(exc))
        return EXIT_FINDING
    report["warnings"] += found.warnings
    results["nu"] = found.nu
    if "exact" in found.answers:
        cert = found.answers["exact"]
        report["diagnostics"].update(
            lp_steps={_direction(z): k for z, k in sorted(cert.steps.items())},
            lp_restarted=[_direction(z) for z in cert.restarted])
    answer = found.answers.get(args.method)
    if args.method == "exact":
        per_direction = sorted(answer.per_direction.items())
        results.update(nu_upper=answer.nu_upper, direction=list(answer.direction),
                       lp_objective=answer.lp_objective,
                       per_direction={_direction(z): v for z, v in per_direction})
        if args.witness_out:
            save_mechanism(args.witness_out, answer.witness)
            results["witness_file"] = args.witness_out
    elif args.method == "closed-form":
        results.update(winning_z=answer.winning_z, numerator=answer.numerator,
                       denominator=answer.denominator)
    elif args.method == "all":
        for name, value in found.answers.items():
            results[name.replace("-", "_")] = getattr(value, "nu", value)
        report["diagnostics"]["max_discrepancy"] = found.spread
    return EXIT_OK


def cmd_bound(args, report: dict) -> int:
    from .influence import dobrushin_bounds, influence_matrix, spectral_norm

    prior, cap = _load(args)
    dist = prior.dense(cap)
    budget = _parse_eps(args.eps, dist.n)
    results = report["results"]
    matrix = influence_matrix(dist)
    results["gamma"] = matrix.gamma
    try:
        results["spectral_norm"] = spectral_norm(matrix.gamma)
        bound = dobrushin_bounds(matrix, budget)
    except (UnboundedInfluence, SpectralNormTooLarge) as exc:
        report["warnings"].append(str(exc))
        return EXIT_OK
    results["nu_bound"] = list(bound.nu_bound)
    results["delta"] = bound.delta
    if bound.nu_delta_bound is not None:
        results["nu_delta_bound"] = list(bound.nu_delta_bound)
    return EXIT_OK


def cmd_ising(args, report: dict) -> int:
    results = report["results"]
    if args.ising_cmd == "nu-limit":
        results["nu"] = nu_bethe_limit(args.J, args.eps, args.d)
        results["fixed_point"] = bethe_fixed_point(args.J, 0.5 * args.eps, args.d)
    elif args.ising_cmd == "critical":
        results["critical_coupling"] = critical_coupling(args.d)
    elif args.ising_cmd == "enforce":
        eps = enforceable_epsilon(args.nu, args.J, args.d)
        results["enforceable_eps"] = eps
        if eps is None:
            report["warnings"].append(
                "target is below the supercritical inference floor"
            )
            return EXIT_FINDING
    else:  # sensitivity
        eps_list = _parse_floats(args.eps_list, "--eps-list")
        rows = sensitivity_profile(args.J, args.h0, args.d, eps_list)
        results["profile"] = [{"eps": e, "nu": v} for e, v in rows]
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Write the CSV rows of `ising sweep`; it has no JSON report."""
    eps_grid = _parse_floats(args.eps_grid, "--eps-grid")
    j_grid = _parse_floats(args.J_grid, "--J-grid")
    lines = ["eps,J,h0,d,nu,backend"]
    for J in j_grid:
        for eps in eps_grid:
            if args.h0 == 0.0:  # an interior site
                nu, backend = nu_bethe_limit(J, eps, args.d), "bethe-limit"
            else:  # the root
                ((_, nu),) = sensitivity_profile(J, args.h0, args.d, [eps])
                backend = "bethe-sensitivity"
            lines.append(f"{eps:.12g},{J:.12g},{args.h0:.12g},{args.d},{nu:.12g},{backend}")
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


def _add_common(parser, func, cap: bool = False) -> None:
    parser.add_argument("--out", default=None, help="write the report here")
    if cap:
        parser.add_argument("--cap", default=None,
                            help="size cap of the loaded prior: cells of a dense prior, "
                            "sites of an ising_tree prior, a positive integer (also INFERA_CAP)")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infera",
        description="Inference leakage analysis for differentially private "
        "mechanisms under correlated priors",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="structure checks on a prior")
    p.add_argument("--dist", required=True)
    p.add_argument("--what", choices=("affiliation", "pairwise", "both"), default="both")
    _add_common(p, cmd_check, cap=True)

    p = sub.add_parser("nu", help="inference parameter of one coordinate")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", required=True, help="budget: one value or n comma-separated")
    p.add_argument("--target", type=int, default=0, help="coordinate index")
    p.add_argument("--method", choices=("exact", "closed-form", "gibbs", "all"),
                   default="exact")
    p.add_argument("--witness-out", default=None, help="export the LP witness")
    p.add_argument("--lp-cap", default=None,
                   help="LP size cap: at most 2**(LP_CAP - 1) variables, a positive integer")
    _add_common(p, cmd_nu, cap=True)

    p = sub.add_parser("bound", help="influence-matrix bounds")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", required=True)
    _add_common(p, cmd_bound, cap=True)

    p = sub.add_parser("ising", help="deep-tree analysis")
    isub = p.add_subparsers(dest="ising_cmd", required=True)

    q = isub.add_parser("nu-limit")
    q.add_argument("--J", type=float, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--d", type=int, required=True)
    _add_common(q, cmd_ising)

    q = isub.add_parser("critical")
    q.add_argument("--d", type=int, required=True)
    _add_common(q, cmd_ising)

    q = isub.add_parser("enforce")
    q.add_argument("--nu", type=float, required=True, help="target leakage")
    q.add_argument("--J", type=float, required=True)
    q.add_argument("--d", type=int, required=True)
    _add_common(q, cmd_ising)

    q = isub.add_parser("sensitivity", help="leakage of the root, which has d neighbours")
    q.add_argument("--J", type=float, required=True)
    q.add_argument("--h0", type=float, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--eps-list", required=True, help="comma-separated budgets")
    _add_common(q, cmd_ising)

    text = ("CSV of deep-tree leakage: of an interior site (nu-limit) at h0 = 0, of the "
            "root (sensitivity) otherwise; at J=0.3, eps=0.5, d=2 these are 1.366 and 1.077")
    q = isub.add_parser("sweep", help=text, description=text)
    q.add_argument("--J-grid", required=True, help="comma-separated couplings")
    q.add_argument("--eps-grid", required=True, help="comma-separated budgets")
    q.add_argument("--h0", type=float, default=0.0)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--out", default=None, help="write the CSV here")
    q.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Parse the arguments, run the command and write its JSON report once:
    the command line, the input file and its digest, the command's
    results, warnings and diagnostics, and the time it took."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.func is cmd_sweep:
            return cmd_sweep(args)
        path = getattr(args, "dist", None)
        report = {
            "command": " ".join(argv),
            "inputs": {} if path is None else {"dist": path, "digest": _digest(path)},
            "results": {},
            "warnings": [],
            "diagnostics": {},
        }
        try:
            code = args.func(args, report)
        except ModuleNotFoundError as exc:
            if exc.name is None or exc.name.partition(".")[0] != "numpy":
                raise
            raise MissingDependency(
                f"infera {args.cmd} needs numpy, which is not installed") from exc
        report["results"] = _sig(report["results"])
        report["timing_ms"] = round((time.time() - t0) * 1000.0, 3)
        _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args)
        return code
    except (InferaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
    except Exception as exc:
        # A defect, not a finding: exit code 1 stays reserved for findings.
        sys.stderr.write(f"error: unexpected {type(exc).__name__}: {exc}\n")
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
