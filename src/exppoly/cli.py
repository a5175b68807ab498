"""Command-line surface.

Subcommands: normconst, fit, order, simulate, chambers, verify.  All results
go to stdout as JSON; simulate and the chambers grid additionally write CSV
files.  Exit codes: 0 success, 1 verification failure, 2 input or domain
error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    Membership,
    Support,
    ThetaBi,
    ThetaUni,
    as_support,
    classify_theta_uni,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from .errors import (
    DomainError,
    EmptySample,
    ExpPolyError,
    InputError,
    LinearSystemError,
    NotConverged,
    OnDiscriminant,
    PolynomialError,
    SingularInformation,
    ToleranceNotMet,
    TransportError,
)
from .holo_bi import extend_table, pfaffian_det, table_at
from .holo_uni import extend_derivatives, state_at
from .inference import (
    _stats_order,
    fisher_info,
    fit_mle,
    score_test_halfline,
    score_test_realline,
    select_order,
)
from .oracle import quad_A_bi, quad_moment_uni, sample_uni
from .polyalg import _classify_with_discriminant, _discriminant, discriminant
from .verify import run_suites, suite_names

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(message: str, code: int) -> int:
    json.dump({"error": message}, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


def _parse_coeff_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"could not parse coefficient list {text!r}") from exc


_UNI_FILE_SHAPE = '{"coeffs": [theta_1, ..., theta_d]}'
_BI_FILE_SHAPE = '{"d": d, "coeffs": {"ij": theta_ij, ...}} with two-digit keys ij'


def _theta_from_file(payload: object, mode: str) -> ThetaUni | ThetaBi:
    """The parameter a parsed --theta-file holds, or InputError naming the
    shape it must have.  JSON numbers parse to int or float (a bool is
    neither type)."""
    fields = payload if isinstance(payload, dict) else {}
    coeffs = fields.get("coeffs")
    if mode == "bivariate":
        if not (
            type(fields.get("d")) is int
            and isinstance(coeffs, dict)
            and all(len(k) == 2 and k.isascii() and k.isdigit() for k in coeffs)
            and all(type(v) in (int, float) for v in coeffs.values())
        ):
            raise InputError(f"a bivariate --theta-file holds {_BI_FILE_SHAPE}")
        return ThetaBi(fields["d"], coeffs)
    if not (isinstance(coeffs, list) and all(type(v) in (int, float) for v in coeffs)):
        raise InputError(f"a univariate --theta-file holds {_UNI_FILE_SHAPE}")
    return ThetaUni(coeffs, as_support(mode))


def _theta_from_args(args: argparse.Namespace) -> ThetaUni | ThetaBi:
    """Build the parameter from --theta / --theta-file according to --mode."""
    if getattr(args, "theta_file", None):
        with open(args.theta_file) as fh:
            return _theta_from_file(json.load(fh), args.mode)
    if args.mode == "bivariate":
        if args.theta is None:
            raise InputError("bivariate mode needs --theta or --theta-file")
        if args.d is None:
            raise InputError("bivariate --theta needs --d to fix the order")
        return ThetaBi.from_vector(args.d, _parse_coeff_list(args.theta))
    if args.theta is None:
        raise InputError("need --theta or --theta-file")
    return ThetaUni(_parse_coeff_list(args.theta), as_support(args.mode))


def _require_integrable_uni(theta: ThetaUni) -> None:
    """Reject divergent parameters with a message naming the coefficient."""
    cls = classify_theta_uni(theta)
    if cls.membership is not Membership.OUTSIDE:
        return
    coeffs = theta.coeffs
    k = cls.leading_order
    if k == 0:
        raise DomainError("all coefficients are zero; the density is not normalizable")
    if coeffs[k - 1] > 0.0:
        raise DomainError(
            f"theta_{k} = {coeffs[k - 1]} must be negative (leading non-zero coefficient)"
        )
    raise DomainError(
        f"theta_{k} is the leading non-zero coefficient; whole-line integrability "
        "requires an even leading order"
    )


def _require_proper_bi(theta: ThetaBi) -> None:
    if in_proper_bivariate_space(theta):
        return
    d = theta.d
    if theta[(d, 0)] >= 0.0:
        raise DomainError(f"theta_{d}0 = {theta[(d, 0)]} must be negative")
    if theta[(0, d)] >= 0.0:
        raise DomainError(f"theta_0{d} = {theta[(0, d)]} must be negative")
    raise DomainError(
        "top form attains non-negative values on the quadrant "
        "(cross coefficients too large relative to the axis ones)"
    )


def _float_list(arr) -> list[float]:
    return [float(v) for v in arr]


# ---------------------------------------------------------------- normconst


def cmd_normconst(args: argparse.Namespace) -> int:
    theta = _theta_from_args(args)
    order = args.order if args.order is not None else theta.d
    if isinstance(theta, ThetaBi):
        _require_proper_bi(theta)
        table = extend_table(table_at(theta), order)
        derivs = {
            f"{i}{j}": table.entry(i, j)
            for total in range(order + 1)
            for j, i in ((j, total - j) for j in range(total + 1))
        }
        out = {
            "A": table.norm_const,
            "derivs": derivs,
            "engine_error_estimate": table.last_transport_error,
        }
        quad = quad_A_bi
    else:
        _require_integrable_uni(theta)
        state = state_at(theta)
        derivs = extend_derivatives(state, order)
        out = {
            "A": float(derivs[0]),
            "derivs": _float_list(derivs),
            "engine_error_estimate": state.last_transport_error,
        }
        quad = quad_moment_uni
    if args.verify:
        oracle = quad(theta)
        out["oracle"] = {"value": oracle, "rel_diff": abs(out["A"] - oracle) / abs(oracle)}
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------- fit


def _load_sample(path: str, bivariate: bool) -> np.ndarray:
    import warnings

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read sample file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"malformed CSV {path!r}: {exc}") from exc
    if data.size == 0:
        raise EmptySample(f"sample file {path!r} is empty")
    want = 2 if bivariate else 1
    if data.shape[1] != want:
        raise InputError(
            f"expected {want} column(s) in {path!r}, found {data.shape[1]}"
        )
    return data if bivariate else data[:, 0]


def _theta_hat_payload(theta) -> list | dict:
    if isinstance(theta, ThetaBi):
        return {f"{i}{j}": theta[(i, j)] for (i, j) in monomials_bi(theta.d)}
    return _float_list(theta.coeffs)


def cmd_fit(args: argparse.Namespace) -> int:
    bivariate = args.mode == "bivariate"
    sample = _load_sample(args.csv, bivariate)
    if bivariate:
        stats = suff_stats(sample, args.d, "bivariate")
    else:
        support = as_support(args.mode)
        stats = suff_stats(sample, _stats_order(args.d, support), support)
    result = fit_mle(stats, args.d)
    try:
        standard_errors = _float_list(result.standard_errors(stats.n))
        fisher = [_float_list(row) for row in result.fisher]
        fisher_bound = None if result.fisher_bound is None else [_float_list(row) for row in result.fisher_bound]
    except SingularInformation:
        # the Fisher matrix is not positive definite, or not determined
        standard_errors = fisher = fisher_bound = None
    out = {
        "mode": args.mode,
        "d": args.d,
        "n": stats.n,
        "theta_hat": _theta_hat_payload(result.theta_hat),
        "loglik_bar": result.loglik_bar,
        "grad_norm": result.grad_norm,
        "fisher": fisher,
        "fisher_bound": fisher_bound,
        "standard_errors": standard_errors,
        "iterations": result.iterations,
        "converged": result.converged,
        "hit_boundary": result.hit_boundary,
    }
    _emit(out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


# -------------------------------------------------------------------- order


def _test_payload(res) -> dict:
    return {
        "statistic": res.statistic,
        "null": res.null.value,
        "threshold": res.threshold,
        "alpha": res.alpha,
        "reject": bool(res.reject),
        "theta_hat_null": _float_list(res.theta_hat_null),
        "effective_order": res.effective_order,
    }


def cmd_order(args: argparse.Namespace) -> int:
    support = as_support(args.mode)
    sample = _load_sample(args.csv, bivariate=False)
    chosen, trail = select_order(sample, args.dmax, args.alpha, support)
    _emit(
        {
            "mode": args.mode,
            "dmax": args.dmax,
            "alpha": args.alpha,
            "chosen": chosen,
            "trail": [_test_payload(t) for t in trail],
        }
    )
    return EXIT_OK


# ----------------------------------------------------------------- simulate


def _rep_seed(seed: int, rep: int) -> np.random.SeedSequence:
    """Replication seed splitter: child `rep` of the experiment entropy."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(rep,))


def _csv_row(values: Sequence[float]) -> str:
    return ",".join(repr(float(v)) for v in values)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.mode == "bivariate":
        raise InputError(
            "simulate supports halfline and realline modes; bivariate sampling "
            "is not implemented"
        )
    if args.reps < 1:
        raise InputError(f"--reps must be at least 1, got {args.reps}")
    support = as_support(args.mode)
    theta_star = ThetaUni(_parse_coeff_list(args.theta), support)
    _require_integrable_uni(theta_star)
    d = theta_star.d
    cls = classify_theta_uni(theta_star)
    stat_kind = args.stat
    if stat_kind == "auto":
        stat_kind = "score" if cls.membership is Membership.BOUNDARY else "p"
    if stat_kind == "p" and cls.membership is not Membership.INTERIOR:
        raise InputError("p statistics need an interior theta-star (no trailing zeros)")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if stat_kind == "p":
        info = fisher_info(theta_star)
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        columns = [f"p{i}" for i in range(1, d + 1)]
    else:
        columns = ["T"]

    rows: list[list[float]] = []
    excluded = 0
    for rep in range(args.reps):
        x = sample_uni(theta_star, args.n, seed=_rep_seed(args.seed, rep))
        stats = suff_stats(x, _stats_order(d, support), support)
        try:
            if stat_kind == "p":
                fit = fit_mle(stats, d)
                if not fit.converged:
                    excluded += 1
                    continue
                diff = fit.theta_hat.as_array() - theta_star.as_array()
                rows.append([rep, *(math.sqrt(args.n) * diff / se)])
            else:
                if support is Support.REAL_LINE:
                    res = score_test_realline(stats, d, args.alpha)
                else:
                    res = score_test_halfline(stats, d, args.alpha)
                rows.append([rep, res.statistic])
        except ExpPolyError:
            excluded += 1

    stats_path = out_dir / "stats.csv"
    with open(stats_path, "w") as fh:
        for row in rows:
            fh.write(_csv_row(row) + "\n")

    values = np.array([row[1:] for row in rows]) if rows else np.empty((0, len(columns)))
    ks_defined = values.shape[0] >= 2
    from scipy import stats as sps

    if stat_kind == "p" or support is Support.HALF_LINE:
        null_name = "N(0,1)"
        null_cdf = sps.norm.cdf
    else:
        null_name = "chi2(2)"
        null_cdf = sps.chi2(2).cdf
    summary_cols = []
    for k, name in enumerate(columns):
        col = values[:, k]
        entry = {
            "name": name,
            "mean": float(np.mean(col)) if col.size else None,
            "variance": float(np.var(col, ddof=1)) if col.size > 1 else None,
        }
        if ks_defined:
            ks = sps.kstest(col, null_cdf)
            entry["ks_statistic"] = float(ks.statistic)
            entry["ks_pvalue"] = float(ks.pvalue)
        summary_cols.append(entry)
    summary = {
        "mode": args.mode,
        "theta_star": _float_list(theta_star.coeffs),
        "n": args.n,
        "replications": args.reps,
        "seed": args.seed,
        "statistic": stat_kind,
        "null": null_name,
        "columns": summary_cols,
        "included": int(values.shape[0]),
        "excluded": excluded,
        "ks_defined": ks_defined,
        "stats_csv": str(stats_path),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _emit(summary)
    return EXIT_OK


# ----------------------------------------------------------------- chambers


def _top_from_point(d: int, values: list[float]) -> tuple[float, ...]:
    if len(values) == d + 1:
        return tuple(values)
    if d == 3 and len(values) == 2:
        a, b = values  # (theta_12, theta_21) on the theta_30 = theta_03 = -1 slice
        return (-1.0, b, a, -1.0)
    raise InputError(
        f"a point needs {d + 1} top coefficients (or 2 on the cubic slice), "
        f"got {len(values)}"
    )


def _chamber_report(d: int, top: tuple[float, ...]) -> dict:
    theta = ThetaBi(d, {(d - j, j): top[j] for j in range(d + 1)})
    # the determinants overflow for a large enough form; JSON has no
    # infinity, so such a value is written as null
    with np.errstate(over="ignore"):
        disc = discriminant(top)
        detp = pfaffian_det(theta)
    report = {
        "top": _float_list(top),
        "D": disc if math.isfinite(disc) else None,
        "detp": detp if math.isfinite(detp) else None,
    }
    try:
        label = _classify_with_discriminant(top, disc)
    except OnDiscriminant:
        report.update(
            {"chamber": "boundary", "signature": None, "proper": None, "boundary": True}
        )
        return report
    report.update(
        {
            "chamber": label.letter,
            "signature": {
                "positive": label.n_positive,
                "negative": label.n_negative,
                "complex_pairs": label.n_complex_pairs,
            },
            "proper": label.proper,
            "boundary": False,
        }
    )
    return report


def cmd_chambers(args: argparse.Namespace) -> int:
    d = args.d
    out: dict = {"d": d}
    if args.point:
        points = []
        for text in args.point:
            vals = _parse_coeff_list(text)
            rep = _chamber_report(d, _top_from_point(d, vals))
            rep["point"] = vals
            points.append(rep)
        out["points"] = points
    if args.grid:
        if d != 3:
            raise InputError("the grid sweep is defined on the cubic slice (--d 3)")
        lo, hi = args.grid_range
        step = args.grid_step
        if not (math.isfinite(step) and step > 0.0):
            raise InputError(f"--grid-step must be positive and finite, got {step!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InputError(f"--grid-range needs finite ends with lo < hi, got {lo!r} {hi!r}")
        ticks = np.arange(lo, hi + 0.5 * step, step)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        grid_path = out_dir / "chambers_grid.csv"
        counts: dict[str, int] = {}
        with open(grid_path, "w") as fh:
            row = ticks.tolist()
            for a in row:
                for b in row:
                    top = (-1.0, b, a, -1.0)
                    disc = _discriminant(top)
                    try:
                        name = _classify_with_discriminant(top, disc).letter or "other"
                    except OnDiscriminant:
                        name = "boundary"
                    counts[name] = counts.get(name, 0) + 1
                    fh.write(f"{a!r},{top[1]!r},{disc!r},{name}\n")
        out["grid"] = {
            "csv": str(grid_path),
            "range": [float(lo), float(hi)],
            "step": float(step),
            "points": int(len(ticks) ** 2),
            "chamber_counts": counts,
        }
    if "points" not in out and "grid" not in out:
        raise InputError("chambers needs --point and/or --grid")
    _emit(out)
    return EXIT_OK


# ------------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite or None, d=args.d, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(
            f"{r.name:11s} {status}  max residual {r.max_residual:.3e} "
            f"(tol {r.tol:.1e}, {r.checks} checks, {r.seconds:.2f}s)\n"
        )
    all_passed = all(r.passed for r in results)
    _emit({"suites": [r.as_dict() for r in results], "all_passed": all_passed})
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


# -------------------------------------------------------------------- main


def _add_theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", help="comma-separated coefficients theta_1,...,theta_d")
    p.add_argument("--theta-file", help=f"JSON {_UNI_FILE_SHAPE}; bivariate {_BI_FILE_SHAPE}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exppoly",
        description="Exponential-polynomial densities: normalizing constants by "
        "holonomic transport, maximum likelihood, score tests, and parameter-space "
        "geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normconst", help="normalizing constant and derivatives")
    p.add_argument("--mode", choices=["halfline", "realline", "bivariate"], default="halfline")
    _add_theta_flags(p)
    p.add_argument("--d", type=int, help="order (bivariate --theta lists)")
    p.add_argument("--order", type=int, help="highest derivative order to print")
    p.add_argument("--verify", action="store_true", help="cross-check against quadrature")
    p.set_defaults(func=cmd_normconst)

    p = sub.add_parser("fit", help="maximum likelihood fit from a CSV sample")
    p.add_argument("csv", help="headerless CSV, one column (two for bivariate)")
    p.add_argument("--mode", choices=["halfline", "realline", "bivariate"], default="halfline")
    p.add_argument("--d", type=int, required=True, help="model order")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("order", help="sequential score-test order selection")
    p.add_argument("csv", help="headerless CSV, one column")
    p.add_argument("--mode", choices=["halfline", "realline"], default="halfline")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("simulate", help="Monte Carlo replication harness")
    p.add_argument("--mode", choices=["halfline", "realline", "bivariate"], default="halfline")
    p.add_argument("--theta", required=True, help="true parameter theta-star")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--stat",
        choices=["auto", "p", "score"],
        default="auto",
        help="p: standardized estimates; score: order test statistic; "
        "auto picks score when theta-star has trailing zeros",
    )
    p.add_argument("--out", default="simulate_out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chambers", help="discriminant-chamber analysis of the top form")
    p.add_argument("--d", type=int, default=3)
    p.add_argument(
        "--point",
        action="append",
        help="top coefficients theta_d0,...,theta_0d, or theta_12,theta_21 "
        "on the cubic slice; repeatable",
    )
    p.add_argument("--grid", action="store_true", help="sweep the cubic slice to CSV")
    p.add_argument("--grid-range", type=float, nargs=2, default=[-6.0, 6.0])
    p.add_argument("--grid-step", type=float, default=0.1)
    p.add_argument("--out", default="chambers_out", help="grid output directory")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", action="append", choices=suite_names(), help="repeatable")
    p.add_argument("--d", type=int, help="restrict suites to one order")
    p.add_argument("--seed", type=int, default=20260816)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError, PolynomialError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_INPUT)
    except (TransportError, LinearSystemError, ToleranceNotMet, NotConverged) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_NOT_CONVERGED)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
