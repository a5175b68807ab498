"""Acceptance suite: one test per shipping criterion, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every test is standalone; the Monte Carlo criteria (5-7) share the
frozen experiment seed so their artifacts are reproducible bit for bit.
"""

import json
import math
import time
from collections import deque

import numpy as np
import pytest

from exppoly import cli
from exppoly.domain import Support, ThetaUni
from exppoly.errors import ToleranceNotMet
from exppoly.holo_bi import pfaffian_det, transport_bi, initial_state_bi
from exppoly.holo_uni import norm_const_and_derivs
from exppoly.inference import fisher_info
from exppoly.oracle import closed_form_A, quad_A_bi, quad_moment_uni
from exppoly.polyalg import classify_chamber, discriminant
from exppoly.verify import random_theta_bi_proper, random_theta_uni

SEED = 20260816


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ------------------------------------------------------------- criterion 1


def test_criterion_1_oracle_equivalence():
    """Engine A matches adaptive quadrature to 1e-6 across orders and supports.

    The engine is allowed to refuse a parameter whose transport conditioning
    exceeds double precision (it raises instead of answering); every refusal
    is counted and must stay rare, and every returned value must meet the
    tolerance.
    """
    rng = np.random.default_rng(SEED)
    cases = [(d, Support.HALF_LINE) for d in range(2, 7)]
    cases += [(d, Support.REAL_LINE) for d in (2, 4, 6)]
    t0 = time.perf_counter()
    worst = 0.0
    refused = 0
    for d, support in cases:
        for _ in range(100):
            theta = random_theta_uni(rng, d, support)
            try:
                a_engine = float(norm_const_and_derivs(theta)[0])
            except ToleranceNotMet:
                refused += 1
                continue
            a_quad = quad_moment_uni(theta)
            worst = max(worst, rel_err(a_engine, a_quad))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and refused <= 5 and elapsed < 60.0
    report(
        1,
        ok,
        f"800 random parameters, max rel diff {worst:.3e} (tol 1e-06), "
        f"{refused} conditioning refusals (cap 5), {elapsed:.1f}s (budget 60s)",
    )
    assert worst <= 1e-6
    assert refused <= 5
    assert elapsed < 60.0


# ------------------------------------------------------------- criterion 2


def test_criterion_2_closed_forms():
    """Exponential, truncated-normal, and Gaussian closed forms to 1e-10."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        th = ThetaUni((-float(rng.uniform(0.1, 3.0)),))
        worst = max(worst, rel_err(float(norm_const_and_derivs(th)[0]), closed_form_A(th)))
    for support in (Support.HALF_LINE, Support.REAL_LINE):
        for _ in range(100):
            th = ThetaUni(
                (float(rng.uniform(-2.0, 2.0)), -float(rng.uniform(0.1, 2.5))),
                support,
            )
            worst = max(worst, rel_err(float(norm_const_and_derivs(th)[0]), closed_form_A(th)))
    ok = worst <= 1e-10
    report(2, ok, f"300 closed-form points, max rel diff {worst:.3e} (tol 1e-10)")
    assert ok


# ------------------------------------------------------------- criterion 3


def test_criterion_3_derivative_correctness():
    """Engine moments and Fisher match central finite differences."""

    def psi_and_moments(theta: ThetaUni) -> tuple[float, np.ndarray]:
        F = norm_const_and_derivs(theta, M=theta.d)
        A = float(F[0])
        from exppoly.inference import _uni_moments

        return math.log(A), _uni_moments(F)[1:]

    rng = np.random.default_rng(SEED)
    worst_grad = 0.0
    worst_fisher = 0.0
    for d in (3, 4):
        for _ in range(10):
            theta = random_theta_uni(rng, d, Support.HALF_LINE)
            vec = np.array(theta.coeffs)
            psi0, mom = psi_and_moments(theta)
            info = fisher_info(theta)
            h = 1e-5
            fd_info = np.empty((d, d))
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                pp, mp = psi_and_moments(ThetaUni(vec + e, theta.support))
                pm, mm = psi_and_moments(ThetaUni(vec - e, theta.support))
                fd_grad_k = (pp - pm) / (2 * h)
                worst_grad = max(worst_grad, rel_err(mom[k], fd_grad_k))
                fd_info[k] = (mp - mm) / (2 * h)
            scale = np.max(np.abs(info))
            worst_fisher = max(
                worst_fisher, float(np.max(np.abs(info - fd_info))) / scale
            )
    ok = worst_grad <= 1e-5 and worst_fisher <= 1e-4
    report(
        3,
        ok,
        f"20 random parameters (d=3,4): grad rel diff {worst_grad:.3e} "
        f"(tol 1e-05), Fisher rel diff {worst_fisher:.3e} (tol 1e-04)",
    )
    assert worst_grad <= 1e-5
    assert worst_fisher <= 1e-4


# ------------------------------------------------------------- criterion 4


def classical_cubic_slice_discriminant(a: float, b: float) -> float:
    # discriminant of -t^3 + b t^2 + a t - 1 in its textbook normalization
    return a * a * b * b + 4 * a**3 + 4 * b**3 + 18 * a * b - 27


def test_criterion_4_detp_identity():
    """det P = d^(d-2) D for random parameters, plus the d=3 slice formula."""
    from exppoly.verify import random_theta_bi_any

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(1000):
            theta = random_theta_bi_any(rng, d)
            got = pfaffian_det(theta)
            top_ascending = theta.top_coeffs()[::-1]
            want = d ** (d - 2) * discriminant(top_ascending)
            scale = max(1.0, abs(want))
            worst = max(worst, abs(got - want) / scale)

    # textbook cubic discriminant on the theta_30 = theta_03 = -1 slice:
    # value -27 at the origin, and equal to minus the resultant-based D
    origin = classical_cubic_slice_discriminant(0.0, 0.0)
    slice_ok = origin == -27.0
    for _ in range(200):
        a, b = rng.uniform(-5, 5, 2)
        mine = discriminant((-1.0, float(b), float(a), -1.0))
        slice_ok = slice_ok and (
            abs(classical_cubic_slice_discriminant(a, b) + mine)
            <= 1e-9 * max(1.0, abs(mine))
        )
    ok = worst <= 1e-9 and slice_ok
    report(
        4,
        ok,
        f"4000 random parameters, max rel residual {worst:.3e} (tol 1e-09); "
        f"slice formula at origin = {origin:+.0f}",
    )
    assert worst <= 1e-9
    assert slice_ok


# ------------------------------------------------------- criteria 5, 6, 7


def run_simulate(tmp_path, theta: str, mode: str = "halfline", n: int = 1000):
    out = tmp_path / "sim"
    code = cli.main(
        [
            "simulate",
            "--mode",
            mode,
            f"--theta={theta}",
            "--n",
            str(n),
            "--reps",
            "200",
            "--seed",
            str(SEED),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = [
        [float(v) for v in line.split(",")]
        for line in (out / "stats.csv").read_text().strip().split("\n")
    ]
    return summary, np.array(rows)


def test_criterion_5_standardized_errors(tmp_path, capsys):
    """Standardized MLE errors for theta*=(-1,3,-2) look standard normal."""
    summary, rows = run_simulate(tmp_path, "-1,3,-2")
    with capsys.disabled():
        pvals = [c["ks_pvalue"] for c in summary["columns"]]
        ks_ok = all(p > 0.01 for p in pvals)
        mean_abs = [float(np.mean(np.abs(rows[:, k]))) for k in (1, 2, 3)]
        e_abs_normal = math.sqrt(2.0 / math.pi)
        band_ok = all(0.6 <= m <= 1.0 for m in mean_abs)
        literal = [m / e_abs_normal for m in mean_abs]
        ok = ks_ok and band_ok and summary["excluded"] == 0
        report(
            5,
            ok,
            f"KS p-values {['%.3f' % p for p in pvals]} (all > 0.01), "
            f"mean|p_i| {['%.3f' % m for m in mean_abs]} in [0.6, 1.0] "
            f"(as multiples of E|N(0,1)|: {['%.3f' % v for v in literal]}), "
            f"excluded {summary['excluded']}",
        )
    assert ks_ok
    assert band_ok
    assert summary["excluded"] == 0


def test_criterion_6_boundary_score_statistic(tmp_path, capsys):
    """Score statistic at boundary theta*=(3,-2,0) is standard normal."""
    summary, rows = run_simulate(tmp_path, "3,-2,0")
    with capsys.disabled():
        assert summary["statistic"] == "score"
        col = summary["columns"][0]
        ok = col["ks_pvalue"] > 0.01
        report(
            6,
            ok,
            f"T_2 KS p-value {col['ks_pvalue']:.3f} (> 0.01), "
            f"mean {col['mean']:+.3f}, variance {col['variance']:.3f}, "
            f"{summary['included']} replications",
        )
    assert ok


def test_criterion_7_realline_reproductions(tmp_path, capsys):
    """Whole-line analogues: interior p_i vs N(0,1), boundary T_2 vs chi2(2)."""
    s_int, _ = run_simulate(tmp_path / "interior", "1,4,-2,-3", mode="realline")
    s_bnd, _ = run_simulate(tmp_path / "boundary", "2,-1,0,0", mode="realline")
    with capsys.disabled():
        p_int = [c["ks_pvalue"] for c in s_int["columns"]]
        p_bnd = s_bnd["columns"][0]["ks_pvalue"]
        ok = all(p > 0.01 for p in p_int) and p_bnd > 0.01
        assert s_bnd["null"] == "chi2(2)"
        report(
            7,
            ok,
            f"interior p_i KS p-values {['%.3f' % p for p in p_int]}, "
            f"boundary T_2 vs chi2(2) KS p-value {p_bnd:.3f} (all > 0.01)",
        )
    assert ok


# ------------------------------------------------------------- criterion 8


def test_criterion_8_chamber_geometry(capsys):
    """Fixture points classify A/B/C; D=0 forms two curves on the grid."""
    fixtures = [
        ((-0.5, 2.5), "A", (2, 1, 0), False),
        ((0.0, 0.0), "B", (0, 1, 1), True),
        ((-3.5, -3.5), "C", (0, 3, 0), True),
    ]
    points_ok = True
    for (a, b), letter, (npos, nneg, npair), proper in fixtures:
        label = classify_chamber((-1.0, b, a, -1.0))
        points_ok = points_ok and (
            label.letter == letter
            and (label.n_positive, label.n_negative, label.n_complex_pairs)
            == (npos, nneg, npair)
            and label.proper is proper
        )

    lo, hi, step = -6.0, 6.0, 0.1
    ticks = np.arange(lo, hi + 0.5 * step, step)
    n = len(ticks)
    sign = np.empty((n, n))
    for i, a in enumerate(ticks):
        for j, b in enumerate(ticks):
            sign[i, j] = np.sign(discriminant((-1.0, float(b), float(a), -1.0)))
    marked = np.zeros((n - 1, n - 1), dtype=bool)
    for i in range(n - 1):
        for j in range(n - 1):
            s = sign[i : i + 2, j : j + 2]
            marked[i, j] = (s.min() != s.max()) or (s == 0).any()
    components = 0
    seen = np.zeros_like(marked)
    for i in range(n - 1):
        for j in range(n - 1):
            if marked[i, j] and not seen[i, j]:
                components += 1
                queue = deque([(i, j)])
                seen[i, j] = True
                while queue:
                    x, y = queue.popleft()
                    for dx in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            u, v = x + dx, y + dy
                            if (
                                0 <= u < n - 1
                                and 0 <= v < n - 1
                                and marked[u, v]
                                and not seen[u, v]
                            ):
                                seen[u, v] = True
                                queue.append((u, v))
    ok = points_ok and components == 2
    with capsys.disabled():
        report(
            8,
            ok,
            f"fixture points A/B/C classified {'correctly' if points_ok else 'WRONG'}; "
            f"zero set on [-6,6]^2 grid has {components} connected curves (want 2)",
        )
    assert points_ok
    assert components == 2


# ------------------------------------------------------------- criterion 9


def test_criterion_9_bivariate_transport(capsys):
    """Quadratic bivariate transport matches 2-D quadrature to 1e-5."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        theta = random_theta_bi_proper(rng, 2)
        top = theta.top_coeffs()
        table = transport_bi(
            initial_state_bi(2, abs(top[0]), abs(top[-1])), theta
        )
        worst = max(worst, rel_err(table.norm_const, quad_A_bi(theta)))
    ok = worst <= 1e-5
    with capsys.disabled():
        report(9, ok, f"50 random proper parameters, max rel diff {worst:.3e} (tol 1e-05)")
    assert ok


# ------------------------------------------------------------ criterion 10


def test_criterion_10_verification_suites(capsys):
    """Every built-in property suite passes through the CLI."""
    code = cli.main(["verify", "--seed", str(SEED)])
    out = capsys.readouterr().out
    payload = json.loads(out)
    names = [s["name"] for s in payload["suites"]]
    ok = code == 0 and payload["all_passed"]
    with capsys.disabled():
        report(10, ok, f"exit code {code}, suites {names} all passed")
    assert code == 0
    assert payload["all_passed"] is True
