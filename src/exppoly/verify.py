"""Built-in verification suites.

Each suite stresses one load-bearing identity of the package against an
independent reference (quadrature, closed forms, finite differences,
resultants, numpy root finding) and reports its worst observed residual.
They are deliberately randomized but seeded, so a failing report is
reproducible by rerunning with the same seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import (
    SuffStats,
    Support,
    ThetaBi,
    ThetaUni,
    monomials_bi,
    suff_stats,
)
from .holo_bi import extend_table, pfaffian_det, table_at
from .holo_uni import initial_state, norm_const_and_derivs, transport
from .inference import (
    fisher_info,
    fit_mle,
    mle_existence_check,
    score_test_halfline,
)
from .oracle import closed_form_A, numeric_cdf, quad_A_bi, quad_moment_uni, sample_uni
from .polyalg import (
    count_real_roots,
    discriminant,
    squarefree_part,
    sylvester_resultant,
)

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tol: float
    checks: int
    seconds: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "checks": self.checks,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


def random_theta_uni(rng: np.random.Generator, d: int, support: Support) -> ThetaUni:
    """Random interior parameter: generic lower coefficients, negative lead."""
    coeffs = rng.uniform(-2.0, 2.0, size=d)
    coeffs[-1] = -rng.uniform(0.4, 2.5)
    return ThetaUni(coeffs, support)


def random_theta_bi_proper(rng: np.random.Generator, d: int = 2) -> ThetaBi:
    """Random parameter with integrable top form (negative on the quadrant)."""
    if d == 2:
        c20 = -rng.uniform(0.4, 2.5)
        c02 = -rng.uniform(0.4, 2.5)
        c11 = rng.uniform(-0.9, 0.9) * 2.0 * math.sqrt(c20 * c02)
        return ThetaBi(
            2,
            {
                (1, 0): rng.uniform(-2.0, 2.0),
                (0, 1): rng.uniform(-2.0, 2.0),
                (2, 0): c20,
                (1, 1): c11,
                (0, 2): c02,
            },
        )
    # higher orders: negative axis coefficients dominate small cross terms,
    # guaranteeing the top form stays negative on the closed quadrant
    coeffs = {}
    for i, j in monomials_bi(d):
        if i + j < d:
            coeffs[(i, j)] = float(rng.uniform(-1.0, 1.0))
    lead = rng.uniform(1.0, 2.0)
    for i, j in monomials_bi(d):
        if i + j == d:
            if i == d or j == d:
                coeffs[(i, j)] = -lead
            else:
                coeffs[(i, j)] = float(rng.uniform(-0.3, 0.3)) * lead
    return ThetaBi(d, coeffs)


def random_theta_bi_any(rng: np.random.Generator, d: int) -> ThetaBi:
    """Random parameter with no properness constraint (algebraic checks)."""
    coeffs = {ij: float(rng.uniform(-3.0, 3.0)) for ij in monomials_bi(d)}
    if abs(coeffs[(d, 0)]) < 1e-2:
        coeffs[(d, 0)] = 1.0
    return ThetaBi(d, coeffs)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _suite_closedform(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    worst = 0.0
    checks = 0
    for _ in range(25):
        th = ThetaUni((-float(rng.uniform(0.2, 4.0)),))
        worst = max(worst, _rel(norm_const_and_derivs(th)[0], closed_form_A(th)))
        checks += 1
    for support in (Support.HALF_LINE, Support.REAL_LINE):
        for _ in range(25):
            th = random_theta_uni(rng, 2, support)
            want = closed_form_A(th)
            # the engine answers order 2 in closed form; the transport from
            # the gamma point keeps the holonomic method checked there
            moved = transport(initial_state(2, -th.coeffs[1], support), th)
            worst = max(worst, _rel(norm_const_and_derivs(th)[0], want), _rel(moved.norm_const, want))
            checks += 2
    return worst, checks, "d=1 and order-2 closed forms, both supports, engine and transport"


def _suite_oracle(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    ds = [d] if d is not None else [2, 3, 4]
    worst = 0.0
    checks = 0
    for dd in ds:
        for _ in range(6):
            th = random_theta_uni(rng, dd, Support.HALF_LINE)
            worst = max(
                worst,
                _rel(norm_const_and_derivs(th, 0)[0], quad_moment_uni(th)),
            )
            checks += 1
        if dd % 2 == 0:
            for _ in range(6):
                th = random_theta_uni(rng, dd, Support.REAL_LINE)
                worst = max(
                    worst,
                    _rel(norm_const_and_derivs(th, 0)[0], quad_moment_uni(th)),
                )
                checks += 1
    return worst, checks, f"transport vs quadrature, d in {ds}"


def _suite_gradient(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    dd = d if d is not None else 3
    worst_g = 0.0
    worst_h = 0.0
    checks = 0
    for _ in range(5):
        th = random_theta_uni(rng, dd, Support.HALF_LINE)
        derivs = norm_const_and_derivs(th, 2 * dd)
        grad = derivs[1 : dd + 1] / derivs[0]
        info = fisher_info(th)

        def log_a(vec: np.ndarray) -> float:
            return math.log(norm_const_and_derivs(ThetaUni(vec), 0)[0])

        def grad_at(vec: np.ndarray) -> np.ndarray:
            dv = norm_const_and_derivs(ThetaUni(vec), dd)
            return dv[1 : dd + 1] / dv[0]

        base = th.as_array()
        scale_g = float(np.max(np.abs(grad)))
        scale_h = float(np.max(np.abs(info)))
        for k in range(dd):
            h = 1e-5 * max(1.0, abs(base[k]))
            ek = np.zeros(dd)
            ek[k] = h
            fd = (log_a(base + ek) - log_a(base - ek)) / (2 * h)
            worst_g = max(worst_g, abs(fd - grad[k]) / scale_g)
            col = (grad_at(base + ek) - grad_at(base - ek)) / (2 * h)
            worst_h = max(worst_h, float(np.max(np.abs(col - info[:, k]))) / scale_h)
            checks += 2
    # Hessian differences lose ~1 digit to cancellation; fold both into a
    # single residual on the gradient's scale so one tolerance covers the suite
    return max(worst_g, worst_h / 10.0), checks, f"finite differences at d={dd}"


def _suite_detp(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    ds = [d] if d is not None else [2, 3, 4, 5]
    worst = 0.0
    checks = 0
    for dd in ds:
        for _ in range(250):
            th = random_theta_bi_any(rng, dd)
            top = [th[(dd - k, k)] for k in range(dd + 1)]
            lhs = pfaffian_det(th)
            rhs = dd ** (dd - 2) * discriminant(top)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            checks += 1
    return worst, checks, f"det P = d^(d-2) D, d in {ds}"


def _suite_polyalg(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    worst = 0.0
    checks = 0
    for _ in range(20):
        nf = int(rng.integers(2, 5))
        ng = int(rng.integers(2, 5))
        f = rng.uniform(-2, 2, size=nf + 1)
        g = rng.uniform(-2, 2, size=ng + 1)
        f[0] = math.copysign(max(abs(f[0]), 0.5), f[0] if f[0] else 1.0)
        g[0] = math.copysign(max(abs(g[0]), 0.5), g[0] if g[0] else 1.0)
        res = sylvester_resultant(f, g)
        roots = np.roots(f)
        ref = f[0] ** ng * np.prod([np.polyval(g, r) for r in roots])
        worst = max(worst, _rel(res, float(np.real(ref))))
        checks += 1
    for _ in range(20):
        roots = np.sort(rng.uniform(-3, 3, size=4))
        while np.min(np.diff(roots)) < 0.3:
            roots = np.sort(rng.uniform(-3, 3, size=4))
        coeffs = np.poly(roots)
        if count_real_roots(coeffs) != 4:
            return math.inf, checks, "real-root count disagrees with constructed roots"
        checks += 1
    sf = squarefree_part(np.poly([1.0, 1.0, -1.0, -1.0, 2.0]))
    if count_real_roots(sf) != 3:
        return math.inf, checks, "squarefree part lost a root"
    checks += 1
    return worst, checks, "resultants vs companion roots; Sturm counts"


def _suite_bivariate(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    ds = [d] if d is not None else [2, 3]
    worst = 0.0
    checks = 0
    for dd in ds:
        th = random_theta_bi_proper(rng, dd)
        table = table_at(th)
        worst = max(worst, _rel(table.norm_const, quad_A_bi(th)))
        checks += 1
        # transpose symmetry: swapping the roles of x and y must commute
        # with transport
        tt = table_at(th.transpose())
        for (i, j), v in table.values.items():
            worst = max(worst, _rel(v, tt.entry(j, i)))
            checks += 1
        extend_table(table, 2 * dd)  # residual guard raises on inconsistency
        checks += 1
    return worst, checks, f"oracle + transpose symmetry, d in {ds}"


def _suite_sampler(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    from scipy import stats as sps

    worst = 0.0
    checks = 0
    for th in (
        ThetaUni((-1.0, 3.0, -2.0)),
        ThetaUni((1.0, -1.0), Support.REAL_LINE),
    ):
        x = sample_uni(th, 3000, seed=int(rng.integers(0, 2**31)))
        cdf, _ = numeric_cdf(th)
        stat = sps.kstest(x, cdf)
        if stat.pvalue < 0.01:
            return math.inf, checks, f"KS rejected at 1% (p={stat.pvalue:.2e})"
        worst = max(worst, float(stat.statistic))
        checks += 1
    return worst, checks, "inverse-CDF sampler KS vs numeric CDF"


def _suite_inference(d: int | None, rng: np.random.Generator) -> tuple[float, int, str]:
    worst = 0.0
    checks = 0
    x = rng.exponential(scale=0.7, size=300)
    st = suff_stats(x, 2, Support.HALF_LINE)
    r1 = fit_mle(st, 1)
    worst = max(worst, _rel(r1.theta_hat.coeffs[0], -1.0 / float(np.mean(x))))
    checks += 1

    exact = SuffStats(n=100, order=2, support=Support.HALF_LINE, moments=(1.0, 2.0))
    t0 = score_test_halfline(exact, 2)
    worst = max(worst, abs(t0.statistic))
    checks += 1

    for _ in range(5):
        th = random_theta_uni(rng, 2, Support.HALF_LINE)
        y = sample_uni(th, 150, seed=int(rng.integers(0, 2**31)))
        sty = suff_stats(y, 2, Support.HALF_LINE)
        tr = score_test_halfline(sty, 2)
        exists = mle_existence_check(tr.theta_hat_null, sty)
        if exists != (tr.statistic < 0):
            return math.inf, checks, "existence check disagrees with score sign"
        checks += 1

    th2 = random_theta_uni(rng, 2, Support.HALF_LINE)
    z = sample_uni(th2, 500, seed=int(rng.integers(0, 2**31)))
    stz = suff_stats(z, 2, Support.HALF_LINE)
    rz = fit_mle(stz, 2)
    if rz.converged:
        derivs = norm_const_and_derivs(rz.theta_hat, 2)
        for m in (1, 2):
            worst = max(
                worst,
                abs(stz.moment(m) - derivs[m] / derivs[0]) / max(1.0, stz.moment(m)),
            )
            checks += 1
    else:
        return math.inf, checks, "order-2 fit failed to converge"
    return worst, checks, "MLE fixed points, score/existence coherence"


_SUITES: dict[str, tuple[Callable, float]] = {
    "closedform": (_suite_closedform, 1e-10),
    "oracle": (_suite_oracle, 1e-6),
    "gradient": (_suite_gradient, 1e-5),
    "detp": (_suite_detp, 1e-9),
    "polyalg": (_suite_polyalg, 1e-6),
    "bivariate": (_suite_bivariate, 1e-5),
    "sampler": (_suite_sampler, 0.05),
    "inference": (_suite_inference, 1e-6),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suites(
    names: Sequence[str] | None = None,
    d: int | None = None,
    seed: int = 20260816,
) -> list[SuiteResult]:
    """Run the named suites (all by default), each against its own tolerance."""
    if names is None or not names:
        names = suite_names()
    results = []
    for name in names:
        if name not in _SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
        func, tol = _SUITES[name]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        start = time.perf_counter()
        try:
            residual, checks, detail = func(d, rng)
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(
                SuiteResult(
                    name=name,
                    passed=False,
                    max_residual=math.inf,
                    tol=tol,
                    checks=0,
                    seconds=time.perf_counter() - start,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        residual = float(residual)
        results.append(
            SuiteResult(
                name=name,
                passed=bool(residual <= tol),
                max_residual=residual,
                tol=tol,
                checks=checks,
                seconds=time.perf_counter() - start,
                detail=detail,
            )
        )
    return results
