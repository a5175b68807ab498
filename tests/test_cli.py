"""Command-line interface: subcommands, JSON payloads, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from exppoly import cli, verify
from exppoly.domain import ThetaBi, ThetaUni
from exppoly.holo_bi import extend_table, initial_state_bi, transport_bi
from exppoly.oracle import sample_uni

SQRT_PI = math.sqrt(math.pi)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_sample(tmp_path, values, name="sample.csv"):
    path = tmp_path / name
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path)


def test_normconst_half_gaussian(capsys):
    code, out, _ = run(capsys, ["normconst", "--theta", "0,-1"])
    assert code == 0
    assert out["A"] == pytest.approx(SQRT_PI / 2, rel=1e-9)
    assert out["derivs"][1] == pytest.approx(0.5, rel=1e-9)
    assert out["engine_error_estimate"] < 1e-8


def test_normconst_realline(capsys):
    code, out, _ = run(
        capsys, ["normconst", "--mode", "realline", "--theta", "1,-1"]
    )
    assert code == 0
    assert out["A"] == pytest.approx(SQRT_PI * math.exp(0.25), rel=1e-9)


def test_normconst_verify_block(capsys):
    code, out, _ = run(
        capsys, ["normconst", "--theta=-1,3,-2", "--order", "2", "--verify"]
    )
    assert code == 0
    assert out["oracle"]["rel_diff"] < 1e-7
    assert len(out["derivs"]) == 3


def test_normconst_rejects_divergent(capsys):
    code, _, err = run(capsys, ["normconst", "--theta", "1,1"])
    assert code == 2
    assert "theta_2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--theta", "0,0"], "all coefficients are zero; the density is not normalizable"),
        (["--theta", "0,0,2,0"], "theta_3 = 2.0 must be negative (leading non-zero coefficient)"),
        (
            ["--theta", "1,-1,-1,0", "--mode", "realline"],
            "theta_3 is the leading non-zero coefficient; whole-line integrability "
            "requires an even leading order",
        ),
    ],
)
def test_normconst_divergent_messages(capsys, argv, message):
    code, _, err = run(capsys, ["normconst", *argv])
    assert code == 2
    assert json.loads(err)["error"] == "DomainError: " + message


def test_normconst_bivariate_theta_file(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    theta_file.write_text(
        json.dumps({"d": 2, "coeffs": {"20": -1.0, "11": -0.8, "02": -1.3}})
    )
    code, out, _ = run(
        capsys,
        ["normconst", "--mode", "bivariate", "--theta-file", str(theta_file), "--verify"],
    )
    assert code == 0
    assert out["oracle"]["rel_diff"] < 1e-6
    assert "00" in out["derivs"] and "11" in out["derivs"]
    assert out["A"] == pytest.approx(out["derivs"]["00"])


def test_normconst_bivariate_derivs_order(capsys, tmp_path):
    # keys by total order, then by the power of y; each value is the table's
    # entry, bit for bit
    coeffs = {"10": 0.4, "01": -0.3, "20": -1.0, "11": -0.8, "02": -1.3}
    theta_file = tmp_path / "theta.json"
    theta_file.write_text(json.dumps({"d": 2, "coeffs": coeffs}))
    argv = ["normconst", "--mode", "bivariate", "--theta-file", str(theta_file), "--order", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    keys = [f"{n - j}{j}" for n in range(5) for j in range(n + 1)]
    assert list(out["derivs"]) == keys
    theta = ThetaBi(2, {(int(k[0]), int(k[1])): v for k, v in coeffs.items()})
    table = extend_table(transport_bi(initial_state_bi(2, 1.0, 1.3), theta), 4)
    assert out["derivs"] == {k: table.entry(int(k[0]), int(k[1])) for k in keys}
    assert out["A"] == table.norm_const


@pytest.mark.parametrize("mode", ["halfline", "bivariate"])
@pytest.mark.parametrize(
    "payload", [[1, -2], {"d": 2}, {"coeffs": "abc"}], ids=["list", "no-coeffs", "string-coeffs"]
)
def test_normconst_malformed_theta_file_exits_2(capsys, tmp_path, payload, mode):
    # one error line naming the shape the file must have, not a traceback
    theta_file = tmp_path / "theta.json"
    theta_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["normconst", "--mode", mode, "--theta-file", str(theta_file)])
    assert code == 2 and out is None
    message = json.loads(err)["error"]
    assert message.startswith("InputError: ") and '"coeffs"' in message


def test_normconst_theta_file_not_utf8_exits_2(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    theta_file.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["normconst", "--theta-file", str(theta_file)])
    assert code == 2 and out is None
    assert "utf-8" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["normconst", "--theta=-1,3,-2", "--order", "-1"],
        ["normconst", "--mode", "bivariate", "--d", "2", "--theta", "0.4,-0.3,-1,-0.8,-1.3"]
        + ["--order", "-1"],
    ],
    ids=["univariate", "bivariate"],
)
def test_normconst_rejects_negative_order(capsys, argv):
    # the bivariate command used to exit 0 with "derivs": {}
    code, out, err = run(capsys, argv)
    assert code == 2 and out is None
    assert json.loads(err)["error"] == "InputError: derivative order must be an integer >= 0, got -1"


def test_normconst_needs_theta(capsys):
    code, _, err = run(capsys, ["normconst"])
    assert code == 2 and err


def test_fit_exponential(capsys, tmp_path):
    csv = write_sample(tmp_path, [1.0, 3.0])
    code, out, _ = run(capsys, ["fit", csv, "--d", "1"])
    assert code == 0
    assert out["converged"] is True
    assert out["theta_hat"][0] == pytest.approx(-0.5, rel=1e-10)
    assert out["n"] == 2


def test_fit_empty_csv(capsys, tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("")
    code, _, err = run(capsys, ["fit", str(csv), "--d", "1"])
    assert code == 2
    assert "EmptySample" in err


def test_fit_boundary_data_exit_code(capsys, tmp_path):
    # overdispersed sample: quadratic MLE sits on the boundary
    csv = write_sample(tmp_path, [0.05, 0.2, 2.75])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["fit", csv, "--d", "2"])
    # strict JSON: NaN or Infinity in the output is an error
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 3
    assert out["converged"] is False
    assert out["hit_boundary"] is True
    # the Fisher matrix there is not positive definite, nor determined by
    # its error bound, so neither it nor the standard errors are printed
    assert out["standard_errors"] is None
    assert out["fisher"] is None


def test_fit_reports_fisher_bound_univariate(capsys, tmp_path):
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=3)
    code, out, _ = run(capsys, ["fit", write_sample(tmp_path, x), "--d", "3"])
    assert code == 0
    fisher, bound = np.array(out["fisher"]), np.array(out["fisher_bound"])
    assert bound.shape == fisher.shape == (3, 3)
    assert np.all(bound >= 0.0) and np.max(bound / np.abs(fisher)) < 1e-8


def test_fit_fisher_bound_null(capsys, tmp_path):
    # bivariate: the engine gives no bound next to its Fisher matrix
    x = sample_uni(ThetaUni((1.0, -1.0)), 500, seed=4)
    y = sample_uni(ThetaUni((0.5, -2.0)), 500, seed=5)
    csv = tmp_path / "bi.csv"
    csv.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    code, out, _ = run(capsys, ["fit", str(csv), "--mode", "bivariate", "--d", "2"])
    assert code == 0
    assert np.array(out["fisher"]).shape == (5, 5)
    assert out["fisher_bound"] is None
    # boundary fit: no Fisher matrix, so no bound either
    code, out, _ = run(capsys, ["fit", write_sample(tmp_path, [0.05, 0.2, 2.75]), "--d", "2"])
    assert code == 3
    assert out["fisher"] is None and out["fisher_bound"] is None


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in CLI output")


def test_order_selects_cubic(capsys, tmp_path):
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1500, seed=10)
    csv = write_sample(tmp_path, x)
    code, out, _ = run(capsys, ["order", csv, "--dmax", "5"])
    assert code == 0
    assert out["chosen"] == 3
    assert [t["reject"] for t in out["trail"]] == [True, True, False]
    assert out["trail"][0]["null"] == "std_normal_lower_tail"


def test_order_degenerate_dmax(capsys, tmp_path):
    csv = write_sample(tmp_path, [0.5, 1.0, 2.0])
    code, out, _ = run(capsys, ["order", csv, "--dmax", "1"])
    assert code == 0
    assert out["chosen"] == 1
    assert out["trail"] == []


def test_simulate_small_run(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, _ = run(
        capsys,
        [
            "simulate",
            "--theta=-1,3,-2",
            "--n",
            "200",
            "--reps",
            "8",
            "--seed",
            "7",
            "--out",
            str(out_dir),
        ],
    )
    assert code == 0
    assert out["statistic"] == "p"
    assert out["included"] + out["excluded"] == 8
    assert (out_dir / "stats.csv").exists()
    assert (out_dir / "summary.json").exists()
    on_disk = json.loads((out_dir / "summary.json").read_text())
    assert on_disk == out


def test_simulate_deterministic(capsys, tmp_path):
    argv = [
        "simulate",
        "--theta=-1,3,-2",
        "--n",
        "150",
        "--reps",
        "4",
        "--seed",
        "11",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()


def test_simulate_boundary_theta_uses_score(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, _ = run(
        capsys,
        [
            "simulate",
            "--theta=3,-2,0",
            "--n",
            "200",
            "--reps",
            "3",
            "--seed",
            "2",
            "--out",
            str(out_dir),
        ],
    )
    assert code == 0
    assert out["statistic"] == "score"
    assert out["columns"][0]["name"] == "T"
    assert out["null"] == "N(0,1)"


def test_simulate_single_rep_no_ks(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "simulate",
            "--theta=-1",
            "--n",
            "50",
            "--reps",
            "1",
            "--out",
            str(tmp_path / "sim"),
        ],
    )
    assert code == 0
    assert out["ks_defined"] is False
    assert "ks_pvalue" not in out["columns"][0]


@pytest.mark.parametrize("reps", ["-1", "0"])
def test_simulate_rejects_reps_below_one(capsys, tmp_path, reps):
    out_dir = tmp_path / "sim"
    code, out, err = run(
        capsys,
        ["simulate", "--theta=-1,3,-2", "--reps", reps, "--out", str(out_dir)],
    )
    assert code == 2 and out is None
    assert "InputError" in err and "--reps" in err
    assert not out_dir.exists()


def test_simulate_bivariate_unsupported(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["simulate", "--mode", "bivariate", "--theta=-1,-1", "--out", str(tmp_path)],
    )
    assert code == 2
    assert "bivariate" in err


def test_chambers_fixture_points(capsys):
    code, out, _ = run(
        capsys,
        [
            "chambers",
            "--point=5,-3",
            "--point=0,0",
            "--point=-4,-4",
            "--point=-3.5,-3.5",
            "--point=1,1",
        ],
    )
    assert code == 0
    reports = {tuple(p["point"]): p for p in out["points"]}
    assert reports[(0.0, 0.0)]["chamber"] == "B"
    assert reports[(0.0, 0.0)]["proper"] is True
    assert reports[(0.0, 0.0)]["D"] == pytest.approx(27.0)
    assert reports[(0.0, 0.0)]["detp"] == pytest.approx(81.0)
    assert reports[(-4.0, -4.0)]["chamber"] == "C"
    assert reports[(-3.5, -3.5)]["chamber"] == "C"
    assert reports[(-3.5, -3.5)]["proper"] is True
    assert reports[(1.0, 1.0)]["chamber"] == "boundary"
    assert reports[(1.0, 1.0)]["boundary"] is True


def test_chambers_detp_tracks_discriminant(capsys):
    code, out, _ = run(capsys, ["chambers", "--point=2,-1.5"])
    assert code == 0
    rep = out["points"][0]
    assert rep["detp"] == pytest.approx(3.0 * rep["D"], rel=1e-9)


@pytest.mark.parametrize(
    "d, point", [("3", "-1,1e80,0,-1"), ("3", "1e80,-1"), ("6", "-1,1e31,0,0,0,0,-1")]
)
def test_chambers_large_coefficients_report(capsys, d, point):
    # max(1, max|c|)^(2d-2) is beyond double range at these points
    code, out, _ = run(capsys, ["chambers", "--d", d, f"--point={point}"])
    assert code == 0
    (rep,) = out["points"]
    assert rep["chamber"] == "boundary" and rep["boundary"] is True
    assert math.isfinite(rep["D"])


def test_chambers_overflowing_discriminant_is_null(capsys):
    # D and det P overflow here: strict JSON has no -Infinity, so both are
    # null, and numpy's overflow warning stays out of the output
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    assert cli.main(["chambers", "--d", "3", "--point=-1,1e110,0,-1"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    (rep,) = out["points"]
    assert rep["D"] is None and rep["detp"] is None


def test_chambers_grid(capsys, tmp_path):
    out_dir = tmp_path / "ch"
    code, out, _ = run(
        capsys,
        [
            "chambers",
            "--grid",
            "--grid-range", "-3", "3",
            "--grid-step",
            "1.0",
            "--out",
            str(out_dir),
        ],
    )
    assert code == 0
    grid = out["grid"]
    assert grid["points"] == 49
    assert sum(grid["chamber_counts"].values()) == 49
    rows = (out_dir / "chambers_grid.csv").read_text().strip().split("\n")
    assert len(rows) == 49
    from exppoly.polyalg import discriminant

    for row in rows:
        a, b, D, name = row.split(",")
        assert name in {"A", "B", "C", "boundary"}
        assert float(D) == pytest.approx(
            discriminant((-1.0, float(b), float(a), -1.0)), rel=1e-12
        )


def test_chambers_grid_readme_defaults(capsys, tmp_path):
    # the grid passes (1, 1), where the top form has a double root but D
    # computes to 1.6e-12, just above the on-wall tolerance
    code, out, _ = run(
        capsys,
        [
            "chambers",
            "--grid",
            "--grid-range", "-6", "6",
            "--grid-step", "0.1",
            "--out", str(tmp_path / "ch"),
        ],
    )
    assert code == 0
    assert out["grid"]["points"] == 121 * 121
    assert out["grid"]["chamber_counts"]["boundary"] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid-step", "0"],
        ["--grid-step", "nan"],
        ["--grid-step=-0.1"],
        ["--grid-range", "6", "-6"],
        ["--grid-range", "-6", "inf"],
    ],
    ids=["zero-step", "nan-step", "negative-step", "reversed-range", "infinite-end"],
)
def test_chambers_grid_rejects_bad_grid(capsys, tmp_path, argv):
    out_dir = tmp_path / "ch"
    code, out, err = run(capsys, ["chambers", "--grid", *argv, "--out", str(out_dir)])
    assert code == 2 and out is None
    assert "InputError" in err
    assert not out_dir.exists()


def test_chambers_requires_work(capsys):
    code, _, err = run(capsys, ["chambers"])
    assert code == 2 and err


def test_verify_fast_suites(capsys):
    code, out, err = run(
        capsys, ["verify", "--suite", "closedform", "--suite", "detp"]
    )
    assert code == 0
    assert out["all_passed"] is True
    assert {s["name"] for s in out["suites"]} == {"closedform", "detp"}
    assert "PASS" in err


def test_verify_detp_below_degree_two_names_the_order(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "detp", "--d", "1"])
    assert code == 1
    (suite,) = out["suites"]
    assert suite["detail"].startswith("UnsupportedOrder: bivariate engine needs degree >= 2")


def test_verify_failing_tolerance(capsys, monkeypatch):
    # a suite whose residual exceeds its tolerance fails the command
    func, _ = verify._SUITES["detp"]
    monkeypatch.setitem(verify._SUITES, "detp", (func, 1e-20))
    code, out, err = run(capsys, ["verify", "--suite", "detp"])
    assert code == 1
    assert out["all_passed"] is False
    assert "FAIL" in err


_NO_SCIPY_CHILD = """
import json, sys
import exppoly, exppoly.cli
codes = [
    exppoly.cli.main(["normconst", "--theta=-1,3,-2", "--order", "2"]),
    exppoly.cli.main(["normconst", "--theta=-3,-0.5", "--order", "4"]),
    exppoly.cli.main(["normconst", "--mode", "realline", "--theta=1,-2", "--order", "4"]),
    exppoly.cli.main(["chambers", "--point=0,0", "--d", "3"]),
]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)}))
"""


def test_transport_commands_do_not_load_scipy():
    # scipy serves only the quadrature oracle, simulate's KS summary and
    # verify; the import, the transport and chamber commands and the
    # order-2 closed forms on both supports must run without it.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["scipy"] == []


def test_fit_seed_7_quartic_writes_standard_errors(capsys, tmp_path):
    x = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 1000, seed=7)
    code, out, _ = run(capsys, ["fit", write_sample(tmp_path, x), "--d", "4"])
    assert code == 0
    assert out["converged"] is True and out["hit_boundary"] is False
    np.testing.assert_allclose(out["theta_hat"], [-0.835, 2.087, -0.881, -0.407], atol=5e-4)
    assert len(out["standard_errors"]) == 4
