"""Batch front end: pipelines, exit codes, determinism, invariant suite."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from chident import cli
from chident.model import NaturalSplineGrid

SMALL_CFG = """
forward.n_cells = 64
forward.tau = 2e-5
forward.t_end = 4e-4
data.factor = 2
data.window = 0:4e-4
inverse.kind = identify-f
inverse.alpha = 1e-8
inverse.sigma = 0.25
output.directory = {out}
"""


def _write_cfg(tmp_path, body=SMALL_CFG, name="run.cfg", **extra):
    out = tmp_path / "out"
    text = body.format(out=out)
    for k, v in extra.items():
        text += f"{k.replace('_', '.', 1)} = {v}\n"
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path, out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate + make-data once; identify variants reuse the containers."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg, out = _write_cfg(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    assert cli.main(["make-data", "--config", str(cfg)]) == 0
    return cfg, out


def test_simulate_outputs(pipeline):
    _, out = pipeline
    assert (out / "trajectory.bin").exists()
    assert (out / "trajectory.bin.manifest").exists()
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["n_steps"] == 20
    assert report["mass_drift_max"] <= 1e-10
    assert report["energy_monotone"] is True
    assert "config_text" in report
    solver = report["solver"]
    assert (solver["factorizations"], solver["solves"], solver["bisections"]) == (21, 80, 0)
    assert solver["max_newton_iters"] >= 1
    assert 0.0 < solver["worst_residual"] <= 1e-12
    assert solver["min_mobility"] > 0.0


def test_simulate_report_is_byte_identical_on_rerun(tmp_path):
    cfg, out = _write_cfg(tmp_path)
    reports = []
    for _ in range(2):
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        reports.append((out / "simulate_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_make_data_outputs(pipeline):
    _, out = pipeline
    assert (out / "observation.bin").exists()
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,s,A_b,A_c,A,cond,in_R,in_Rtilde"
    assert len(diag) > 1
    report = json.loads((out / "make_data_report.json").read_text())
    assert report["n_times"] == 11
    assert report["provenance"] == "interpolation-only"


def test_identify_f_outputs_and_determinism(pipeline, tmp_path):
    cfg, out = pipeline
    assert cli.main(["identify", "--config", str(cfg)]) == 0
    report = json.loads((out / "identify_report.json").read_text())
    assert report["kind"] == "identify-f"
    assert report["alpha"] == 1e-8
    assert "error_fprime" in report
    first = (out / "solution_fprime.csv").read_bytes()
    knots = (out / "knots_fprime.csv").read_bytes()
    assert cli.main(["identify", "--config", str(cfg)]) == 0
    assert (out / "solution_fprime.csv").read_bytes() == first
    assert (out / "knots_fprime.csv").read_bytes() == knots


def test_identify_report_singular_values(pipeline):
    cfg, out = pipeline
    assert cli.main(["identify", "--config", str(cfg)]) == 0
    report = json.loads((out / "identify_report.json").read_text())
    assert "cg_iterations" not in report
    s = np.array(report["singular_values"])
    assert len(s) == NaturalSplineGrid(-1.0, 1.0, 0.25).n_knots
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    alpha = report["alpha"]
    assert report["effective_rank"] == pytest.approx(np.sum(s**2 / (s**2 + alpha)), rel=1e-12)
    assert 0.0 < report["effective_rank"] <= len(s)


def test_identify_rejects_non_finite_data(pipeline, tmp_path, capsys):
    from chident import io as chio

    cfg, out = pipeline
    data = chio.load_observation(out / "observation.bin")
    data.coef[2, 5] = np.nan
    chio.save_observation(data, tmp_path / "nan.bin")
    code = cli.main([
        "identify", "--config", str(cfg),
        "--observation", str(tmp_path / "nan.bin"),
        "--out", str(tmp_path / "nan_out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, solution", [
    ("identify-b", "solution_b.csv"),
    ("identify-joint", "solution_b.csv"),
])
def test_identify_other_kinds(pipeline, tmp_path, kind, solution):
    cfg, out = pipeline
    alt, _ = _write_cfg(tmp_path, name=f"{kind}.cfg")
    text = alt.read_text().replace("identify-f", kind)
    alt.write_text(text)
    code = cli.main([
        "identify", "--config", str(alt),
        "--observation", str(out / "observation.bin"),
        "--out", str(tmp_path / "alt_out"),
    ])
    assert code == 0
    assert (tmp_path / "alt_out" / solution).exists()
    if kind == "identify-joint":
        assert (tmp_path / "alt_out" / "solution_fprime.csv").exists()


def test_lcurve_subcommand(pipeline, tmp_path):
    cfg, out = pipeline
    alt, _ = _write_cfg(tmp_path, name="lc.cfg",
                        inverse_alpha_grid="1e-2:1e-7:11")
    code = cli.main([
        "lcurve", "--config", str(alt),
        "--observation", str(out / "observation.bin"),
        "--out", str(tmp_path / "lc_out"),
    ])
    assert code == 0
    lines = (tmp_path / "lc_out" / "lcurve.csv").read_text().splitlines()
    assert lines[0] == "alpha,residual_norm,solution_norm,curvature,flagged,corner"
    assert len(lines) == 12
    assert sum(line.endswith(",1") for line in lines[1:]) == 1  # one corner
    report = json.loads((tmp_path / "lc_out" / "lcurve_report.json").read_text())
    assert report["alpha_star"] > 0
    assert report["corner_index"] >= 0


def test_configuration_errors(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    bad, _ = _write_cfg(tmp_path, name="bad.cfg", forward_gamma="-1")
    assert cli.main(["simulate", "--config", str(bad)]) == 1
    cfg, _ = _write_cfg(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg), "--preset", "paper"]) == 1
    assert cli.main(["simulate", "--preset", "bogus"]) == 1
    # identify without data on disk
    assert cli.main(["identify", "--config", str(cfg)]) == 1


def test_numerical_failure_exit_code(tmp_path):
    # a mobility that changes sign on [-1, 1] breaks the first step
    cfg, _ = _write_cfg(tmp_path, name="neg.cfg",
                        forward_mobility="spline:-1.0,1.0")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


def test_singular_jacobian_exit_code(tmp_path, monkeypatch, capsys):
    from chident import forward

    def singular(ab, kl, ku, **kw):
        # what LAPACK gbtrf returns when it meets an exactly zero pivot
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1

    monkeypatch.setattr(forward, "dgbtrf", singular)
    cfg, _ = _write_cfg(tmp_path, name="singular.cfg")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "singular Newton Jacobian" in capsys.readouterr().err


def test_identify_clock_covers_range_masks(pipeline, monkeypatch, capsys):
    cfg, _ = pipeline
    clock = [0.0]
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    real = cli._range_masks

    def slow_range_masks(*args):
        clock[0] += 100.0
        return real(*args)

    monkeypatch.setattr(cli, "_range_masks", slow_range_masks)
    assert cli.main(["identify", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("[100.0s]")


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--preset", "paper", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["conservation", "scaling-invariance", "dual-norm",
                     "coarea-identity", "perturbation-scaling"]
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])
    text = capsys.readouterr().out
    assert "PASS  conservation" in text
    assert "5/5 checks passed" in text


def test_verify_negative_control(tmp_path, monkeypatch):
    """A deliberately broken sign in the level-set functionals must trip
    the identity check and surface as the dedicated exit code."""
    import dataclasses

    original = cli.coarea_coefficients

    def flipped(data, gamma, s, t, degeneracy_rel=0.05):
        sample = original(data, gamma, s, t, degeneracy_rel)
        return dataclasses.replace(sample, A_b=-sample.A_b)

    monkeypatch.setattr(cli, "coarea_coefficients", flipped)
    out = tmp_path / "vneg"
    assert cli.main(["verify", "--preset", "paper", "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    by_name = {c["name"]: c["passed"] for c in report["checks"]}
    assert by_name["coarea-identity"] is False
    assert by_name["conservation"] is True


def test_make_data_seed_and_noise(pipeline, tmp_path):
    cfg, out = pipeline
    noisy_cfg, _ = _write_cfg(tmp_path, name="noisy.cfg", data_delta="1e-3")
    for d in ("n1", "n2"):
        code = cli.main([
            "make-data", "--config", str(noisy_cfg),
            "--trajectory", str(out / "trajectory.bin"),
            "--out", str(tmp_path / d), "--seed", "42",
        ])
        assert code == 0
    b1 = (tmp_path / "n1" / "observation.bin").read_bytes()
    b2 = (tmp_path / "n2" / "observation.bin").read_bytes()
    assert b1 == b2  # same config + seed -> identical bytes
    report = json.loads((tmp_path / "n1" / "make_data_report.json").read_text())
    assert report["noise"]["delta"] == 1e-3
    assert report["noise"]["seed"] == 42
    code = cli.main([
        "make-data", "--config", str(noisy_cfg),
        "--trajectory", str(out / "trajectory.bin"),
        "--out", str(tmp_path / "n3"), "--seed", "43",
    ])
    assert code == 0
    assert (tmp_path / "n3" / "observation.bin").read_bytes() != b1
