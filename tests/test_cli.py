"""Batch front end: pipelines, exit codes, determinism, invariant suite."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chident import checks, cli
from chident import io as chio
from chident.config import ConfigError, build_config, config_from_file, parse_config
from chident.data import DataError
from chident.model import NaturalSplineGrid

from conftest import WORK_PINS

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


# the one stderr line of make-data when the noise of data.delta takes a
# snapshot out of the phase interval
NOISE_CAP_FAILURE = "numerical failure: perturbed snapshots leave the phase interval [-1, 1]\n"


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
    assert (solver["factorizations"], solver["solves"], solver["bisections"]) == WORK_PINS["short"]
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


def test_retired_key_in_old_echo_is_named_on_stderr(pipeline, tmp_path):
    """An echo written before output.formats was retired still runs, and
    the command line says that the key is ignored."""
    cfg, _ = pipeline
    old = tmp_path / "old_echo.cfg"
    old.write_text(cfg.read_text() + "output.formats = csv,json\n", encoding="utf-8")
    run = _run_program("identify", "--config", str(old))
    assert run.returncode == 0, run.stderr
    assert "output.formats" in run.stderr


def _run_main(capsys, *argv):
    """``cli.main(argv)`` in this process, with its exit code and captured
    output; an exception that escapes ``main`` fails the calling test."""
    capsys.readouterr()
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


def _run_program(*argv):
    """``python -m chident *argv`` in a child process on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "chident", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_malformed_containers_exit_1_without_traceback(pipeline, tmp_path, capsys):
    """A malformed container is one error line and exit 1."""
    _, out = pipeline
    stub = tmp_path / "stub.bin"
    stub.write_bytes(b"CHID")
    cut = tmp_path / "cut.bin"
    # 32-byte fixed header, then 4 scalars: byte 40 is inside the scalars
    cut.write_bytes((out / "observation.bin").read_bytes()[:40])
    for argv in (["make-data", "--trajectory", str(stub)],
                 ["identify", "--observation", str(cut)]):
        run = _run_main(capsys, *argv, "--out", str(tmp_path / "out"))
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr


def test_unusable_paths_exit_1_without_traceback(tmp_path, capsys):
    """A path that cannot be read or written is one error line and exit 1."""
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n", encoding="utf-8")
    for argv in (["make-data", "--trajectory", str(tmp_path), "--out", str(tmp_path / "out")],
                 ["make-data", "--out", str(a_file)]):
        run = _run_main(capsys, *argv)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ")
        assert "Traceback" not in run.stderr


def test_negative_noise_seed_exits_1_without_traceback(tmp_path, capsys):
    """A negative seed, from the file or from --seed, is a configuration error."""
    cfg, out = _write_cfg(tmp_path, data_seed="-3", data_delta="0.001")
    good, _ = _write_cfg(tmp_path, name="good.cfg")
    for argv in (["make-data", "--config", str(cfg)],
                 ["verify", "--config", str(good), "--seed", "-20"]):
        run = _run_main(capsys, *argv)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: data.seed")
        assert "Traceback" not in run.stderr
    assert not out.exists()


def test_non_finite_spline_values_exit_1_without_traceback(tmp_path, capsys):
    """A nan or inf spline value is one error line naming the key, not a
    numerical failure of the first Newton step."""
    for key, spec in (("forward.mobility", "spline:nan,1,1"),
                      ("forward.potential", "spline:1,inf,1")):
        cfg, out = _write_cfg(tmp_path, name="nonfinite.cfg", **{key.replace(".", "_"): spec})
        run = _run_main(capsys, "simulate", "--config", str(cfg))
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith(f"error: {key}: ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        assert not out.exists()


@pytest.mark.parametrize("sigma", ["5e-324", "1e-300", "1e-4", "1e-9"])
def test_tiny_sigma_exits_1_without_traceback(pipeline, tmp_path, capsys, sigma):
    """A knot spacing whose span count overflows a float (5e-324) or an
    index (1e-300), or that gives more than 2001 knots (1e-4, 1e-9), is
    one error line naming the key, at load."""
    _, out = pipeline
    body = SMALL_CFG.replace("inverse.sigma = 0.25", f"inverse.sigma = {sigma}")
    cfg, _ = _write_cfg(tmp_path, body, name="tiny_sigma.cfg")
    run = _run_main(capsys, "identify", "--config", str(cfg),
                    "--observation", str(out / "observation.bin"))
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: inverse.sigma: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_config_file_not_utf8_exits_1_without_traceback(tmp_path):
    """Run as a program: the interpreter turns the error that ``main``
    reports into exit 1 and one ``error:`` line, with no traceback.  The
    other error paths run ``main`` in this process."""
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"forward.gamma = 0.003\n\xff\xfe\x00\x81\n")
    run = _run_program("simulate", "--config", str(binary))
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith(f"error: {binary}: not a UTF-8 text file")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_bad_data_times_exit_1_without_traceback(pipeline, tmp_path, capsys):
    """Times off the observation grid, or given twice, are configuration errors."""
    _, out = pipeline
    body = SMALL_CFG.replace("data.window = 0:4e-4\n", "")
    for times, message in (
        ("0.00003,0.00008", "error: data.times: t = 3e-05 is not on the observation time grid"),
        ("0.00004,0.00004", "error: data.times: two times select the same observation"),
    ):
        cfg, _ = _write_cfg(tmp_path, body, data_times=times)
        run = _run_main(capsys, "identify", "--config", str(cfg),
                        "--observation", str(out / "observation.bin"))
        assert run.returncode == 1, run.stderr
        assert run.stderr == message + "\n"


def test_times_on_one_observation_exit_1(pipeline, tmp_path, capsys):
    # distinct in the file, but within the grid's tolerance of one time
    _, out = pipeline
    body = SMALL_CFG.replace("data.window = 0:4e-4\n", "")
    cfg, _ = _write_cfg(tmp_path, body, data_times="0.00004,0.00004000000000001")
    argv = ["identify", "--config", str(cfg), "--observation", str(out / "observation.bin")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: data.times: two times select the same observation\n"
    )


def test_identify_report_singular_values(pipeline):
    cfg, out = pipeline
    assert cli.main(["identify", "--config", str(cfg)]) == 0
    report = json.loads((out / "identify_report.json").read_text())
    assert "cg_iterations" not in report
    s = np.array(report["singular_values"])
    assert len(s) == NaturalSplineGrid(0.25).n_knots
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    alpha = report["alpha"]
    assert report["effective_rank"] == pytest.approx(np.sum(s**2 / (s**2 + alpha)), rel=1e-12)
    assert 0.0 < report["effective_rank"] <= len(s)
    assert 0.0 < report["rho0"] <= report["residual_norm"]


def test_rejected_qr_argument_exits_2(pipeline, monkeypatch, capsys):
    from chident import inverse

    def bad_argument(nb, a, overwrite_a=0):
        return a, np.zeros((nb, min(a.shape))), -1

    monkeypatch.setattr(inverse, "dgeqrt", bad_argument)
    cfg, _ = pipeline
    assert cli.main(["identify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "dgeqrt rejected argument 1" in err and "Traceback" not in err


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


def test_paper_lcurve_corner_sits_next_to_the_grid_end(reference_run, tmp_path):
    """On the clean paper observation the curvature still rises toward the
    small-alpha end of the default grid, so the corner is its first
    interior point and the report says so."""
    chio.save_trajectory(reference_run[0], tmp_path / "trajectory.bin")
    for command in ("make-data", "lcurve"):
        assert cli.main([command, "--preset", "paper", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lcurve_report.json").read_text())
    assert report["corner_index"] == 1
    assert report["corner_at_grid_end"] is True


def test_configuration_errors(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    bad, _ = _write_cfg(tmp_path, name="bad.cfg", forward_gamma="-1")
    assert cli.main(["simulate", "--config", str(bad)]) == 1
    cfg, _ = _write_cfg(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg), "--preset", "paper"]) == 1
    assert cli.main(["simulate", "--preset", "bogus"]) == 1
    # identify without data on disk
    assert cli.main(["identify", "--config", str(cfg)]) == 1


def test_data_mesh_below_four_cells_is_a_configuration_error(tmp_path, capsys):
    # 8 forward cells at factor 4 leave a 2-cell data mesh
    body = SMALL_CFG.replace("n_cells = 64", "n_cells = 8").replace("factor = 2", "factor = 4")
    cfg, out = _write_cfg(tmp_path, body, name="coarse.cfg")
    assert cli.main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "data.factor: factor 4 leaves 8 / 4 = 2 data cells, need >= 4" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("t_end, tau", [
    ("0.001000005", "1e-5"),   # 5e-9 off a multiple, above 1e-8 max(tau, t_end)
    ("1e-12", "1e-3"),         # zero steps
])
def test_t_end_off_the_step_grid_exits_1_at_load(tmp_path, capsys, t_end, tau):
    """The step-count rule is the forward solver's own, so a t_end that
    ``simulate`` rejects is rejected when the configuration is loaded."""
    body = "forward.tau = {tau}\nforward.t_end = {t_end}\ndata.window = 0:{t_end}\n" \
        "output.directory = {{out}}\n"
    cfg, out = _write_cfg(tmp_path, body.format(tau=tau, t_end=t_end), name="drift.cfg")
    run = _run_main(capsys, "simulate", "--config", str(cfg))
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: forward.t_end: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert not out.exists()


def _chident_exception_types():
    """Every Exception subclass that a chident module defines."""
    import importlib
    import inspect
    import pkgutil

    import chident

    for info in pkgutil.iter_modules(chident.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"chident.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == module.__name__:
                yield cls


@pytest.mark.parametrize("exc_type", sorted(_chident_exception_types(), key=lambda c: c.__name__))
def test_every_chident_error_exits_1_or_2(monkeypatch, capsys, tmp_path, exc_type):
    def fail(cfg, args, out):
        raise exc_type("injected")

    help_text, _, path_flag = cli.COMMANDS["simulate"]
    monkeypatch.setitem(cli.COMMANDS, "simulate", (help_text, fail, path_flag))
    run = _run_main(capsys, "simulate", "--out", str(tmp_path))
    assert run.returncode in (1, 2)
    assert run.stderr.endswith("injected\n") and "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [
    [],                                 # no command
    ["simulat"],                        # a misspelt command
    ["simulate", "--bogus"],            # an unknown flag
    ["simulate", "--seed", "abc"],      # a flag value of the wrong type
])
def test_command_line_usage_errors_exit_1(capsys, argv):
    """A malformed command line is one error line and exit 1, like a
    malformed configuration; exit 2 stays a numerical failure."""
    run = _run_main(capsys, *argv)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert run.stdout == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["identify", "--help"])
    assert stop.value.code == 0
    assert "--observation" in capsys.readouterr().out


# each command and the input path flag it takes beside the common four
PATH_FLAGS = [
    ("simulate", None),
    ("make-data", "--trajectory"),
    ("identify", "--observation"),
    ("lcurve", "--observation"),
    ("verify", None),
]


@pytest.mark.parametrize("command, path_flag", PATH_FLAGS)
def test_each_subcommand_takes_the_common_flags_and_only_its_path_flag(command, path_flag):
    parser = cli.build_parser()
    args = parser.parse_args([command, "--config", "c", "--preset", "p",
                              "--out", "o", "--seed", "7"])
    assert (args.command, args.config, args.preset, args.out, args.seed) == (
        command, "c", "p", "o", 7)
    for flag in ("--trajectory", "--observation"):
        if flag == path_flag:
            assert getattr(parser.parse_args([command, flag, "x"]), flag[2:]) == "x"
        else:
            with pytest.raises(ConfigError, match=f"unrecognized arguments: {flag}"):
                parser.parse_args([command, flag, "x"])


@pytest.mark.parametrize("command, path_flag", PATH_FLAGS)
def test_every_command_writes_its_report_and_one_summary_line(
        pipeline, tmp_path, capsys, command, path_flag):
    """The report echoes the loaded configuration, and the echo rebuilds
    it; stdout ends in one summary line with the wall time."""
    _, inputs = pipeline
    cfg, out = _write_cfg(tmp_path)
    argv = [command, "--config", str(cfg)]
    if path_flag:
        argv += [path_flag, str(inputs / f"{path_flag[2:]}.bin")]
    run = _run_main(capsys, *argv)
    # the 20-step run has too few level samples for the co-area check
    assert run.returncode == (3 if command == "verify" else 0), run.stderr
    report = json.loads((out / f"{command.replace('-', '_')}_report.json").read_text())
    loaded = config_from_file(cfg)
    assert report["config"] == json.loads(json.dumps(loaded.as_dict()))
    assert build_config(parse_config(report["config_text"])).as_dict() == loaded.as_dict()
    timed = [line for line in run.stdout.splitlines() if re.search(r"  \[\d+\.\ds\]$", line)]
    assert len(timed) == 1 and run.stdout.splitlines()[-1] == timed[0]
    assert timed[0].startswith(command)


def test_numerical_failure_exit_code(tmp_path):
    # a mobility that changes sign on [-1, 1] breaks the first step
    cfg, _ = _write_cfg(tmp_path, name="neg.cfg",
                        forward_mobility="spline:-1.0,0.0,1.0")
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

    from chident import data as chdata

    original = chdata.coarea_coefficients

    def flipped(data, gamma, s, t):
        sample = original(data, gamma, s, t)
        return dataclasses.replace(sample, A_b=-sample.A_b)

    monkeypatch.setattr(chdata, "coarea_coefficients", flipped)
    out = tmp_path / "vneg"
    assert cli.main(["verify", "--preset", "paper", "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    by_name = {c["name"]: c["passed"] for c in report["checks"]}
    assert by_name["coarea-identity"] is False
    assert by_name["conservation"] is True


def test_verify_coarea_count_is_the_report_residual(params, capsys):
    """The co-area line counts the residuals of the observability report
    at the first 15 data times of the suite's 100-step run."""
    from chident.config import paper_preset
    from chident.data import build_observability_report, restrict_to_data_grid
    from chident.forward import simulate
    from chident.meshbasis import build_mesh, interpolate, quadratic_fe

    cfg = paper_preset()
    results = checks.run_invariant_suite(cfg)
    detail = {r.name: r.detail for r in results}["coarea-identity"]
    assert f"coarea-identity: {detail}\n" in capsys.readouterr().out
    fw = cfg.forward
    phi0 = interpolate(quadratic_fe(build_mesh(fw.n_cells)), cfg.initial_fn())
    traj = simulate(phi0, params, t_end=100 * fw.tau, tau=fw.tau)
    data = restrict_to_data_grid(traj, cfg.data.factor)
    report = build_observability_report(
        data, fw.gamma, params.F, data.times[1:16], cfg.inverse.threshold
    )
    rel = report.residual(params.b, params.c)
    assert len(report.rows) == 105
    assert detail == f"{np.sum(rel <= 5e-2)}/{len(rel)} samples below 5e-2 (worst {rel.max():.3f})"


def test_verify_with_a_data_factor_that_does_not_divide_100(tmp_path, capsys):
    # the suite runs 99 steps, which factor 3 divides, not 100
    body = """
forward.n_cells = 300
forward.tau = 2e-5
forward.t_end = 0.0024
data.factor = 3
data.window = 0:0.0024
output.directory = {out}
"""
    cfg, _ = _write_cfg(tmp_path, body, name="factor3.cfg")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert "5/5 checks passed" in capsys.readouterr().out


def test_verify_restricts_once(tmp_path, monkeypatch):
    calls = []
    original = checks.restrict_to_data_grid

    def counted(traj, factor):
        calls.append(factor)
        return original(traj, factor)

    monkeypatch.setattr(checks, "restrict_to_data_grid", counted)
    assert cli.main(["verify", "--preset", "paper", "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 1


def test_verify_makes_two_forward_runs_and_one_noise_draw_per_level(tmp_path, monkeypatch):
    """The shared run and the scaling check's rescaled rerun are the only
    forward runs, and the three kinds of the perturbation check share one
    noise draw per level."""
    calls = {"simulate": 0, "inject_noise": 0}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(checks, name, counter(name, getattr(checks, name)))
    assert cli.main(["verify", "--preset", "paper", "--out", str(tmp_path / "v")]) == 0
    assert calls == {"simulate": 2, "inject_noise": 3}


def test_verify_records_a_failed_restriction(tmp_path, monkeypatch, capsys):
    """Both data-grid checks fail, with the reason, and the suite goes on."""
    def refuse(traj, factor):
        raise DataError("restriction refused")

    monkeypatch.setattr("chident.checks.restrict_to_data_grid", refuse)
    out = tmp_path / "v"
    assert cli.main(["verify", "--preset", "paper", "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    checks = {c["name"]: (c["passed"], c["detail"]) for c in report["checks"]}
    assert checks["conservation"][0] is True
    for name in ("coarea-identity", "perturbation-scaling"):
        assert checks[name] == (False, "failure: restriction refused")
    assert "Traceback" not in capsys.readouterr().err


def test_verify_records_every_check_after_a_failed_forward_run(tmp_path, monkeypatch, capsys):
    """A mobility that changes sign stops the forward run: every check
    that needs a solve fails with that reason, the run is tried once, and
    all five checks are still written."""
    calls = []
    original = checks.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "simulate", counted)
    cfg, out = _write_cfg(tmp_path, name="neg.cfg", forward_mobility="spline:-1.0,0.0,1.0")
    assert cli.main(["verify", "--config", str(cfg)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == [
        "conservation", "scaling-invariance", "dual-norm",
        "coarea-identity", "perturbation-scaling"]
    for c in report["checks"]:
        if c["name"] == "dual-norm":
            assert c["passed"] is True
        else:
            assert c["passed"] is False
            assert c["detail"].startswith("failure: mobility reached"), c
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert "verify: 1/5 checks passed" in captured.out
    assert "Traceback" not in captured.err


# a one-time run leaves the perturbation check one data time, on which the
# joint assembly warns that it is rank deficient
@pytest.mark.filterwarnings("ignore:joint identification from fewer than two times")
@settings(max_examples=30)
@given(
    n_cells=st.integers(16, 64),
    factor=st.integers(1, 3),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    mobility=st.lists(st.floats(-0.5, 3.0), min_size=3, max_size=8),
)
def test_verify_exits_with_a_documented_code(tmp_path_factory, n_cells, factor, steps, seed,
                                             mobility):
    """Small random configurations, spline mobilities of either sign
    included: verify exits 0, 1, 2 or 3 and never raises."""
    t_end = steps * factor * 2e-5
    body = (f"forward.n_cells = {n_cells}\nforward.tau = 2e-5\nforward.t_end = {t_end!r}\n"
            f"forward.mobility = spline:{','.join(map(repr, mobility))}\n"
            f"data.factor = {factor}\ndata.window = 0:{t_end!r}\noutput.directory = {{out}}\n")
    cfg, _ = _write_cfg(tmp_path_factory.mktemp("verify"), body)
    assert cli.main(["verify", "--config", str(cfg), "--seed", str(seed)]) in (0, 1, 2, 3)


def test_make_data_factor_off_the_trajectory_exits_1_without_traceback(tmp_path, capsys):
    """A trajectory on disk that data.factor does not divide is an input
    mismatch: one error line naming the key, exit 1."""
    # 16 cells and 10 steps on disk; 12 cells and 12 steps in the configuration
    body = "forward.n_cells = {n}\nforward.tau = 2e-5\nforward.t_end = {t}\n" \
        "data.factor = {f}\ndata.window = 0:{t}\noutput.directory = {{out}}\n"
    cfg, out = _write_cfg(tmp_path, body.format(n=16, t="2e-4", f=2))
    cfg3, _ = _write_cfg(tmp_path, body.format(n=12, t="2.4e-4", f=3), name="factor3.cfg")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    run = _run_main(capsys, "make-data", "--config", str(cfg3), "--trajectory",
                    str(out / "trajectory.bin"), "--out", str(tmp_path / "d3"))
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: data.factor: factor 3 does not divide")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


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


def test_make_data_noise_past_the_cap_exits_2_without_traceback(pipeline, tmp_path, capsys):
    """A data.delta whose noise leaves the phase interval is a numerical
    failure of the run: exit 2 and one line on stderr."""
    _, out = pipeline
    cfg, _ = _write_cfg(tmp_path, name="cap.cfg", data_delta="1e6")
    run = _run_main(capsys, "make-data", "--config", str(cfg), "--trajectory",
                    str(out / "trajectory.bin"), "--out", str(tmp_path / "cap"))
    assert run.returncode == 2
    assert run.stderr == NOISE_CAP_FAILURE


@pytest.fixture(scope="module")
def small_trajectories(tmp_path_factory):
    """The small configuration's trajectory on 16, 24 and 32 cells."""
    paths = {}
    for n in (16, 24, 32):
        cfg, out = _write_cfg(tmp_path_factory.mktemp(f"cells{n}"),
                              SMALL_CFG.replace("n_cells = 64", f"n_cells = {n}"))
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        paths[n] = out / "trajectory.bin"
    return paths


@settings(max_examples=30)
@given(
    n_cells=st.sampled_from((16, 24, 32)),
    delta=st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    seed=st.integers(0, 2**31 - 1),
)
def test_make_data_noise_levels_exit_0_or_2(small_trajectories, tmp_path_factory, n_cells,
                                            delta, seed):
    """Noise levels from 0 to far past the phase-interval cap (a few
    hundred to about 1e4 on these runs, by the seed): make-data succeeds,
    or exits 2 with the one failure line, and never raises."""
    cfg, _ = _write_cfg(tmp_path_factory.mktemp("noise"),
                        SMALL_CFG.replace("n_cells = 64", f"n_cells = {n_cells}"),
                        data_delta=repr(delta), data_seed=seed)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["make-data", "--config", str(cfg),
                         "--trajectory", str(small_trajectories[n_cells])])
    assert (code, err.getvalue()) in ((0, ""), (2, NOISE_CAP_FAILURE))


_SPLINE = st.lists(st.floats(0.05, 3.0), min_size=3, max_size=8)


# a step count equal to the data factor leaves one data time, on which the
# joint assembly warns that it is rank deficient
@pytest.mark.filterwarnings("ignore:joint identification from fewer than two times")
@settings(max_examples=20)
@given(
    half_cells=st.integers(8, 16),
    steps=st.integers(2, 8),
    factor=st.integers(1, 3),
    kind=st.sampled_from(("identify-f", "identify-b", "identify-joint")),
    potential=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=8),
    # a positive list three times in four, so that most examples reach identify
    mobility=st.one_of(_SPLINE, _SPLINE, _SPLINE,
                       st.lists(st.floats(-0.5, 3.0), min_size=3, max_size=8)),
    delta=st.one_of(st.none(), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)),
    seed=st.integers(0, 2**31 - 1),
    sigma=st.sampled_from((1.0, 0.5, 0.25, 0.2, 0.1)),
    alpha=st.one_of(st.just("auto"), st.floats(-12.0, -2.0).map(lambda e: repr(10.0**e))),
)
def test_command_chain_exits_with_a_documented_code(tmp_path_factory, half_cells, steps, factor,
                                                    kind, potential, mobility, delta, seed,
                                                    sigma, alpha):
    """simulate, make-data, identify and lcurve in a row on small random
    configurations: each command exits 0, 1, 2 or 3 with no traceback,
    and the chain stops at the first that fails.  A data factor that does
    not divide the cell and the step count stops the chain at its first
    command with exit code 1."""
    t_end = steps * 2e-5
    body = (f"forward.n_cells = {2 * half_cells}\nforward.tau = 2e-5\n"
            f"forward.t_end = {t_end!r}\n"
            f"forward.potential = spline:{','.join(map(repr, potential))}\n"
            f"forward.mobility = spline:{','.join(map(repr, mobility))}\n"
            f"data.factor = {factor}\ndata.window = 0:{t_end!r}\ndata.seed = {seed}\n"
            f"inverse.kind = {kind}\ninverse.alpha = {alpha}\ninverse.sigma = {sigma!r}\n"
            "output.directory = {out}\n")
    if delta is not None:
        body += f"data.delta = {delta!r}\n"
    cfg, _ = _write_cfg(tmp_path_factory.mktemp("chain"), body)
    for command in ("simulate", "make-data", "identify", "lcurve"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg)])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err.getvalue(), (command, err.getvalue())
        if (2 * half_cells) % factor or steps % factor:
            assert (command, code) == ("simulate", 1)
        if code:
            break
