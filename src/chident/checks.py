"""The five structural checks of the discrete model, and the invariant suite.

Each check takes its inputs and returns a ``CheckResult``: its name, the
pass flag, a one-line detail and the measured values.  The bounds are the
module constants below and are written nowhere else.  The probes behind
three checks live here too: ``dual_norm_at``, ``scaling_deviations`` (the
rescaled rerun) and ``perturbation_slopes`` (the noisy reassemblies) take
as arguments the values their check fixes.  ``run_invariant_suite`` runs
the five on a short reference problem built from a configuration (the
``verify`` command); acceptance criteria 01-06 run them on the test
suite's reference fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import LAYER_ERRORS, RunConfig
from .data import build_observability_report, inject_noise, restrict_to_data_grid
from .forward import simulate
from .inverse import PROBLEM_KINDS, assemble_problem, true_coefficients
from .meshbasis import (
    assemble_grams, build_mesh, cubic_spline_basis, dual_norm_Hm1, interpolate, quadratic_fe,
)
from .model import NaturalSplineGrid, energy, mass, scale_params

# largest drift of the mass from its initial value; largest energy rise in one step
MASS_DRIFT_MAX = 1e-10
ENERGY_RISE_MAX = 1e-10
# the (d, c) rescaling, and the largest relative L2 deviations of phi and mu
# of the rescaled run from the transformed reference
SCALING_D, SCALING_C = 2.0, 1.0
PHI_DEV_MAX = 1e-8
MU_DEV_MAX = 1e-6
# cells of the cubic-spline mesh, and the largest error of the dual norm
DUAL_NORM_CELLS = 400
DUAL_NORM_ERR_MAX = 1e-4
# a co-area sample passes at a relative residual up to COAREA_RESIDUAL_MAX,
# and the check passes with at least COAREA_MIN_SAMPLES passing samples
COAREA_RESIDUAL_MAX = 5e-2
COAREA_MIN_SAMPLES = 20
# the noise levels probed, and the largest distance of a log-log slope from one
PERTURBATION_DELTAS = (1e-2, 1e-3, 1e-4)
SLOPE_TOL = 0.2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    values: dict = field(default_factory=dict)


def conservation(traj, params) -> CheckResult:
    """Mass drift from the initial state and largest energy rise in one step.

    The values hold the mass and the energy of every recorded state, both
    measurements and the verdict of each half; a run of one state rises
    by 0.
    """
    fields = [traj.phi_field(k) for k in range(traj.n_states)]
    masses = np.array([mass(phi) for phi in fields])
    energies = np.array([energy(phi, params) for phi in fields])
    drift = float(np.max(np.abs(masses - masses[0])))
    rise = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    mass_ok, energy_ok = drift <= MASS_DRIFT_MAX, rise <= ENERGY_RISE_MAX
    return CheckResult(
        "conservation", mass_ok and energy_ok,
        f"mass drift {drift:.2e}, max energy increase {rise:.2e}",
        {"masses": masses, "energies": energies, "mass_drift": drift, "energy_rise": rise,
         "mass_conserved": mass_ok, "energy_monotone": energy_ok},
    )


def scaling_deviations(base, params, d, c) -> tuple[float, float]:
    """Run the (d, c)-rescaled model from the first state of ``base`` on its time grid.

    The phase trajectories should agree and the rescaled chemical
    potential should equal mu / d + c; returns the largest L2 deviations
    of phi and of mu over the time grid, relative to the reference's norms.
    """
    scaled = simulate(base.phi_field(0), scale_params(params, d, c), base.times[-1], base.tau)
    grams = assemble_grams(base.basis)

    def l2(v):
        return float(np.sqrt(max(v @ grams.mass(v), 0.0)))

    rel_phi = rel_mu = 0.0
    for k in range(base.n_states):
        dphi = l2(scaled.phi[k] - base.phi[k])
        mu_ref = base.mu[k] / d + c
        dmu = l2(scaled.mu[k] - mu_ref)
        rel_phi = max(rel_phi, dphi / max(l2(base.phi[k]), 1e-300))
        rel_mu = max(rel_mu, dmu / max(l2(mu_ref), 1e-300))
    return rel_phi, rel_mu


def scaling_invariance(base, params) -> CheckResult:
    """Deviations of the (``SCALING_D``, ``SCALING_C``)-rescaled run from ``base``."""
    phi_dev, mu_dev = scaling_deviations(base, params, SCALING_D, SCALING_C)
    return CheckResult(
        "scaling-invariance", bool(phi_dev <= PHI_DEV_MAX and mu_dev <= MU_DEV_MAX),
        f"phi dev {phi_dev:.2e}, mu dev {mu_dev:.2e}", {"phi_dev": phi_dev, "mu_dev": mu_dev},
    )


def dual_norm_at(n_cells: int) -> tuple[float, float]:
    """H^-1 norm of the L2 functional of sin(2 pi x) on ``n_cells`` cubic
    spline cells, and its closed form 1/sqrt(2) / sqrt(1 + 4 pi^2) under
    the zero-mean H1 pairing."""
    basis = cubic_spline_basis(build_mesh(n_cells))
    grams = assemble_grams(basis)
    f1 = interpolate(basis, lambda x: np.sin(2 * np.pi * x))
    target = (1.0 / np.sqrt(2.0)) / np.sqrt(1.0 + 4.0 * np.pi**2)
    return dual_norm_Hm1(grams.mass(f1.coef), grams), target


def dual_norm() -> CheckResult:
    """The closed-form dual norm on ``DUAL_NORM_CELLS`` cells."""
    got, target = dual_norm_at(DUAL_NORM_CELLS)
    err = abs(got - target)
    return CheckResult("dual-norm", bool(err <= DUAL_NORM_ERR_MAX),
                       f"|{got:.6f} - {target:.6f}| = {err:.2e}", {"error": err})


def coarea_identity(residuals) -> CheckResult:
    """How many co-area residuals (``data.coarea_residual``) pass; the
    values hold the count, the total, the worst and the passing mask."""
    rel = np.asarray(residuals, dtype=float)
    passing = rel <= COAREA_RESIDUAL_MAX
    good, worst = int(np.sum(passing)), float(rel.max(initial=0.0))
    bound = f"{COAREA_RESIDUAL_MAX:.0e}".replace("e-0", "e-")  # 5e-2, not 5e-02
    return CheckResult(
        "coarea-identity", good >= COAREA_MIN_SAMPLES,
        f"{good}/{len(rel)} samples below {bound} (worst {worst:.3f})",
        {"good": good, "total": len(rel), "worst": worst, "passing": passing},
    )


def perturbation_slopes(kind, data, noisy, params, times, grid) -> tuple[float, float]:
    """Log-log slopes of the assembly perturbations against the noise level.

    The problem ``kind`` of the model ``params`` is reassembled on each
    container of ``noisy`` (a noise realization of the clean ``data`` at its
    own ``delta``), and ||(T^delta - T) x|| and ||y^delta - y||, x the
    model's ``true_coefficients``, are evaluated in the block-weighted dual
    norm; returns the fitted slopes of the two (one by the stability
    bounds), nan where fewer than two deviations are positive.
    """

    def build(d):
        return assemble_problem(kind, d, params, times, grid)

    deltas = np.array([d.delta for d in noisy], dtype=float)
    clean = build(data)
    x_truth = true_coefficients(kind, params, grid)
    op_dev, y_dev = np.empty((2, len(noisy)))
    for i, pert in enumerate(map(build, noisy)):
        op_dev[i] = clean.weighted_misfit((pert.T - clean.T) @ x_truth)
        y_dev[i] = clean.weighted_misfit(pert.y - clean.y)

    def slope(dev):
        pos = (dev > 0.0) & (deltas > 0.0)
        if np.count_nonzero(pos) < 2:
            return np.nan
        return float(np.polyfit(np.log(deltas[pos]), np.log(dev[pos]), 1)[0])

    return slope(op_dev), slope(y_dev)


def perturbation_scaling(data, params, grid, times, seed) -> CheckResult:
    """Log-log slopes of the operator and of the data perturbation of the
    three assemblies, one noise draw per ``PERTURBATION_DELTAS`` level; each should be one."""
    noisy = [inject_noise(data, delta, seed=seed)[0] for delta in PERTURBATION_DELTAS]
    slopes = {kind: perturbation_slopes(kind, data, noisy, params, times, grid)
              for kind in PROBLEM_KINDS}
    return CheckResult(
        "perturbation-scaling",
        all(abs(s - 1.0) <= SLOPE_TOL for pair in slopes.values() for s in pair),
        ", ".join(f"{k} slopes {s:.3f}/{sd:.3f}" for k, (s, sd) in slopes.items()),
        {"slopes": slopes},
    )


def run_invariant_suite(cfg: RunConfig) -> list[CheckResult]:
    """Run the five checks on a short reference problem.

    Prints a PASS/FAIL line per check and returns one result per check,
    in a fixed order; the CLI maps any failure to exit code 3.  The
    ~100-step forward run and its restriction to the data grid are built
    once, first.  A check that raises, or whose shared input failed, fails
    with that reason, and the suite goes on.
    """
    params = cfg.model_params()
    tau = cfg.forward.tau
    # about 100 steps, in whole data steps: the restriction needs
    # data.factor to divide the step count
    t_end = min(cfg.forward.t_end, max(100 // cfg.data.factor, 1) * cfg.data.factor * tau)
    phi0 = interpolate(quadratic_fe(build_mesh(cfg.forward.n_cells)), cfg.initial_fn())

    def attempt(build):
        """The value of build(), or the layer failure that stopped it."""
        try:
            return build()
        except LAYER_ERRORS as exc:
            return exc

    def held(value):
        if isinstance(value, Exception):
            raise value
        return value

    run = attempt(lambda: simulate(phi0, params, t_end=t_end, tau=tau))
    data = attempt(lambda: restrict_to_data_grid(held(run), cfg.data.factor))

    def coarea_inputs():
        # the observability report's rows at the first 15 data times
        report = build_observability_report(
            held(data), params.gamma, params.F, data.times[1:16], cfg.inverse.threshold)
        return (report.residual(params.b, params.c),)

    def perturbation_inputs():
        return (held(data), params, NaturalSplineGrid(cfg.inverse.sigma),
                data.times[1:min(6, data.n_times)], cfg.data.seed + 17)

    def scaling_inputs():
        # the first 20 steps of the shared run
        base = held(run)
        return replace(base, times=base.times[:21], phi=base.phi[:21], mu=base.mu[:21]), params

    results = []
    for check, inputs in ((conservation, lambda: (held(run), params)),
                          (scaling_invariance, scaling_inputs),
                          (dual_norm, tuple),
                          (coarea_identity, coarea_inputs),
                          (perturbation_scaling, perturbation_inputs)):
        try:
            result = check(*inputs())
        except LAYER_ERRORS as exc:
            result = CheckResult(check.__name__.replace("_", "-"), False, f"failure: {exc}")
        results.append(result)
        print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    return results
