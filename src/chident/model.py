"""Phase-field model data: parameter functions, energy, mass, rescalings.

A model instance bundles the interface coefficient gamma, a mobility b,
and a double-well potential F, each a scalar function of the phase value.
Parameter functions come in two flavors: closed-form callables with hand
coded derivatives, and natural cubic splines on a uniform knot grid
(the representation the inversion recovers).  The smoothness gram of the
spline grid provides the Tikhonov penalty.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .meshbasis import PeriodicField, gauss_table


# Gauss points per cell of the phase-field integrals: mass, energy and the
# stepper's residual and Jacobian
N_QUAD = 8
# Gauss points per knot span of the parameter gram: exact for its
# piecewise-cubic products
PARAM_GRAM_QUAD = 4
# points sampled evenly over the phase interval by ``mobility_floor``
MOBILITY_SAMPLES = 2001
# every knot grid spans the phase interval, and observed snapshots stay in it
PHASE_INTERVAL = (-1.0, 1.0)


class ParameterError(ValueError):
    """Invalid parameter-function construction or evaluation."""


class ModelError(ValueError):
    """Invalid model data (non-positive gamma, mobility sign, ...)."""


class ClosedFormParameter:
    """Scalar parameter function with explicit derivatives up to order 2."""

    def __init__(self, fn, d1=None, d2=None, name="closed-form"):
        self._fns = (fn, d1, d2)
        self.name = name

    def __call__(self, s, order: int = 0):
        if order < 0 or order > 2:
            raise ParameterError(f"derivative order {order} not available")
        fn = self._fns[order]
        if fn is None:
            raise ParameterError(
                f"{self.name}: derivative of order {order} was not supplied"
            )
        s = np.asarray(s, dtype=float)
        out = np.asarray(fn(s), dtype=float)
        return float(out) if out.ndim == 0 else out


class NaturalSplineGrid:
    """Uniform knot grid on the phase interval for natural cubic splines.

    The grid spans ``PHASE_INTERVAL``, so its spacing alone sets it, and
    building one only checks the spacing: it must divide the interval
    into at least two spans and give at most ``max_knots`` knots.  A
    function in this space is stored by its knot values; the knots and
    the dense map to second derivatives at the knots (zero at both ends)
    are built on first read.  Outside the knot interval the boundary
    cubic is extended.
    """

    lo, hi = PHASE_INTERVAL
    # spacing 1e-3: the dense curvature map takes 32 MB, an assembly's
    # [D; I] stack 64 MB
    max_knots = 2001

    def __init__(self, spacing: float):
        if not spacing > 0.0:
            raise ParameterError(f"spacing must be positive, got {spacing}")
        n_span = (self.hi - self.lo) / spacing
        # also keeps the span count finite for round(); the half-knot
        # margin passes a count that rounds to max_knots
        if not n_span + 1 < self.max_knots + 0.5:
            raise ParameterError(
                f"spacing {spacing} is too small: {n_span + 1:g} knots, "
                f"more than {self.max_knots}"
            )
        n_round = round(n_span)
        if abs(n_span - n_round) > 1e-9 * max(1.0, abs(n_span)):
            raise ParameterError(
                f"spacing {spacing} does not evenly divide [{self.lo}, {self.hi}]"
            )
        if n_round < 2:
            raise ParameterError(
                f"need 0 < sigma <= {(self.hi - self.lo) / 2:g}, got {spacing}: "
                "the grid needs at least two knot spans"
            )
        self.n_knots = n_round + 1
        self.spacing = (self.hi - self.lo) / n_round

    @classmethod
    def with_knots(cls, n_knots: int) -> "NaturalSplineGrid":
        """The grid of ``n_knots`` evenly spaced knots."""
        return cls((cls.hi - cls.lo) / (n_knots - 1))

    @cached_property
    def knots(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_knots)

    @cached_property
    def curvature_map(self) -> np.ndarray:
        """(n_knots, n_knots) map from knot values to knot second derivatives
        (natural closure): one banded solve of the tridiagonal system
        m_{j-1} + 4 m_j + m_{j+1} = (6 / sig^2) (v_{j-1} - 2 v_j + v_{j+1})
        for the interior knots, all knot-value columns at once."""
        n, m = self.n_knots, self.n_knots - 2
        ab = np.repeat([[1.0], [4.0], [1.0]], m, axis=1)  # two corners unread
        rhs = 6.0 / self.spacing**2 * (np.eye(m, n) - 2.0 * np.eye(m, n, 1) + np.eye(m, n, 2))
        zero = np.zeros(n)
        return np.vstack([zero, solve_banded((1, 1), ab, rhs), zero])

    def local_weights(self, s, order: int = 0):
        """Knot piece of each point and its four local spline weights.

        Returns ``piece`` and ``(m_left, m_right, v_left, v_right)``: with
        knot values v and knot second derivatives m = ``curvature_map`` @ v,
        the derivative of order 0..2 at s is m_left m[piece] + m_right
        m[piece + 1] + v_left v[piece] + v_right v[piece + 1].  Points
        beyond the grid fall in the first or last piece, which extends
        that piece's cubic.  The cubes of order 0 are products: numpy's
        float power sends them through libm ``pow``, about three times the
        cost of two multiplications.
        """
        if order < 0 or order > 2:
            raise ParameterError(f"derivative order {order} not available")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        sig = self.spacing
        piece = np.floor((s - self.lo) / sig).astype(np.int64)
        np.maximum(piece, 0, out=piece)
        np.minimum(piece, self.n_knots - 2, out=piece)
        u = (s - self.knots[piece]) / sig
        npts = len(s)
        if order == 0:
            v_left, v_right = 1.0 - u, u
            m_left = sig**2 / 6.0 * (v_left * v_left * v_left - v_left)
            m_right = sig**2 / 6.0 * (u * u * u - u)
        elif order == 1:
            v_left, v_right = np.full(npts, -1.0 / sig), np.full(npts, 1.0 / sig)
            m_left = sig / 6.0 * (1.0 - 3.0 * (1.0 - u) ** 2)
            m_right = sig / 6.0 * (3.0 * u**2 - 1.0)
        else:
            v_left = v_right = np.zeros(npts)
            m_left, m_right = 1.0 - u, u
        return piece, (m_left, m_right, v_left, v_right)

    def eval_matrix(self, s, order: int = 0) -> np.ndarray:
        """Dense matrix mapping knot values to point values at ``s``.

        Supports derivative orders 0..2.  Points beyond the grid use the
        polynomial extension of the first or last piece.
        """
        piece, (m_left, m_right, v_left, v_right) = self.local_weights(s, order)
        rows = np.arange(len(piece))
        m_part = np.zeros((len(piece), self.n_knots))
        # each row touches two distinct columns, so plain assignment and
        # in-place addition need no np.add.at
        m_part[rows, piece] = m_left
        m_part[rows, piece + 1] = m_right
        out = m_part @ self.curvature_map
        out[rows, piece] += v_left
        out[rows, piece + 1] += v_right
        return out


def param_grid(spacing: float = 0.1) -> NaturalSplineGrid:
    """The knot grid at ``spacing``, by default the paper's 21 knots."""
    return NaturalSplineGrid(spacing)


class SplineParameter:
    """Natural cubic spline parameter function stored by knot values."""

    def __init__(self, grid: NaturalSplineGrid, values, name="spline"):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_knots,):
            raise ParameterError(
                f"expected {grid.n_knots} knot values, got shape {values.shape}"
            )
        self.grid = grid
        self.values = values
        self.name = name

    def __call__(self, s, order: int = 0):
        out = self.grid.eval_matrix(s, order) @ self.values
        return float(out[0]) if np.isscalar(s) or np.ndim(s) == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """Interface coefficient, mobility, and double-well potential."""

    gamma: float
    b: object
    F: object

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise ModelError(f"gamma must be positive and finite, got {self.gamma}")

    def f(self, s, order: int = 0):
        """Derivative of the potential, f = F'."""
        return self.F(s, order + 1)

    def c(self, s):
        """The product c = b f' that identify-f and the joint problem solve for."""
        return self.b(s) * self.f(s, 1)


def mobility_floor(b) -> float:
    """Minimum of the mobility over a dense sample of the phase interval."""
    return float(np.min(b(np.linspace(*PHASE_INTERVAL, MOBILITY_SAMPLES))))


def leaves_phase_interval(values) -> bool:
    """Whether any value, or a NaN, lies outside the closed interval [-1, 1]."""
    return not np.all((values >= PHASE_INTERVAL[0]) & (values <= PHASE_INTERVAL[1]))


def scale_params(params: ModelParams, d: float, c: float = 0.0) -> ModelParams:
    """Rescale the model while keeping the phase evolution unchanged.

    gamma -> gamma / d, b -> d * b, F -> F / d + c * s (so f -> f / d + c).
    The chemical potential transforms as mu -> mu / d + c.  Spline
    parameters are rescaled through their knot values, which is exact
    because the natural closure is linear and reproduces linear data.
    """
    if not d > 0.0:
        raise ModelError(f"scaling factor d must be positive, got {d}")

    def scaled(p, mul, lin):
        if isinstance(p, SplineParameter):
            return SplineParameter(
                p.grid, p.values * mul + lin * p.grid.knots, name=p.name
            )
        return ClosedFormParameter(
            lambda s, p=p: mul * p(s, 0) + lin * np.asarray(s, dtype=float),
            lambda s, p=p: mul * p(s, 1) + lin,
            lambda s, p=p: mul * p(s, 2),
            name=p.name,
        )

    return ModelParams(
        gamma=params.gamma / d,
        b=scaled(params.b, d, 0.0),
        F=scaled(params.F, 1.0 / d, c),
    )


def mass(phi: PeriodicField) -> float:
    """Integral of the phase field over the torus."""
    tab = gauss_table(phi.basis, N_QUAD)
    return float(tab.weights.ravel() @ tab.gather(phi.coef).ravel())


def energy(phi: PeriodicField, params: ModelParams) -> float:
    """Free energy: gamma/2 |grad phi|^2 + F(phi), integrated."""
    tab = gauss_table(phi.basis, N_QUAD)
    grad = gauss_table(phi.basis, N_QUAD, 1).gather(phi.coef).ravel()
    vals = tab.gather(phi.coef).ravel()
    return float(tab.weights.ravel() @ (0.5 * params.gamma * grad**2 + params.F(vals)))


@dataclass
class RegularizerGram:
    """Dense SPD gram R of a spline grid in the squared H2 inner product.

    R is symmetrized and made read-only.  The Cholesky factorization that
    checks it is positive definite is kept as the read-only lower factor
    ``L``, L L' = R, the one route to the penalty norm ||L' x||.
    """

    grid: NaturalSplineGrid
    R: np.ndarray
    L: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dev = np.abs(self.R - self.R.T).max()
        if dev > 1e-12 * max(np.abs(self.R).max(), 1.0):
            raise ParameterError("regularizer gram deviates from symmetry")
        self.R = 0.5 * (self.R + self.R.T)
        try:
            self.L = np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError as err:
            raise ParameterError(f"regularizer gram is not positive definite: {err}")
        self.R.flags.writeable = self.L.flags.writeable = False


def assemble_param_gram(grid: NaturalSplineGrid) -> RegularizerGram:
    """H2 gram over the knot interval: orders 0, 1, 2 of the spline basis.

    ``PARAM_GRAM_QUAD`` Gauss points per knot span integrate the
    piecewise-cubic products exactly.  The gram is built once per knot
    count and shared, read-only, by every caller with an equal grid.
    """
    return _param_gram(grid.n_knots)


@lru_cache(maxsize=16)
def _param_gram(n_knots: int) -> RegularizerGram:
    grid = NaturalSplineGrid.with_knots(n_knots)
    g, wref = np.polynomial.legendre.leggauss(PARAM_GRAM_QUAD)
    u = 0.5 * (g + 1.0)
    sig = grid.spacing
    pts = (grid.knots[:-1, None] + u[None, :] * sig).ravel()
    w = np.tile(0.5 * wref * sig, grid.n_knots - 1)
    r = np.zeros((grid.n_knots, grid.n_knots))
    for order in range(3):
        e = grid.eval_matrix(pts, order)
        r += e.T @ (w[:, None] * e)
    return RegularizerGram(grid, r)


# --- reference problem catalog -------------------------------------------

GAMMA_DEFAULT = 0.003


# The closed forms below use products, not ``**``: numpy's float power
# goes through libm pow for cubes and fourth powers, several times slower
# than a multiplication, and the stepper evaluates f and b at every Newton
# iteration.


def _dw_F(s):
    """F(s) = (s - 0.99)^2 (s + 0.99)^4."""
    a, p = s - 0.99, s + 0.99
    p2 = p * p
    return a * a * (p2 * p2)


def _dw_f(s):
    """F'(s) = 2 (s - 0.99) (s + 0.99)^4 + 4 (s - 0.99)^2 (s + 0.99)^3."""
    a, p = s - 0.99, s + 0.99
    p3 = p * p * p
    return 2.0 * a * (p3 * p) + 4.0 * (a * a) * p3


def _dw_fprime(s):
    """F''(s) = 2 (s + 0.99)^4 + 16 (s - 0.99) (s + 0.99)^3
    + 12 (s - 0.99)^2 (s + 0.99)^2.
    """
    a, p = s - 0.99, s + 0.99
    p2 = p * p
    return 2.0 * (p2 * p2) + 16.0 * a * (p2 * p) + 12.0 * (a * a) * p2


def default_potential() -> ClosedFormParameter:
    """Sixth-degree double well with minima at +-0.99."""
    return ClosedFormParameter(_dw_F, _dw_f, _dw_fprime, name="double-well")


def _mob(s):
    """b(s) = (1 - s)^4 (1 + s)^2 + 0.2."""
    u, v = 1.0 - s, 1.0 + s
    u2 = u * u
    return (u2 * u2) * (v * v) + 0.2


def _mob_d1(s):
    """b'(s) = -4 (1 - s)^3 (1 + s)^2 + 2 (1 - s)^4 (1 + s)."""
    u, v = 1.0 - s, 1.0 + s
    u3 = u * u * u
    return -4.0 * u3 * (v * v) + 2.0 * (u3 * u) * v


def _mob_d2(s):
    """b''(s) = 12 (1 - s)^2 (1 + s)^2 - 16 (1 - s)^3 (1 + s) + 2 (1 - s)^4."""
    u, v = 1.0 - s, 1.0 + s
    u2 = u * u
    return 12.0 * u2 * (v * v) - 16.0 * (u2 * u) * v + 2.0 * (u2 * u2)


def default_mobility() -> ClosedFormParameter:
    """Asymmetric degenerate-looking mobility with floor 0.2."""
    return ClosedFormParameter(_mob, _mob_d1, _mob_d2, name="mobility")


def default_params(gamma: float = GAMMA_DEFAULT) -> ModelParams:
    return ModelParams(gamma=gamma, b=default_mobility(), F=default_potential())


def default_initial_profile(x):
    """Three-mode initial phase profile with mean 0.1."""
    x = np.asarray(x, dtype=float)
    return (
        0.1 * np.sin(2.0 * np.pi * x)
        - 0.1 * np.sin(4.0 * np.pi * x)
        + 0.1 * np.sin(12.0 * np.pi * x)
        + 0.1
    )
