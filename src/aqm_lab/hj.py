"""Weyl-gauge Hamilton-Jacobi system on the top configuration space.

The classical data are a phase field S(q) and the log of a Weyl gauge
chi(q), the one form in which the ansatz and the Weyl covector read it; the
electromagnetic data are uniform electric and magnetic fields extended to
the group directions through the right-invariant frame. The module checks
that the nonlinear pair (Hamilton-Jacobi equation, transport equation) is
exactly equivalent to one linear wave equation for
psi = chi^(-(n-2)/2) exp(i S), with the conformal coupling
xi^2 = (n-2)/(4(n-1)) and no approximation: the complex residual of the
wave operator splits into the two real residuals, and the defect of that
split is zero to stencil accuracy.

Natural units hbar = c = 1, and unit charge e = 1.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config_space import TopMetric, killing_vectors, split_point
from .fd import derivative_stack
from .fields import draw_field
from .geometry import covariant_divergence_at, laplace_beltrami, \
    weyl_scalar_at


def conformal_coupling(n: int) -> float:
    """Conformal coupling constant xi(n) = sqrt((n-2) / (4(n-1))).

    This is the unique coupling for which the curvature-potential wave
    equation is conformally invariant; xi(10) = sqrt(2)/3, xi(4) = sqrt(1/6),
    xi(2) = 0.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return float(np.sqrt((n - 2) / (4.0 * (n - 1))))


# ---------------------------------------------------------------------------
# electromagnetic configuration
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EMConfig:
    """Uniform electromagnetic field with its group-direction coupling.

    ``e_field`` and ``h_field`` are the electric and magnetic 3-vectors. The
    spacetime potential A_0 = E.x, A_k = (1/2)(H x x)_k reproduces the field
    strength F_{0k} = -E_k, F_{kl} = eps_{klm} H_m. ``kappa`` scales the
    group potential A_group = K c, the charges c = ``generator_charges``
    pushed forward by K = ``killing_vectors`` = C^-1 (a pull-back through
    the frame would be C^T c); the 10-D wave operator with it does not
    reduce to the spin block that ``verify-dirac`` checks.

    The field is stated once, in the constant Jacobian dA of the spacetime
    potential; dA and the group charges are built once, at construction, and
    like the two field vectors (copies of the arguments) they are read-only.
    """

    e_field: np.ndarray
    h_field: np.ndarray
    kappa: float = 2.0

    def __post_init__(self):
        e = _read_only(np.array(self.e_field, dtype=float))
        h = _read_only(np.array(self.h_field, dtype=float))
        if e.shape != (3,) or h.shape != (3,):
            raise ValueError("e_field and h_field must be 3-vectors")
        da = np.zeros((4, 4))
        da[1:, 0] = e
        for i, j, m in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            da[i, j] = 0.5 * h[m - 1]
            da[j, i] = -0.5 * h[m - 1]
        object.__setattr__(self, "e_field", e)
        object.__setattr__(self, "h_field", h)
        object.__setattr__(self, "_da", _read_only(da))
        object.__setattr__(self, "_charges", _read_only(
            -0.5 * self.kappa * np.concatenate([h, e])))

    @classmethod
    def zero(cls) -> "EMConfig":
        return cls(np.zeros(3), np.zeros(3))

    def potential_spacetime(self, x: np.ndarray) -> np.ndarray:
        """Covariant components (A_0, A_1, A_2, A_3) at events x on the last axis.

        A_nu = sum_mu x^mu dA[mu, nu], summed in row order by an elementwise
        product, not a matrix product: each point's value is then the same
        in any batch, and bitwise that of E.x and (1/2) H x x written out
        (halving is exact, and the zero entries add exact zeros). The time
        row of dA is zero and is not read.
        """
        x = np.asarray(x, dtype=float)
        return (x[..., 1:, None] * self._da[1:]).sum(axis=-2)

    def invariant_h2_e2(self) -> float:
        """The scalar invariant (1/2) F_{mu nu} F^{mu nu} = H^2 - E^2."""
        return float(self.h_field @ self.h_field - self.e_field @ self.e_field)

    def potential_gradient(self) -> np.ndarray:
        """Constant Jacobian dA[mu, nu] = d_mu A_nu of the spacetime potential
        (read-only)."""
        return self._da

    def generator_charges(self) -> np.ndarray:
        """Constant algebra-frame components c = -(kappa/2) (H1, H2, H3, E1,
        E2, E3) (read-only), which the group potential maps as K c."""
        return self._charges

    def potential(self, q: np.ndarray) -> np.ndarray:
        """Full 10-component covariant potential at configuration points."""
        x, theta = split_point(q)
        return self.potential_from_killing(x, killing_vectors(theta))

    def potential_from_killing(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        """``potential`` at events x whose angles have the Killing fields
        k = ``killing_vectors(theta)`` = C^-1: the group components push
        the constant ``generator_charges`` c forward, A_alpha = k[alpha, a]
        c_a; they are not its pull-back C^T c through the frame."""
        return np.concatenate([self.potential_spacetime(x),
                               k @ self.generator_charges()], axis=-1)


# One config, or a tuple of them stacked the way the couplings are: results
# have one entry per config on an axis after the batch axes, a lone config
# as the stack of one (except in ``raised_momentum``), and the fields, the
# Killing fields and the Weyl scalar are evaluated once for all of them.
EMConfigs = EMConfig | tuple[EMConfig, ...]


def _stack(em: EMConfigs) -> tuple[EMConfig, ...]:
    """A lone config as the stack of one, a tuple as it is (which must not
    be empty)."""
    if isinstance(em, EMConfig):
        return (em,)
    if not em:
        raise ValueError("the tuple of EM configurations is empty")
    return tuple(em)


def _stacked_potential(ems: tuple[EMConfig, ...], x: np.ndarray,
                       k: np.ndarray) -> np.ndarray:
    """``potential_from_killing`` of each config from the same Killing
    fields, as (*batch, n_em, 10)."""
    return np.stack([e.potential_from_killing(x, k) for e in ems], axis=-2)


# ---------------------------------------------------------------------------
# wave data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveInputs:
    """Classical data of the system: phase field S(q) and the log of the
    Weyl gauge, log chi(q); the unit gauge chi = 1 is a zero log chi."""

    s_field: Callable[[np.ndarray], np.ndarray]
    log_chi: Callable[[np.ndarray], np.ndarray]


def draw_wave_inputs(rng: np.random.Generator) -> WaveInputs:
    """Random band-limited phase and log-gauge fields on the 10-dim space."""
    s_field = draw_field(rng, 10)
    log_chi = draw_field(rng, 10)
    return WaveInputs(s_field=s_field, log_chi=log_chi)


def momentum_covector(fields: WaveInputs, em: EMConfig, point: np.ndarray,
                      h: float) -> np.ndarray:
    """Gauge-covariant momentum u_j = d_j S - A_j at points on the last axis."""
    point = np.asarray(point, dtype=float)
    return derivative_stack(fields.s_field, point, h=h) - em.potential(point)


def raised_momentum(fields: WaveInputs, em: EMConfigs, metric: TopMetric,
                    point: np.ndarray, h: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The raise u#^i = g^{ij} u_j of the momentum u = ``momentum_covector``
    and its square u.u# = g^{ij} u_i u_j, at points on the last axis, as
    (u#, u.u#).

    The potential and the inverse metric read one evaluation of the Killing
    fields of the points' angles, ``metric.killing_fields``. The raise goes
    by blocks (``TopMetric.raise_from_killing``): eta u on spacetime and the
    group inverse on the group components, bitwise equal to
    ``metric.inverse(point) @ u`` without building the 10x10 inverse.

    A tuple of configs gives u# as (*batch, n_em, 10) and u.u# as
    (*batch, n_em), each config's entry bitwise that of its own call: the
    gradient of S and the Killing fields are evaluated once for all.

    A lone config gives (*batch, 10) and (*batch,), for the RK4 stages of
    ``dynamics``: sent the stack of one, they read transport ``op_rel_p50``
    0.31-0.33 against 0.30 (about 6% slower, 4 of 4 interleaved pairs of
    6 s, 2-core host).
    """
    point = np.asarray(point, dtype=float)
    x, _ = split_point(point)
    k = metric.killing_fields(point)
    u = derivative_stack(fields.s_field, point, h=h)
    if isinstance(em, EMConfig):  # the RK4 stage primitive, see above
        u = u - em.potential_from_killing(x, k)
    else:
        u = u[..., None, :] - _stacked_potential(_stack(em), x, k)
        k = k[..., None, :, :]
    up = metric.raise_from_killing(k, u)
    return up, (u[..., None, :] @ up[..., None])[..., 0, 0]


def born_density(fields: WaveInputs, point: np.ndarray) -> np.ndarray:
    """Scalar density |psi|^2 = chi^(-(n-2)) carried by the linearizing map,
    with n the length of the last axis of ``point``."""
    point = np.asarray(point, dtype=float)
    return np.exp(-(point.shape[-1] - 2) * fields.log_chi(point))


def wave_ansatz(fields: WaveInputs) -> Callable[[np.ndarray], np.ndarray]:
    """The linearizing map psi(q) = chi^(-(n-2)/2) exp(i S), n = dim q."""
    s_field, log_chi = fields.s_field, fields.log_chi

    def psi(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.exp(-(q.shape[-1] - 2) / 2.0 * log_chi(q) + 1j * s_field(q))

    return psi


# ---------------------------------------------------------------------------
# residuals and the linearization identity
# ---------------------------------------------------------------------------


def hj_residual(fields: WaveInputs, ems: tuple[EMConfig, ...],
                metric: TopMetric, point: np.ndarray, r_scalar: float,
                xi2: np.ndarray, h: float) -> np.ndarray:
    """Residual of the Hamilton-Jacobi equation at a point, per config and
    coupling, as (n_em, n_xi2).

    g^{ij} u_i u_j + xi^2 R_W, which vanishes on solutions at the conformal
    coupling xi^2. ``r_scalar`` is the Riemann scalar of the metric at the
    point. u.u# is evaluated once per config and R_W, which reads neither
    the potential nor the coupling, once for all.
    """
    _, norm2 = raised_momentum(fields, ems, metric, point, h)
    rw = weyl_scalar_at(metric, fields.log_chi, point, h=h, form="phi",
                        r_scalar=r_scalar)
    return norm2[:, None] + xi2 * rw


def divergence_residual(fields: WaveInputs, em: EMConfigs, metric: TopMetric,
                        point: np.ndarray, h: float) -> np.ndarray:
    """Residual of the transport equation: covariant divergence of the
    density-weighted momentum current chi^(-(n-2)) g^{ij} u_j, at points on
    the last axis, as (*batch, n_em) from one stencil pass: the configs
    ride as value axes of the current."""
    point = np.asarray(point, dtype=float)
    ems = _stack(em)

    def current_up(q):
        up, _ = raised_momentum(fields, ems, metric, q, h)
        # the components right after the batch axes, a stack's configs
        # after them
        up = np.moveaxis(up, -1, q.ndim - 1)
        rho = born_density(fields, q)
        return rho.reshape(rho.shape + (1,) * (up.ndim - rho.ndim)) * up

    return covariant_divergence_at(metric, current_up, point, h=h)


def wave_operator(psi: Callable[[np.ndarray], np.ndarray],
                  ems: tuple[EMConfig, ...], metric: TopMetric,
                  point: np.ndarray, psi0: np.ndarray, xi2: np.ndarray,
                  r_scalar: float, h: float) -> np.ndarray:
    """Minimally coupled curvature-potential wave operator applied to psi.

    W psi = -(1/sqrt g)(d_i - i A_i) [sqrt g g^{ij} (d_j - i A_j) psi]
            + xi^2 R psi,
    evaluated at points on the last axis by nested central differences;
    ``psi0`` is psi(point), which the caller already holds. The result is
    (*batch, n_em, n_xi2), one value per config and coupling, from one
    evaluation of psi per stencil level.
    """
    def potential(q):
        # every config's covector from one evaluation of the Killing
        # fields, the configs last, against the unit last axis of psi
        x, _ = split_point(q)
        return np.swapaxes(
            _stacked_potential(ems, x, metric.killing_fields(q)), -1, -2)

    lap = laplace_beltrami(metric, lambda q: psi(q)[..., None], point, h=h,
                           potential=potential)
    return -lap[..., None] + xi2 * r_scalar * psi0[..., None, None]


class _Evaluated:
    """A pure function of points, evaluated once per distinct point array.

    A call at an array equal (``np.array_equal``) to one already seen hands
    back that call's values, read-only, so a caller that writes into a
    shared value fails; any other array is evaluated and kept with a copy
    of itself. The stages of one check build their point arrays by the same
    arithmetic, so arrays that meet here are equal in bytes too. A point
    with a NaN equals no array and is evaluated each time.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray]):
        self._f = f
        self._seen: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        for points, values in self._seen:
            if np.array_equal(points, q):
                return values
        values = self._f(q)
        if isinstance(values, np.ndarray):
            values = values.view()
            values.flags.writeable = False
        self._seen.append((q.copy(), values))
        return values


class _CheckMetric(TopMetric):
    """The top metric inside one ``linearization_check``: its Killing fields
    and sqrt g are evaluated once per point array, for every stage; the
    inverse, the raise and the potential read K through
    ``killing_fields``, by the top metric's own code."""

    def __init__(self, metric: TopMetric):
        super().__init__(metric.a)
        self._killing = _Evaluated(metric.killing_fields)
        self._sqrt_det = _Evaluated(metric.sqrt_det)

    def killing_fields(self, q):
        return self._killing(q)

    def sqrt_det(self, q):
        return self._sqrt_det(q)


def linearization_check(fields: WaveInputs, em: EMConfigs, metric: TopMetric,
                        point: np.ndarray, r_scalar: float,
                        xi2: float | np.ndarray | None = None, h: float = 1e-3
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verify the exact linearization at one point.

    Returns (defect, hj_res, div_res), as (n_em, n_xi2), (n_em, n_xi2) and
    (n_em,), where

        defect = (W psi)/psi - hj_res + i chi^(n-2) div_res.

    At the conformal coupling the identity
    (W psi)/psi = hj_res - i chi^(n-2) div_res holds exactly, so the defect
    is zero to stencil accuracy whatever the fields, the electromagnetic
    configuration, and the Riemann scalar value (which cancels between the
    two sides; any consistent ``r_scalar`` gives the same defect). With a
    wrong coupling injected via ``xi2`` the defect becomes
    (xi2_true - xi2) (R_W - R), which is generically far from zero.

    ``em`` is a config or a tuple of them and ``xi2`` a coupling or a 1-D
    array of them (None: the conformal one), a lone one as the stack of
    one. Each entry has the bits of the call with its one config and
    coupling: the stencils depend on neither, and run once.

    The three stages (the wave operator, the Hamilton-Jacobi residual and
    the transport residual) walk the same point arrays: the point, its
    stencil points and theirs. The inputs of the identity, S, log chi, the
    Killing fields and sqrt g, are evaluated once per point array for all
    three, through a store that lives for this call: 6 field calls on
    3 282 points and 2 Killing-field calls on 41 angles per check. Each
    input is a pure function of its points, so every result keeps its
    bytes. Only inputs are shared; nothing one side of the identity
    derives reaches the other.
    """
    point = np.asarray(point, dtype=float)
    n = metric.dim
    if xi2 is None:
        xi2 = conformal_coupling(n) ** 2
    ems = _stack(em)
    couplings = np.atleast_1d(np.asarray(xi2, dtype=float))
    fields = WaveInputs(_Evaluated(fields.s_field), _Evaluated(fields.log_chi))
    metric = _CheckMetric(metric)

    psi = wave_ansatz(fields)
    psi0 = psi(point)
    w = wave_operator(psi, ems, metric, point, psi0, couplings, r_scalar, h)
    hj = hj_residual(fields, ems, metric, point, r_scalar, couplings, h)
    div = divergence_residual(fields, ems, metric, point, h=h)
    chi_pow = np.exp((n - 2) * fields.log_chi(point))
    defect = w / psi0 - hj + 1j * chi_pow * div[:, None]
    return defect, hj, div
