"""Ten-dimensional configuration space of the relativistic top.

A configuration q = (x^0..x^3, theta^1..theta^6) pairs a spacetime event
with a proper Lorentz transformation. The group element is charted as

    Lambda(theta) = exp(theta^1 J1 + theta^2 J2 + theta^3 J3)
                  * exp(theta^4 K1 + theta^5 K2 + theta^6 K3),

an exponential rotation-vector factor times an exponential boost-vector
factor. This chart is regular at theta = 0 (unlike Euler-angle charts),
where the frame of right-invariant fields reduces to the identity.

The mostly-plus Minkowski metric diag(-1, 1, 1, 1) is used throughout, with
natural units hbar = c = 1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .geometry import MetricField

# componentwise bound on boost parameters accepted by samplers and integrators
RAPIDITY_MAX = 3.0
# below this, |g_ij u^i u^j| counts as degenerate (null direction)
NULL_TOL = 1e-10

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])

# pairing <T_a, T_b> = tr(T_a^T G T_b G) of the generator basis, diagonal;
# contracting both index pairs of an algebra element against itself with the
# spacetime metric reproduces this form on the coefficients
GENERATOR_PAIRING = np.diag([2.0, 2.0, 2.0, -2.0, -2.0, -2.0])


def generators() -> np.ndarray:
    """Basis (J1, J2, J3, K1, K2, K3) of the Lorentz algebra, 4x4 real.

    J_a generate spatial rotations, K_a boosts along the spatial axes:
    [J_a, J_b] = eps_abc J_c, [J_a, K_b] = eps_abc K_c,
    [K_a, K_b] = -eps_abc J_c.
    """
    g = np.zeros((6, 4, 4))
    # rotations: (J_a)_{bc} = -eps_{abc} on the spatial block
    g[0, 2, 3], g[0, 3, 2] = -1.0, 1.0
    g[1, 3, 1], g[1, 1, 3] = -1.0, 1.0
    g[2, 1, 2], g[2, 2, 1] = -1.0, 1.0
    # boosts: symmetric time-space mixers
    for a in range(3):
        g[3 + a, 0, 1 + a] = 1.0
        g[3 + a, 1 + a, 0] = 1.0
    return g


_GEN = generators()


def basis_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients c with m = sum_a c[a] * generators()[a].

    Each generator owns a distinct matrix slot, so the decomposition is a
    direct read-off.
    """
    return np.array([m[3, 2], m[1, 3], m[2, 1], m[0, 1], m[0, 2], m[0, 3]])


def ad_matrix(m: np.ndarray) -> np.ndarray:
    """Adjoint action ad_m as a 6x6 matrix in the generator basis."""
    return np.column_stack([basis_decompose(m @ t - t @ m) for t in _GEN])


def _phi1(a: np.ndarray) -> np.ndarray:
    """Phi1(a) = (exp(a) - 1) a^{-1}, defined for singular a by the series.

    Evaluated exactly through the block identity
    expm([[a, I], [0, 0]]) = [[exp(a), Phi1(a)], [0, I]].
    """
    n = a.shape[0]
    z = np.zeros((2 * n, 2 * n))
    z[:n, :n] = a
    z[:n, n:] = np.eye(n)
    return expm(z)[:n, n:]


def split_point(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a 10-vector into (x, theta)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (10,):
        raise ValueError("configuration point must be a 10-vector")
    return q[:4], q[4:]


def lorentz_from_angles(theta: np.ndarray) -> np.ndarray:
    """Group element Lambda(theta) in the rotation-then-boost exponential chart."""
    theta = np.asarray(theta, dtype=float)
    rot = expm(np.einsum("a,aij->ij", theta[:3], _GEN[:3]))
    boost = expm(np.einsum("a,aij->ij", theta[3:], _GEN[3:]))
    return rot @ boost


def frame_coefficients(theta: np.ndarray) -> np.ndarray:
    """Left-trivialized frame C[b, alpha] of the chart.

    Defined by (d Lambda / d theta^alpha) Lambda^{-1} = sum_b C[b, alpha] T_b.
    In the two-factor exponential chart the columns are closed-form:
    rotation columns come from Phi1(ad_R), boost columns from
    exp(ad_R) Phi1(ad_B), with R and B the rotation and boost generators.
    """
    theta = np.asarray(theta, dtype=float)
    r = np.einsum("a,aij->ij", theta[:3], _GEN[:3])
    b = np.einsum("a,aij->ij", theta[3:], _GEN[3:])
    ad_r = ad_matrix(r)
    ad_b = ad_matrix(b)
    c = np.empty((6, 6))
    c[:, :3] = _phi1(ad_r)[:, :3]
    c[:, 3:] = (expm(ad_r) @ _phi1(ad_b))[:, 3:]
    return c


def killing_vectors(theta: np.ndarray) -> np.ndarray:
    """Right-invariant vector fields xi[alpha, a] on the group in this chart.

    Column a holds the chart components of the field generated by T_a, i.e.
    the inverse of the frame matrix. At theta = 0 this is the identity. The
    fields close under Lie brackets with the negated structure constants,
    the standard sign for right-invariant fields.
    """
    return np.linalg.inv(frame_coefficients(theta))


# ---------------------------------------------------------------------------
# the top metric
# ---------------------------------------------------------------------------


class GroupMetric(MetricField):
    """Invariant metric of the Lorentz group in the chart, on theta alone.

    The polarization of (a^2/2) tr(omega omega-raised) over the six chart
    directions, which equals a^2 C^T diag(1, 1, 1, -1, -1, -1) C with C the
    frame matrix. Its scalar curvature is the constant 6/a^2.
    """

    dim = 6

    def __init__(self, a: float = 1.0):
        if a <= 0:
            raise ValueError("internal length scale a must be positive")
        self.a = float(a)

    def matrix(self, theta):
        c = frame_coefficients(theta)
        return self.a ** 2 * c.T @ (0.5 * GENERATOR_PAIRING) @ c


class TopMetric(MetricField):
    """Metric of the spinning-top configuration space.

    Block diagonal: Minkowski diag(-1, 1, 1, 1) on spacetime and the
    ``GroupMetric`` on the group factor. Components depend on theta only.

    The scalar curvature of this metric is the constant 6/a^2.
    """

    dim = 10
    constant_dims = frozenset(range(4))

    def __init__(self, a: float = 1.0):
        self.group = GroupMetric(a)
        self.a = self.group.a

    def matrix(self, q):
        _, theta = split_point(q)
        g = np.zeros((10, 10))
        g[:4, :4] = MINKOWSKI
        g[4:, 4:] = self.group.matrix(theta)
        return g

    def riemann_scalar(self) -> float:
        """Closed-form Riemann scalar 6/a^2 (verified against finite differences)."""
        return 6.0 / self.a ** 2


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_point(rng: np.random.Generator, rot_scale: float = np.pi,
                 boost_bound: float = RAPIDITY_MAX) -> np.ndarray:
    """Draw a random configuration point with componentwise bounded rapidity.

    Spacetime components are uniform in [-1, 1].
    """
    if boost_bound > RAPIDITY_MAX:
        raise ValueError(f"boost_bound exceeds the domain bound {RAPIDITY_MAX}")
    x = rng.uniform(-1.0, 1.0, 4)
    rot = rng.uniform(-rot_scale, rot_scale, 3)
    boost = rng.uniform(-boost_bound, boost_bound, 3)
    return np.concatenate([x, rot, boost])
