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

from .geometry import MetricField

# componentwise bound on boost parameters accepted by samplers and integrators
RAPIDITY_MAX = 3.0

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
# eta = diag(-1, 1, 1, 1) on the spacetime slots of a 10-vector, 0 on the group
_SPACETIME_SIGNS = np.concatenate([np.diag(MINKOWSKI), np.zeros(6)])

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
_GEN_HALVES = _GEN.reshape(2, 3, 4, 4)
# kappa of ``expm`` per factor: the rotation generators have imaginary
# spectra, the boost generators real ones
_KAPPA_PHASES = np.array([1j, 1.0])


def basis_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients c with m = sum_a c[a] * generators()[a].

    Each generator owns a distinct matrix slot, so the decomposition is a
    direct read-off.
    """
    return np.array([m[3, 2], m[1, 3], m[2, 1], m[0, 1], m[0, 2], m[0, 3]])


def ad_matrix(m: np.ndarray) -> np.ndarray:
    """Adjoint action ad_m as a 6x6 matrix in the generator basis."""
    return np.column_stack([basis_decompose(m @ t - t @ m) for t in _GEN])


# flattened adjoint matrices ad_{T_a} of the basis, split into the rotation
# and the boost half, so that ad_R and ad_B for the two halves of theta are
# one contraction of the angles against this table
_AD_HALVES = np.stack([ad_matrix(t) for t in _GEN]).reshape(2, 3, 36)
_EYE6 = np.eye(6)
# W = ad_R on the rotation block and V, the rotation <- boost block of ad_B,
# per unit angle of each half: the 3x3 blocks of the closed-form Killing
# fields
_AD_BLOCKS = np.stack([_AD_HALVES[0].reshape(3, 6, 6)[:, :3, :3],
                       _AD_HALVES[1].reshape(3, 6, 6)[:, :3, 3:]]
                      ).reshape(2, 3, 9)
_EYE3 = np.eye(3)
_DIAG3 = np.arange(3)
# (theta * theta) @ _HALF_SUMS = (|theta_rot|^2, |theta_boost|^2)
_HALF_SUMS = np.repeat(np.eye(2), 3, axis=0)
# sign of s in ``_rodrigues_coefficients`` for each half: -|theta_rot|^2
# for the rotation, +|theta_boost|^2 for the boost
_HALF_SIGNS = np.array([-1.0, 1.0])

# below this |theta| the closed-form coefficients lose digits to
# cancellation, so their Taylor series are used instead
SERIES_CUTOFF = 1e-3


def _rodrigues_coefficients(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e1, e2, e3) = sum_k s^k / ((2k+1)!, (2k+2)!, (2k+3)!), elementwise.

    For a matrix X with X^3 = s X these give exp(X) = I + e1 X + e2 X^2 and
    Phi1(X) = (exp(X) - I) X^{-1} = I + e2 X + e3 X^2 (the Rodrigues and
    dexp formulas). s = -|theta|^2 for a rotation, +|theta|^2 for a boost.
    Each element below the cutoff takes the Taylor series.
    """
    s = np.asarray(s, dtype=float)
    series = np.abs(s) < SERIES_CUTOFF ** 2
    # the closed forms see 1 where the series is taken, so nothing divides by 0
    s_far = np.where(series, 1.0, s)
    t = np.sqrt(np.abs(s_far))
    trig = s_far < 0
    sn = np.where(trig, np.sin(t), np.sinh(t))
    half = np.where(trig, np.sin(0.5 * t), np.sinh(0.5 * t))
    # 1 - cos t = 2 sin^2(t/2), cosh t - 1 = 2 sinh^2(t/2): no cancellation
    return (np.where(series, 1.0 + s / 6.0 + s * s / 120.0, sn / t),
            np.where(series, 0.5 + s / 24.0 + s * s / 720.0,
                     2.0 * half * half / (t * t)),
            np.where(series, 1.0 / 6.0 + s / 120.0 + s * s / 5040.0,
                     (sn - t) / (s_far * t)))


def _expm1_ratio(kappa: np.ndarray) -> np.ndarray:
    """phi = expm1(kappa) / kappa elementwise, for real or complex kappa.

    Each element below the cutoff takes the Taylor series, which also covers
    kappa = 0.
    """
    series = np.abs(kappa) < SERIES_CUTOFF
    # the quotient sees 1 where the series is taken, so nothing divides by 0
    far = np.where(series, 1.0, kappa)
    taylor = 1.0 + kappa * (1 / 2 + kappa * (1 / 6 + kappa * (1 / 24 + kappa / 120)))
    return np.where(series, taylor, np.expm1(far) / far)


def expm(m: np.ndarray, kappa: np.ndarray, spin: float) -> np.ndarray:
    """exp(m) for matrices m on the last two axes whose spectrum lies in
    kappa * {-spin, 1 - spin, ..., spin}, with m diagonalizable.

    Newton's divided-difference form of the polynomial that interpolates exp
    on these equispaced nodes, exact on such m. The nodes x_i = kappa o_i
    run from the centre outwards (o = 0, -1, 1, -2, ... or -1/2, 1/2, -3/2,
    ...), so the first k + 1 are consecutive, with divided difference
    e^{kappa min_k} phi^k / k!, min_k = min(o_0, ..., o_k):

        exp(m) = sum_{k=0}^{2 spin} e^{kappa min_k} (phi^k / k!)
                 prod_{i<k} (m - x_i I),    phi = expm1(kappa) / kappa.

    Taken from one end, the terms of a rotation factor grow like
    (1 + |e^{i theta} - 1|)^k before they cancel, and high spins lose digits.
    ``kappa`` holds one value per matrix of the batch: i |theta_rot| for a
    rotation factor, |theta_boost| for a boost factor. ``spin`` is 1 for the
    4x4 chart, where the sum is Rodrigues' quadratic, and u + v for the irrep
    (u, v). See Curtright, Fairlie and Zachos, SIGMA 10 (2014) 084, for spin
    matrix polynomials.
    """
    m = np.asarray(m)
    kappa = np.asarray(kappa)[..., None, None]
    phi = _expm1_ratio(kappa)
    # not ``*``: from 256 KiB numpy reuses the temporary in place, operands
    # swapped, and the complex product is not bitwise commutative
    phi_down = np.multiply(phi, np.exp(-kappa))
    nodes = sorted((i - spin for i in range(int(round(2 * spin)) + 1)),
                   key=lambda o: (abs(o), o))
    out = term = np.exp(nodes[0] * kappa) * np.eye(m.shape[-1])
    for k in range(1, len(nodes)):
        # a negative node past the first lowers min_k by 1: one more e^{-kappa}
        step = (phi_down if nodes[k] < 0 else phi) / k
        term = (term @ m - nodes[k - 1] * kappa * term) * step
        out = out + term
    return out


def split_point(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split 10-vectors on the last axis into (x, theta)."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] != 10:
        raise ValueError("configuration point must be a 10-vector")
    return q[..., :4], q[..., 4:]


def factor_exponents(theta: np.ndarray, gens: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and spectral scales of the two factors of the chart.

    ``gens`` stacks the rotation and the boost generators of a
    representation as (2, 3, d, d). Returns m[..., h, :, :] =
    theta_h . gens[h] for the rotation (h = 0) and the boost half (h = 1),
    as (..., 2, d, d), and kappa = (i |theta_rot|, |theta_boost|) on the
    last axis, the node spacing of ``expm``.
    """
    theta = np.asarray(theta, dtype=float)
    batch = theta.shape[:-1]
    halves = theta.reshape(batch + (2, 1, 3))
    d = gens.shape[-1]
    m = (halves @ gens.reshape(2, 3, d * d)).reshape(batch + (2, d, d))
    return m, np.sqrt(np.sum(halves * halves, axis=(-2, -1))) * _KAPPA_PHASES


def lorentz_from_angles(theta: np.ndarray) -> np.ndarray:
    """Group element Lambda(theta) in the rotation-then-boost exponential chart."""
    m, kappa = factor_exponents(theta, _GEN_HALVES)
    # the rotation's complex nodes give real matrices up to roundoff
    factors = expm(m, kappa, 1).real
    return factors[..., 0, :, :] @ factors[..., 1, :, :]


def frame_coefficients(theta: np.ndarray) -> np.ndarray:
    """Left-trivialized frame C[..., b, alpha] of the chart, per angle 6-vector.

    Defined by (d Lambda / d theta^alpha) Lambda^{-1} = sum_b C[b, alpha] T_b.
    In the two-factor exponential chart the columns are closed-form:
    rotation columns come from Phi1(ad_R), boost columns from
    exp(ad_R) Phi1(ad_B), with R and B the rotation and boost generators.
    On the adjoint, ad_R^3 = -|theta_rot|^2 ad_R and
    ad_B^3 = +|theta_boost|^2 ad_B, so each factor is a quadratic in ad.

    No verb evaluates the frame: it is the test reference of the closed
    forms, a^2 C^T P C of ``GroupMetric.matrix`` and C^-1 of
    ``killing_vectors``.
    """
    theta = np.asarray(theta, dtype=float)
    batch = theta.shape[:-1]
    halves = theta.reshape(batch + (2, 1, 3))  # rotation, boost
    ad = (halves @ _AD_HALVES).reshape(batch + (2, 6, 6))  # ad_R, ad_B
    ad2 = ad @ ad
    e1, e2, e3 = (e[..., None, None] for e in _rodrigues_coefficients(
        _HALF_SIGNS * np.sum(halves * halves, axis=(-2, -1))))
    # exp(ad_R), then Phi1(ad_R) and Phi1(ad_B) over ad and ad2: summed in
    # place, a batch of frames keeps fewer temporaries alive
    exp_r = e1[..., 0, :, :] * ad[..., 0, :, :]
    exp_r += e2[..., 0, :, :] * ad2[..., 0, :, :]
    exp_r += _EYE6
    phi1 = ad
    phi1 *= e2
    ad2 *= e3
    phi1 += ad2
    phi1 += _EYE6
    c = np.empty(batch + (6, 6))
    c[..., :3] = phi1[..., 0, :, :3]
    c[..., 3:] = exp_r @ phi1[..., 1, :, 3:]
    return c


def killing_vectors(theta: np.ndarray) -> np.ndarray:
    """Right-invariant vector fields xi[..., alpha, a] on the group in this chart.

    Column a holds the chart components of the field generated by T_a, i.e.
    the inverse of the frame matrix. At theta = 0 this is the identity. The
    fields close under Lie brackets with the negated structure constants,
    the standard sign for right-invariant fields.

    The inverse is closed-form: no frame is built and no matrix inverted.
    In the (J, K) basis ad_R keeps the split and ad_B swaps it, so the frame
    is block upper triangular, C = [[A, e2_b E V], [0, E (I + e3_b M)]].
    Here W is ad_R on so(3) (the cross-product matrix of theta_rot), V the
    J <- K block of ad_B, M = (ad_B^2)_KK = -V^2 = b^2 I - beta beta^T,
    E = exp(W), A = Phi1(W), and e2_b, e3_b are the boost's coefficients of
    ``_rodrigues_coefficients``. With r = |theta_rot|, b = |theta_boost|:

    - A^-1 is the Bernoulli function x / (e^x - 1) at x = W, which on
      so(3) is I - W/2 + f W^2 with f = (1 - (r/2) cot(r/2)) / r^2
      (Iserles, Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta
      Numerica 2000); x e^x / (e^x - 1) is the same function at -x, so
      A^-1 E = I + W/2 + f W^2 = A^-1 + W;
    - (I + e3_b M)^-1 = I + c V^2, c = e3_b / (1 + e3_b b^2)
      = (1 - b / sinh b) / b^2, because M^2 = b^2 M;
    - V M = b^2 V, so the corner -e2_b A^-1 E V (I + e3_b M)^-1 E^T is
      -t (A^-1 + W) V E^T, t = e2_b / (1 + e3_b b^2) = tanh(b/2) / b.

    K = [[A^-1, -t (A^-1 + W) V E^T], [0, (I + c V^2) E^T]], with
    E^T = I - e1 W + e2 W^2 by Rodrigues. Each element below the cutoff
    takes the Taylor series of f, e1, e2, t and c.
    """
    theta = np.asarray(theta, dtype=float)
    batch = theta.shape[:-1]
    flat = theta.reshape(-1, 6)
    n = len(flat)
    wv = (flat.reshape(n, 2, 1, 3) @ _AD_BLOCKS).reshape(n, 2, 3, 3)
    w, v = wv[:, 0], wv[:, 1]
    sq = (flat * flat) @ _HALF_SUMS  # r^2, b^2
    # held off zero, so nothing divides by 0; an element below the cutoff
    # takes its series afterwards
    r, b = np.maximum(np.sqrt(sq), SERIES_CUTOFF).T
    half = 0.5 * r
    cos_half = np.cos(half)
    sinc_half = np.sin(half) / half
    # rows A^-1, -t (A^-1 + W) and E^T, over the powers I, W and W^2; with
    # e1 = sinc(r/2) cos(r/2), e2 = sinc(r/2)^2 / 2, (r/2) cot(r/2) =
    # cos(r/2) / sinc(r/2): trig functions for the rotation only
    coef = np.empty((n, 3, 3))
    coef[:, :, 0] = 1.0
    coef[:, 0, 1] = -0.5
    coef[:, 0, 2] = (1.0 - cos_half / sinc_half) / (r * r)
    coef[:, 2, 1] = -sinc_half * cos_half
    coef[:, 2, 2] = 0.5 * sinc_half * sinc_half
    # hyperbolic functions for the boost only
    t = np.tanh(0.5 * b) / b
    c = (1.0 - b / np.sinh(b)) / (b * b)
    small = sq < SERIES_CUTOFF ** 2
    if small.any():
        rot, boost = small.T
        s = sq[rot, 0]
        coef[rot, 0, 2] = 1.0 / 12.0 + s / 720.0 + s * s / 30240.0
        coef[rot, 2, 1] = -(1.0 - s / 6.0 + s * s / 120.0)
        coef[rot, 2, 2] = 0.5 - s / 24.0 + s * s / 720.0
        s = sq[boost, 1]
        t[boost] = 0.5 - s / 24.0 + s * s / 240.0
        c[boost] = 1.0 / 6.0 - 7.0 * s / 360.0 + 31.0 * s * s / 15120.0
    coef[:, 1] = coef[:, 0]
    coef[:, 1, 1] = 0.5
    coef[:, 1] *= -t[:, None]
    powers = np.empty((n, 3, 3, 3))
    powers[:, 0] = _EYE3
    powers[:, 1] = w
    np.matmul(w, w, out=powers[:, 2])
    poly = (coef @ powers.reshape(n, 3, 9)).reshape(n, 3, 3, 3)
    e_t = poly[:, 2]
    v_e_t = v @ e_t
    k = np.zeros((n, 6, 6))
    k[:, :3, :3] = poly[:, 0]
    np.matmul(poly[:, 1], v_e_t, out=k[:, :3, 3:])
    k[:, 3:, 3:] = e_t + c[:, None, None] * (v @ v_e_t)
    return k.reshape(batch + (6, 6))


# ---------------------------------------------------------------------------
# the top metric
# ---------------------------------------------------------------------------

# P = diag(1, 1, 1, -1, -1, -1) of the group metric a^2 C^T P C, its own inverse
_PAIRING_SIGNS = 0.5 * np.diag(GENERATOR_PAIRING)


class GroupMetric(MetricField):
    """Invariant metric of the Lorentz group in the chart, on theta alone.

    The polarization of (a^2/2) tr(omega omega-raised) over the six chart
    directions, which equals a^2 C^T diag(1, 1, 1, -1, -1, -1) C with C the
    frame matrix. Its scalar curvature is the constant 6/a^2. ``matrix``,
    ``inverse`` and ``sqrt_det`` are closed forms, and none builds the
    frame. a^2 C^T P C from ``frame_coefficients`` is the test reference of
    ``matrix``, and the generic ``MetricField`` forms of ``matrix`` are that
    of ``inverse`` and ``sqrt_det``. ``matrix`` shares no coefficient with
    ``killing_vectors``, so curvature, a finite-difference result of
    ``matrix`` alone, is independent of the other two.
    """

    dim = 6

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("internal length scale a must be positive")
        self.a = np.float64(a)  # an extreme power is inf or 0, not an error

    def matrix(self, theta):
        """a^2 C^T P C in closed form on 3x3 blocks: no frame is built.

        In the (J, K) basis the frame is C = [[A, e2_b E V], [0, E N]] (see
        ``killing_vectors``): W = ad_R on so(3), V the J <- K block of ad_B,
        E = exp(W), A = Phi1(W), M = V^T V and N = I + e3_b M. With
        P = diag(I, -I), A^T E = Phi1(-W) e^W = Phi1(W) = A and E^T E = I,
        C^T P C = [[A^T A, e2_b A V], [(e2_b A V)^T, e2_b^2 M - N^2]]. With
        x = theta_rot, beta = theta_boost, r = |x|, b = |beta|,
        W^2 = x x^T - r^2 I and M = b^2 I - beta beta^T, this is

            g / a^2 = [[2 e2_r I + q_r x x^T, e2_b A V],
                       [(e2_b A V)^T, -2 e2_b I + q_b beta beta^T]],
            A V = (sin r / r) V + e2_r (x.beta I - beta x^T) + e3_r x (x^T V),

        with e2_r = (1 - cos r)/r^2, e3_r = (r - sin r)/r^3,
        e2_b = (cosh b - 1)/b^2, q_r = (1 - 2 e2_r)/r^2 and
        q_b = (2 e2_b - 1)/b^2. Each element below the cutoff takes the
        Taylor series. The points stay on the last axis until one transpose
        at the end, so a per-point factor scales contiguous rows.
        """
        theta = np.asarray(theta, dtype=float)
        batch = theta.shape[:-1]
        flat = theta.reshape(-1, 6)
        n = len(flat)
        halves = np.ascontiguousarray(flat.T).reshape(2, 3, n)
        rot, boost = halves
        sq = np.sum(halves * halves, axis=1)  # r^2, b^2
        # held off zero, so nothing divides by 0; an element below the cutoff
        # takes its series afterwards
        rb = np.sqrt(np.maximum(sq, SERIES_CUTOFF ** 2))
        r, b = rb
        far = rb * rb
        # e2 = 2 sin^2(r/2)/r^2 and 2 sinh^2(b/2)/b^2: no cancellation
        e2 = np.empty((2, n))
        np.sin(0.5 * r, out=e2[0])
        np.sinh(0.5 * b, out=e2[1])
        e2 /= rb
        e2 *= 2.0 * e2
        q = (1.0 - 2.0 * e2) / far  # q_r and -q_b
        sinc = np.sin(r) / r
        e3_r = (1.0 - sinc) / far[0]
        small = sq < SERIES_CUTOFF ** 2
        if small.any():
            rot_small, boost_small = small
            s = sq[0, rot_small]
            sinc[rot_small] = 1.0 - s / 6.0 + s * s / 120.0
            e3_r[rot_small] = 1.0 / 6.0 - s / 120.0 + s * s / 5040.0
            e2[0, rot_small] = 0.5 - s / 24.0 + s * s / 720.0
            q[0, rot_small] = 1.0 / 12.0 - s / 360.0 + s * s / 20160.0
            s = sq[1, boost_small]
            e2[1, boost_small] = 0.5 + s / 24.0 + s * s / 720.0
            q[1, boost_small] = -(1.0 / 12.0 + s / 360.0 + s * s / 20160.0)
        a2 = self.a ** 2
        # the diagonal blocks a^2 (q x x^T + 2 e2 I), the boost's negated;
        # x_i x_j is formed before its factor, so each block is symmetric
        blocks = halves[:, :, None] * halves[:, None]
        blocks *= (a2 * q)[:, None, None]
        blocks[:, _DIAG3, _DIAG3] += (2.0 * a2) * e2[:, None]
        g = np.empty((6, 6, n))
        g[:3, :3] = blocks[0]
        np.negative(blocks[1], out=g[3:, 3:])
        # the corner a^2 e2_b A V, each term's factor taken on a 3-vector
        corner = a2 * e2[1]
        v = (_AD_BLOCKS[1].T @ boost).reshape(3, 3, n)
        jk = g[:3, 3:]
        np.multiply(v, sinc * corner, out=jk)
        wv = e2[0] * corner  # the factor of W V = x.beta I - beta x^T
        jk -= (boost * wv)[:, None] * rot
        jk[_DIAG3, _DIAG3] += np.sum(rot * boost, axis=0) * wv
        x_v = np.sum(rot[:, None] * v, axis=0)  # x^T V
        jk += rot[:, None] * (x_v * (e3_r * corner))
        g[3:, :3] = jk.transpose(1, 0, 2)
        return g.transpose(2, 0, 1).reshape(batch + (6, 6))

    def inverse(self, theta):
        return self.inverse_from_killing(killing_vectors(theta))

    def inverse_from_killing(self, k):
        """a^-2 K P K^T from the Killing fields K = C^-1 of the angles, with
        P = diag(1, 1, 1, -1, -1, -1)."""
        return (k * _PAIRING_SIGNS) @ np.swapaxes(k, -1, -2) / self.a ** 2

    def sqrt_det(self, theta):
        """a^6 |det C| = a^6 (sin(r/2) / (r/2))^2 (sinh b / b)^2, with
        r = |theta_rot| and b = |theta_boost|: no frame is evaluated."""
        theta = np.asarray(theta, dtype=float)
        r = np.sqrt(np.sum(theta[..., :3] ** 2, axis=-1))
        b2 = np.sum(theta[..., 3:] ** 2, axis=-1)
        series = b2 < SERIES_CUTOFF ** 2
        # the quotient sees 1 where the series is taken, so nothing divides by 0
        b = np.sqrt(np.where(series, 1.0, b2))
        sinhc = np.where(series, 1.0 + b2 / 6.0 + b2 * b2 / 120.0, np.sinh(b) / b)
        return self.a ** 6 * (np.sinc(r / (2.0 * np.pi)) * sinhc) ** 2


class TopMetric(MetricField):
    """Metric of the spinning-top configuration space.

    Block diagonal: Minkowski diag(-1, 1, 1, 1) on spacetime and the
    ``GroupMetric`` on the group factor. Components depend on theta only.
    ``matrix``, ``inverse`` and ``sqrt_det`` compose the group metric's
    closed forms, so none builds the frame; the generic ``MetricField``
    forms of ``matrix`` are the test reference of the other two.

    The Minkowski block is constant, so the scalar curvature of this
    product metric is that of its group block, the constant 6/a^2 (the
    product-metric rule; O'Neill, "Semi-Riemannian Geometry", 1983).
    """

    dim = 10

    def __init__(self, a: float):
        self.group = GroupMetric(a)
        self.a = self.group.a

    def matrix(self, q):
        _, theta = split_point(q)
        group = self.group.matrix(theta)
        g = np.zeros(theta.shape[:-1] + (10, 10))
        g[..., :4, :4] = MINKOWSKI
        g[..., 4:, 4:] = group
        return g

    def killing_fields(self, q):
        """``killing_vectors`` of the points' angles, (*batch, 6, 6): the
        one source of K for ``inverse`` and for the momentum and the
        potential of ``hj``."""
        _, theta = split_point(q)
        return killing_vectors(theta)

    def inverse(self, q):
        """blockdiag(eta, the group block a^-2 K P K^T), with K from
        ``killing_fields``: no 10x10 matrix is inverted."""
        k = self.killing_fields(q)
        ginv = np.zeros(k.shape[:-2] + (10, 10))
        ginv[..., :4, :4] = MINKOWSKI
        ginv[..., 4:, 4:] = self.group.inverse_from_killing(k)
        return ginv

    def raise_from_killing(self, k, u):
        """The raise g^{ij} u_j of covectors u on the last axis, by blocks,
        from the Killing fields K of the points' angles: eta u on spacetime,
        elementwise, and the group block a^-2 K P K^T times the group
        components. No 10x10 inverse is built."""
        up = u * _SPACETIME_SIGNS  # the group slots are written next
        np.matmul(self.group.inverse_from_killing(k), u[..., 4:, None],
                  out=up[..., 4:, None])
        return up

    def sqrt_det(self, q):
        _, theta = split_point(q)
        return self.group.sqrt_det(theta)

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
