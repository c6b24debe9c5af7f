"""Analytic output model of the transversal multi-rotation (TMR) protocol.

The protocol applies k physical-angle rotation factors along the logical Z
operator of a surface-code patch and post-selects on clean stabilizers.
This module provides the closed forms for its ideal success probability,
the logical angle, the error-branch angles theta_j, and the normalized
branch weights qbar_j, per gate and as arrays over many target angles.

Pass rates are not simulated here: the order-j pass probability is modeled
as ``c_j * p_ph**j`` with user-supplied coefficients ``c_j`` (default 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_THETA = 0.25 * math.pi
MAX_P_PH = 0.1  # largest physical error rate the TMR model covers
MAX_K = 1024  # largest k: p_ideal >= 2^(1-k) keeps 1/p_ideal finite, C(k, k // 2) a float


@dataclass(frozen=True)
class TmrParams:
    """Static parameters of one TMR configuration.

    Attributes:
        k: number of transversal rotation factors (k = Theta(d)), in [2, MAX_K].
        p_ph: physical error rate, in [0, 0.1].
        pass_coeffs: coefficients c_j of the order-j pass rate
            ``q_j_pass = c_j * p_ph**j`` for j = 1..j_max. Missing entries
            default to 1.0.
        j_max: highest error order retained; defaults to floor(k/2), the
            number of distinct branch pairs.
    """

    k: int
    p_ph: float
    pass_coeffs: tuple[float, ...] = ()
    j_max: int | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in [2, {MAX_K}], got {self.k}")
        if not 0.0 <= self.p_ph <= MAX_P_PH:
            raise ValueError(f"p_ph must lie in [0, 0.1], got {self.p_ph!r}")
        jm = self.k // 2 if self.j_max is None else self.j_max
        if not 1 <= jm <= self.k:
            raise ValueError(f"j_max must lie in [1, k], got {jm}")
        object.__setattr__(self, "j_max", jm)
        coeffs = tuple(float(c) for c in self.pass_coeffs)
        if any(c < 0.0 for c in coeffs):
            raise ValueError("pass coefficients must be non-negative")
        if len(coeffs) < jm:
            coeffs = coeffs + (1.0,) * (jm - len(coeffs))
        object.__setattr__(self, "pass_coeffs", coeffs[:jm])


@dataclass(frozen=True)
class TmrOutputModel:
    """Branch decomposition of one prepared resource state.

    ``branch_thetas[j]``/``branch_qbars[j]`` hold theta_j and qbar_j for
    j = 0..j_max; branch 0 is the target rotation (theta_0 = theta_l) and
    qbar sums to one.
    """

    params: TmrParams
    theta_phys: float
    theta_l: float
    p_ideal: float
    branch_thetas: tuple[float, ...]
    branch_qbars: tuple[float, ...]

    def error_weight(self) -> float:
        """Total weight on the non-target branches, sum_{j>=1} qbar_j."""
        return float(sum(self.branch_qbars[1:]))


def p_ideal(theta: float, k: int) -> float:
    """Ideal post-selection success probability sin^2k + cos^2k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return math.sin(theta) ** (2 * k) + math.cos(theta) ** (2 * k)


def logical_angle(theta: float, k: int) -> float:
    """Logical angle arcsin(sin^k(theta) / sqrt(p_ideal)); ~ theta^k small."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= theta <= MAX_THETA:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta!r}")
    return math.asin(math.sin(theta) ** k / math.sqrt(p_ideal(theta, k)))


def physical_angle_for(theta_l: float, k: int) -> float:
    """Physical angle whose TMR output has logical angle theta_l.

    Exact inverse of :func:`logical_angle`: tan(theta_l) = tan^k(theta), so
    theta = arctan(tan(theta_l)^(1/k)).
    """
    if not 0.0 <= theta_l <= MAX_THETA:
        raise ValueError(f"theta_l must lie in [0, pi/4], got {theta_l!r}")
    return math.atan(math.tan(theta_l) ** (1.0 / k))


def _u_abs(theta: float, k: int, j: int) -> float:
    """|u_j| = sin^j(theta) cos^(k-j)(theta)."""
    return math.sin(theta) ** j * math.cos(theta) ** (k - j)


def branch_angles(theta: float, k: int, j: int) -> float:
    """Angle theta_j of the order-j output branch.

    theta_j = (-1)^j arctan(tan^(k-2j)(theta)), since
    |u_{k-j}| / |u_j| = tan^(k-2j)(theta); this equals the asin form
    arcsin(|u_{k-j}| / sqrt(|u_j|^2 + |u_{k-j}|^2)).  j = 0 reproduces the
    logical angle and j = 1 the leading error angle.
    """
    if not 0 <= j <= k:
        raise ValueError(f"j must lie in [0, k], got {j}")
    if not 0.0 < theta <= MAX_THETA:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta!r}")
    t, power = math.tan(theta), k - 2 * j
    # j > k/2 has a negative power: atan2 avoids overflowing tan^power
    mag = math.atan(t ** power) if power >= 0 else math.atan2(1.0, t ** -power)
    return mag if j % 2 == 0 else -mag


def pair_weight(theta: float, k: int, j: int) -> float:
    """Unnormalized order-j branch factor C(k,j) (|u_j|^2 + |u_{k-j}|^2).

    Halved at j = k/2 for even k, where the pair is self-conjugate.  The
    order-j weight is this factor times c_j p_ph^j.
    """
    pair = math.comb(k, j) * (_u_abs(theta, k, j) ** 2 + _u_abs(theta, k, k - j) ** 2)
    return 0.5 * pair if 2 * j == k else pair


def branch_weights(params: TmrParams, theta: float) -> TmrOutputModel:
    """Full branch table of the post-selected output state.

    q_0 = p_ideal and, for j >= 1, q_j = pair_weight(theta, k, j) c_j p_ph^j.
    Returned weights are normalized (qbar_j = q_j / sum).
    """
    if not 0.0 < theta <= MAX_THETA:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta!r}")
    k = params.k
    pid = p_ideal(theta, k)
    q = [pid]
    thetas = [logical_angle(theta, k)]
    for j in range(1, params.j_max + 1):
        q.append(pair_weight(theta, k, j) * params.pass_coeffs[j - 1] * params.p_ph ** j)
        thetas.append(branch_angles(theta, k, j))
    total = sum(q)
    if total <= 0.0:
        raise ValueError("all branch weights vanish; model is degenerate")
    return TmrOutputModel(
        params=params,
        theta_phys=theta,
        theta_l=thetas[0],
        p_ideal=pid,
        branch_thetas=tuple(thetas),
        branch_qbars=tuple(w / total for w in q),
    )


def branch_table(
    params: TmrParams, theta_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch tables for an array of logical angles in (0, pi/4], in one numpy pass.

    Array form of :func:`output_model_for_logical`, with
    theta_phys = arctan(tan(theta_l)^(1/k)).  Returns ``(p_ideal, thetas,
    qbars)``: ``p_ideal`` has the shape of ``theta_l``, and ``thetas``/
    ``qbars`` hold theta_j and qbar_j for j = 0..j_max on a new last axis.
    numpy's vectorized tan, arctan and pow differ from libm in the last bit,
    so values agree with the scalar functions, which stay the reference, to
    a few ulp.
    """
    theta_l = np.asarray(theta_l, dtype=float)
    if not np.all((theta_l > 0.0) & (theta_l <= MAX_THETA)):
        raise ValueError("theta_l must lie in (0, pi/4]")
    k, j_max = params.k, params.j_max
    theta = np.arctan(np.tan(theta_l) ** (1.0 / k))
    s, c, t = (f(theta)[..., None] for f in (np.sin, np.cos, np.tan))
    pid = s[..., 0] ** (2 * k) + c[..., 0] ** (2 * k)

    j = np.arange(1, j_max + 1)
    scale = np.array([
        math.comb(k, i) * (0.5 if 2 * i == k else 1.0) * coeff * params.p_ph ** i
        for i, coeff in zip(j.tolist(), params.pass_coeffs)
    ])
    q = (s ** j * c ** (k - j)) ** 2 + (s ** (k - j) * c ** j) ** 2
    q = np.concatenate([pid[..., None], scale * q], axis=-1)

    # theta_j = (-1)^j arctan(t^(k-2j)); arctan2(1, t^(2j-k)) for negative powers
    j = np.arange(j_max + 1)
    power = k - 2 * j
    mag = t ** np.abs(power)
    mag = np.where(power >= 0, np.arctan(mag), np.arctan2(1.0, mag))
    thetas = np.where(j % 2 == 0, mag, -mag)
    return pid, thetas, q / q.sum(axis=-1, keepdims=True)


def output_model_for_logical(params: TmrParams, theta_l: float) -> TmrOutputModel:
    """Branch table for a target logical angle (inverts the angle map)."""
    return branch_weights(params, physical_angle_for(theta_l, params.k))

