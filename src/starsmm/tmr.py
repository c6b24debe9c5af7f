"""Analytic output model of the transversal multi-rotation (TMR) protocol.

The protocol applies k physical-angle rotation factors along the logical Z
operator of a surface-code patch and post-selects on clean stabilizers.
This module states the closed forms for its ideal success probability,
the logical angle, the error-branch angles theta_j, and the normalized
branch weights qbar_j, per gate (:func:`branch_weights`) and as arrays over
many target angles (:func:`branch_table`).

Pass rates are not simulated here: the order-j pass probability is modeled
as ``c_j * p_ph**j`` with user-supplied coefficients ``c_j`` (default 1).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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
        j_max: highest error order retained, in [1, k // 2] (default k // 2):
            a Z-pattern and its complement (times Z_L) leave one syndrome,
            so orders j and k - j are one branch pair.
    """

    k: int
    p_ph: float
    pass_coeffs: tuple[float, ...] = ()
    j_max: int | None = None

    def __post_init__(self) -> None:
        jm = self.k // 2 if self.j_max is None else self.j_max
        for name, value in (("k", self.k), ("j_max", jm)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in [2, {MAX_K}], got {self.k}")
        if not 0.0 <= self.p_ph <= MAX_P_PH:
            raise ValueError(f"p_ph must lie in [0, 0.1], got {self.p_ph!r}")
        if not 1 <= jm <= self.k // 2:
            raise ValueError(f"j_max must lie in [1, k // 2] = [1, {self.k // 2}], got {jm}")
        object.__setattr__(self, "j_max", jm)
        coeffs = tuple(float(c) for c in self.pass_coeffs)
        for j, c in enumerate(coeffs, 1):
            if not 0.0 <= c < math.inf:
                raise ValueError(f"pass coefficient c_{j} must be finite and >= 0, got {c!r}")
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

    theta_phys: float
    theta_l: float
    p_ideal: float
    branch_thetas: tuple[float, ...]
    branch_qbars: tuple[float, ...]

    def error_weight(self) -> float:
        """Total weight on the non-target branches, sum_{j>=1} qbar_j, added left to right."""
        return functools.reduce(operator.add, self.branch_qbars[1:])


def physical_angle_for(theta_l: float, k: int) -> float:
    """Physical angle whose TMR output has logical angle theta_l.

    Exact inverse of the angle map of :func:`branch_weights`:
    tan(theta_l) = tan^k(theta), so theta = arctan(tan(theta_l)^(1/k)).
    """
    if not 0.0 <= theta_l <= MAX_THETA:
        raise ValueError(f"theta_l must lie in [0, pi/4], got {theta_l!r}")
    return math.atan(math.tan(theta_l) ** (1.0 / k))


def _pair_weight(s: float, c: float, k: int, j: int) -> float:
    """:func:`pair_weight` from s = sin(theta) and c = cos(theta)."""
    pair = math.comb(k, j) * ((s ** j * c ** (k - j)) ** 2 + (s ** (k - j) * c ** j) ** 2)
    return 0.5 * pair if 2 * j == k else pair


def pair_weight(theta: float, k: int, j: int) -> float:
    """Unnormalized order-j branch factor C(k,j) (|u_j|^2 + |u_{k-j}|^2).

    |u_j| = sin^j(theta) cos^(k-j)(theta).  Halved at j = k/2 for even k,
    where the pair is self-conjugate.  The order-j weight is this factor
    times c_j p_ph^j.
    """
    return _pair_weight(math.sin(theta), math.cos(theta), k, j)


def branch_weights(params: TmrParams, theta: float) -> TmrOutputModel:
    """Full branch table of the post-selected output state at physical angle theta.

    q_0 = p_ideal = sin^2k + cos^2k, the ideal post-selection success
    probability, and theta_0 is the logical angle
    arcsin(sin^k(theta) / sqrt(p_ideal)) ~ theta^k.  For j >= 1,
    q_j = pair_weight(theta, k, j) c_j p_ph^j and
    theta_j = (-1)^j arctan(tan^(k-2j)(theta)), since
    |u_{k-j}| / |u_j| = tan^(k-2j)(theta); this equals the asin form
    arcsin(|u_{k-j}| / sqrt(|u_j|^2 + |u_{k-j}|^2)).  Returned weights are
    normalized (qbar_j = q_j / sum).
    """
    if not 0.0 < theta <= MAX_THETA:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta!r}")
    k = params.k
    s, c, t = math.sin(theta), math.cos(theta), math.tan(theta)
    pid = s ** (2 * k) + c ** (2 * k)
    q, thetas = [pid], [math.asin(s ** k / math.sqrt(pid))]
    for j in range(1, params.j_max + 1):
        q.append(_pair_weight(s, c, k, j) * params.pass_coeffs[j - 1] * params.p_ph ** j)
        mag = math.atan(t ** (k - 2 * j))
        thetas.append(mag if j % 2 == 0 else -mag)
    total = functools.reduce(operator.add, q)
    if total <= 0.0:
        raise ValueError("all branch weights vanish; model is degenerate")
    return TmrOutputModel(
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

    Array form of :func:`output_model_for_logical` at the physical angle
    arctan(tan(theta_l)^(1/k)), which is not returned.  Returns ``(p_ideal,
    thetas, qbars)``: ``p_ideal`` has the shape of ``theta_l``, and
    ``thetas``/``qbars`` hold theta_j and qbar_j for j = 0..j_max on a new
    last axis.  Every SMM gate reads its trial tables from here.  Each row
    depends on its own angle only, so it has the same bits in any call.
    :func:`branch_weights` evaluates the same closed forms for one gate
    through libm, whose last bits can differ from numpy's tan, arctan and pow.
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

    # theta_j = (-1)^j arctan(t^(k-2j))
    j = np.arange(j_max + 1)
    mag = np.arctan(t ** (k - 2 * j))
    thetas = np.where(j % 2 == 0, mag, -mag)
    return pid, thetas, q / q.sum(axis=-1, keepdims=True)


def output_model_for_logical(params: TmrParams, theta_l: float) -> TmrOutputModel:
    """Branch table for a target logical angle (inverts the angle map)."""
    return branch_weights(params, physical_angle_for(theta_l, params.k))

