"""Higher-order probabilistic coherent error cancellation (PCEC).

The TMR output applied through gate teleportation realizes the noisy
channel ``N = sum_j qbar_j R(theta_j)``.  Sampling the inverse of each
over-rotation with the same probabilities turns the coherent error into a
stochastic Z-flip; this module builds that cancellation channel and the
residual flip rate that serves as the per-trial error currency.
"""

from __future__ import annotations

import math

import numpy as np

from . import zchan
from .tmr import TmrOutputModel
from .zchan import RotationMixture


class ModelRegimeError(ValueError):
    """The branch model sits outside the perturbative regime PCEC assumes."""


def build_noisy_channel(model: TmrOutputModel) -> RotationMixture:
    """The teleported-gate channel: branches (qbar_j, theta_j)."""
    return zchan.mixture(list(zip(model.branch_qbars, model.branch_thetas)))


def build_canceller(model: TmrOutputModel) -> RotationMixture:
    """The sampled inverse-rotation channel.

    Branches: identity with weight 1 - sum_{j>=1} qbar_j, and -Delta_j with
    weight qbar_j, where Delta_j = theta_j - theta_l.  The feedback
    rotations are treated as exact; their synthesis cost is charged in the
    digital-stage budget, not here.
    """
    err = model.error_weight()
    if err >= 0.5:
        raise ModelRegimeError(
            f"total error weight {err:.3g} >= 1/2; cancellation model invalid"
        )
    pairs = [(1.0 - err, 0.0)]
    for qbar, theta_j in zip(model.branch_qbars[1:], model.branch_thetas[1:]):
        pairs.append((qbar, -(theta_j - model.theta_l)))
    return zchan.mixture(pairs)


def residual_rate(model: TmrOutputModel) -> float:
    """Post-cancellation stochastic-Z rate: 2 sum_{j>=1} qbar_j sin^2(Delta_j).

    Agrees with the exact twirled-Z rate of canceller-after-noisy up to
    O((sum qbar_j)^2) cross terms.
    """
    return 2.0 * sum(
        qbar * math.sin(theta_j - model.theta_l) ** 2
        for qbar, theta_j in zip(model.branch_qbars[1:], model.branch_thetas[1:])
    )


def leading_residual_rate(model: TmrOutputModel) -> float:
    """First-order-only residual 2 qbar_1 sin^2(Delta_1).

    This is the comparison mode for the earlier architecture generation,
    which cancelled only the leading over-rotation branch.
    """
    if len(model.branch_qbars) < 2:
        return 0.0
    qbar1 = model.branch_qbars[1]
    delta1 = model.branch_thetas[1] - model.theta_l
    return 2.0 * qbar1 * math.sin(delta1) ** 2


def residual_rates(
    thetas: np.ndarray, qbars: np.ndarray, higher_orders: bool = True
) -> np.ndarray:
    """Array form of :func:`residual_rate` over a :func:`starsmm.tmr.branch_table`.

    Sums over the branch (last) axis; with ``higher_orders`` false only the
    leading branch counts, as in :func:`leading_residual_rate`.
    """
    last = None if higher_orders else 2
    deltas = thetas[..., 1:last] - thetas[..., :1]
    return 2.0 * (qbars[..., 1:last] * np.sin(deltas) ** 2).sum(axis=-1)


def composed_error_channel(model: TmrOutputModel) -> RotationMixture:
    """canceller . noisy, expressed in the target frame (R(-theta_l) folded in)."""
    net = zchan.compose(build_canceller(model), build_noisy_channel(model))
    return zchan.compose(net, zchan.pure_rotation(-model.theta_l))

