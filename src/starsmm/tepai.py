"""TE-PAI cost model and end-to-end fault-tolerant resource estimation.

TE-PAI simulates Hamiltonian time evolution by sampling random circuits
whose only non-Clifford gate is a rotation by one fixed angle Delta.  Gate
count and sampling overhead depend on the problem solely through lambda*T
(L1-norm times evolution time), which makes resource estimation uniform
across target systems:

    N_gate(Delta)   = csc(2 Delta) (3 - cos 2 Delta) lambda T
    gamma_inf^2     = exp(2 lambda T tan Delta)
    Delta selected  = arctan(Q / (2 lambda T))  ->  gamma_inf^2 = e^Q and
                      N_gate = 2 (lambda T)^2 / Q + Q.

The fault-tolerant layer solves for the surface-code distance, lays out
patches for fast-block Pauli-based computation, and converts clocks to
wall time at one code cycle per microsecond (CYCLE_TIME).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import mitigation, smm, tmr

MIN_GATE_FACTOR = 2.0 * math.sqrt(2.0)  # N_gate >= 2 sqrt(2) lambda T
CYCLE_TIME = 1e-6  # seconds per surface-code cycle
D_MAX = 99  # largest code distance the solver tries
P_THRESHOLD = 1e-2  # surface-code threshold of the logical error model
#: SMM setup behind :func:`smm_alpha_provider`: TMR factors k and RUS threshold theta_th.
SMM_K = 7
SMM_THETA_TH = 0.01


class DistanceSolveError(RuntimeError):
    """No admissible code distance below the solver cap."""


def select_angle(lambda_t: float, q: float) -> float:
    """Overhead-optimal fixed rotation angle: arctan(Q / (2 lambda T))."""
    if lambda_t <= 0.0 or q <= 0.0:
        raise ValueError("lambda*T and Q must be positive")
    return math.atan(q / (2.0 * lambda_t))


def gate_count(lambda_t: float, delta: float) -> float:
    """Expected non-trivial gates per shot: csc(2D)(3 - cos 2D) lambda T."""
    if lambda_t <= 0.0:
        raise ValueError("lambda*T must be positive")
    if not 0.0 < delta < 0.5 * math.pi:
        raise ValueError(f"delta must lie in (0, pi/2), got {delta!r}")
    return (3.0 - math.cos(2.0 * delta)) / math.sin(2.0 * delta) * lambda_t


def sampling_overhead(lambda_t: float, delta: float, epsilon: float) -> tuple[float, int]:
    """(gamma_inf^2, shot count): exp(2 lambda T tan Delta) and ceil(gamma^2/eps^2)."""
    if lambda_t <= 0.0 or not 0.0 < delta < 0.5 * math.pi:
        raise ValueError("need lambda*T > 0 and delta in (0, pi/2)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    gamma_sq = math.exp(2.0 * lambda_t * math.tan(delta))
    return gamma_sq, math.ceil(gamma_sq / epsilon ** 2)


def logical_error_per_cycle(p_ph: float, d: int) -> float:
    """Surface-code logical error per code cycle: 0.1 (100 p_ph)^((d+1)/2)."""
    if not 0.0 < p_ph < P_THRESHOLD:
        raise ValueError(f"p_ph must lie in (0, 1e-2), got {p_ph!r}")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"code distance must be odd and >= 3, got {d}")
    return 0.1 * (100.0 * p_ph) ** ((d + 1) / 2)


def patch_count(n_l: int) -> int:
    """Fast-block layout patches: 2 N_L + sqrt(8 N_L) + 11.

    The 11 covers one lattice-surgery ancilla strip plus ten patches
    reserved for magic/resource state preparation.
    """
    if n_l < 1:
        raise ValueError("N_L must be >= 1")
    return math.ceil(2 * n_l + math.sqrt(8 * n_l)) + 11


def smm_alpha_provider(
    p_ph: float, p_m: float = 2e-9, c1: float | None = None
) -> mitigation.AlphaModel:
    """alpha_RUS(theta) backed by the SMM analytics at k = SMM_K, theta_th = SMM_THETA_TH.

    |theta| >= theta_th is pure synthesis (n_rus = 0): the P_L of the gate at
    theta_th, so alpha = P_L(theta_th) / (|theta| p_ph).
    """
    if c1 is None:
        c1 = smm.calibrate_c1(k=SMM_K, p_ph=p_ph)
    params = tmr.TmrParams(k=SMM_K, p_ph=p_ph, pass_coeffs=(c1,))

    def report(theta_l: float) -> smm.SmmReport:
        config = smm.SmmConfig(theta_l=theta_l, tmr_params=params, theta_th=SMM_THETA_TH, p_m=p_m)
        return smm.effective_error_rate(config)

    def alpha(theta: float) -> float:
        if abs(theta) < SMM_THETA_TH:
            return report(theta).alpha_rus
        return report(SMM_THETA_TH).alpha_rus * SMM_THETA_TH / abs(theta)

    return alpha


@dataclass(frozen=True)
class TepaiInstance:
    """One (system, evolution time) resource-estimation instance.

    ``lam`` and ``t`` must share a consistent unit pair so lam*t is
    dimensionless (for the molecule catalog: Hartree and atomic time,
    where T ~ 41.3 a.u. is one femtosecond).  ``alpha_model`` is either a
    constant or a callable theta -> alpha such as :func:`smm_alpha_provider`.
    """

    lam: float
    t: float
    n_l: int
    alpha_model: float | mitigation.AlphaModel
    epsilon: float = 0.05
    q: float = 1.0
    p_ph: float = 1e-3
    c_smm: float = 3.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.lam * self.t <= 0.0:
            raise ValueError("lambda*T must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.q <= 0.0:
            raise ValueError("Q must be positive")
        if self.n_l < 1:
            raise ValueError("N_L must be >= 1")
        if self.c_smm <= 0.0:
            raise ValueError("c_smm must be positive")


@dataclass(frozen=True)
class TepaiEstimate:
    """Full resource estimate for one instance."""

    instance: TepaiInstance
    delta_angle: float
    n_gate: float
    gamma_inf_sq: float
    n_shots: int
    d: int
    n_patch: int
    physical_qubits: int
    p_total: float
    mitigation_factor: float
    single_shot_seconds: float
    total_seconds: float


def solve_code_distance(
    n_gate: float,
    n_patch: int,
    p_ph: float,
    c_smm: float,
) -> int:
    """Smallest odd d <= D_MAX with p_L(p_ph, d)^-1 >= 100 d N_gate C_smm N_patch."""
    for d in range(3, D_MAX + 1, 2):
        demand = 100.0 * d * n_gate * c_smm * n_patch
        if 1.0 / logical_error_per_cycle(p_ph, d) >= demand:
            return d
    raise DistanceSolveError(
        f"no code distance d <= {D_MAX} meets the error budget "
        f"(N_gate={n_gate:.3g}, N_patch={n_patch}, p_ph={p_ph:.3g})"
    )


def estimate(instance: TepaiInstance) -> TepaiEstimate:
    """End-to-end spacetime estimate for one TE-PAI run.

    Physical qubits per patch are counted as 2 d^2 (data plus measurement
    qubits of a rotated surface-code patch).  Every sampled gate, Pauli
    measurements included, is charged C_smm clocks of d code cycles; the
    total time multiplies the single shot by e^Q e^(4 P_total) / eps^2, with
    P_total and its price taken from :mod:`starsmm.mitigation`.
    """
    lam_t = instance.lam * instance.t
    delta = select_angle(lam_t, instance.q)
    n_gate = gate_count(lam_t, delta)
    gamma_sq, n_shots = sampling_overhead(lam_t, delta, instance.epsilon)
    n_patch = patch_count(instance.n_l)
    d = solve_code_distance(n_gate, n_patch, instance.p_ph, instance.c_smm)
    p_total = mitigation.rotation_p_total(n_gate, delta, instance.alpha_model, instance.p_ph)
    price = mitigation.sampling_price(p_total)
    single_shot = n_gate * instance.c_smm * d * CYCLE_TIME
    total = single_shot * gamma_sq * price / instance.epsilon ** 2
    return TepaiEstimate(
        instance=instance,
        delta_angle=delta,
        n_gate=n_gate,
        gamma_inf_sq=gamma_sq,
        n_shots=n_shots,
        d=d,
        n_patch=n_patch,
        physical_qubits=n_patch * 2 * d * d,
        p_total=p_total,
        mitigation_factor=price,
        single_shot_seconds=single_shot,
        total_seconds=total,
    )
