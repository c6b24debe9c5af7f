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
wall time at one code cycle per microsecond (CYCLE_TIME).  The total time
is the single shot times gamma_inf^2 e^(4 P_total) / eps^2, with the
rotations' P_total priced by :mod:`starsmm.mitigation` (no separate shot
count is kept) and an SMM alpha read from :func:`starsmm.smm.error_rates`.
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
    if not (lambda_t > 0.0 and q > 0.0):  # written so that a NaN fails it
        raise ValueError("lambda*T and Q must be positive")
    return math.atan(q / (2.0 * lambda_t))


def _check_lambda_t_delta(lambda_t: float, delta: float) -> None:
    """Refuse all but lambda*T > 0 and Delta in (0, pi/2); a NaN fails both."""
    if not lambda_t > 0.0:
        raise ValueError("lambda*T must be positive")
    if not 0.0 < delta < 0.5 * math.pi:
        raise ValueError(f"delta must lie in (0, pi/2), got {delta!r}")


def gate_count(lambda_t: float, delta: float) -> float:
    """Expected non-trivial gates per shot: csc(2D)(3 - cos 2D) lambda T."""
    _check_lambda_t_delta(lambda_t, delta)
    return (3.0 - math.cos(2.0 * delta)) / math.sin(2.0 * delta) * lambda_t


def sampling_overhead(lambda_t: float, delta: float) -> float:
    """gamma_inf^2 = exp(2 lambda T tan Delta), e^Q at the selected angle; an overflow names it."""
    _check_lambda_t_delta(lambda_t, delta)
    q = 2.0 * lambda_t * math.tan(delta)
    try:
        return math.exp(q)
    except OverflowError:
        raise OverflowError(f"gamma_inf^2 = e^Q overflows at Q = {q!r}") from None


def logical_error_per_cycle(p_ph: float, d: int) -> float:
    """Surface-code logical error per code cycle: 0.1 (100 p_ph)^((d+1)/2)."""
    if not 0.0 < p_ph < P_THRESHOLD:
        raise ValueError(f"p_ph must lie in (0, 1e-2), got {p_ph!r}")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"code distance must be odd and >= 3, got {d}")
    rate = 0.1 * (100.0 * p_ph) ** ((d + 1) / 2)
    if rate == 0.0:  # solve_code_distance inverts it
        raise ValueError(f"the per-cycle logical error rate underflows to 0 at p_ph = {p_ph!r}, "
                         f"d = {d}")
    return rate


def patch_count(n_l: int) -> int:
    """Fast-block layout patches: 2 N_L + sqrt(8 N_L) + 11.

    The 11 covers one lattice-surgery ancilla strip plus ten patches
    reserved for magic/resource state preparation.
    """
    if isinstance(n_l, bool) or not 1 <= n_l < math.inf or n_l % 1:
        raise ValueError(f"N_L must be >= 1 and an integer, got {n_l!r}")
    return math.ceil(2 * n_l + math.sqrt(8 * n_l)) + 11


def smm_alpha_provider(
    p_ph: float, p_m: float = mitigation.P_M, *, c1: float
) -> mitigation.AlphaModel:
    """alpha_RUS(theta) from :func:`smm.error_rates` at k = SMM_K, theta_th = SMM_THETA_TH.

    ``c1`` is the first-order pass coefficient, e.g. ``smm.calibrate_c1(SMM_K, p_ph)``.
    |theta| >= theta_th is pure synthesis (n_rus = 0): the P_L of the gate at
    theta_th, so alpha = P_L(theta_th) / (|theta| p_ph).
    """
    params = tmr.TmrParams(k=SMM_K, p_ph=p_ph, pass_coeffs=(c1,))

    def alpha(theta: float) -> float:
        mag = abs(theta)
        rate = smm.error_rates(params, min(mag, SMM_THETA_TH), SMM_THETA_TH, p_m=p_m).alpha_rus
        return rate.item() if mag < SMM_THETA_TH else rate.item() * SMM_THETA_TH / mag

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
    p_ph: float = mitigation.P_PH
    c_smm: float = 3.0

    def __post_init__(self) -> None:
        constant = () if callable(self.alpha_model) else ("alpha_model",)
        for name in ("lam", "t", "n_l", "epsilon", "q", "p_ph", "c_smm") + constant:
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("lam", "t", "q", "c_smm") + constant:
            if (value := getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.lam * self.t == 0.0:
            raise ValueError("lambda*T must be positive")  # lam, t > 0: the product underflowed
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.epsilon ** 2 == 0.0:  # estimate divides by it
            raise ValueError(f"eps^2 underflows to 0 at epsilon = {self.epsilon!r}")
        patch_count(self.n_l)  # the layout's N_L rule


@dataclass(frozen=True)
class TepaiEstimate:
    """Full resource estimate for one instance."""

    delta_angle: float
    n_gate: float
    d: int
    n_patch: int
    physical_qubits: int
    p_total: float
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
    gamma_sq = sampling_overhead(lam_t, delta)
    n_patch = patch_count(instance.n_l)
    d = solve_code_distance(n_gate, n_patch, instance.p_ph, instance.c_smm)
    p_total = mitigation.rotation_p_total(n_gate, delta, instance.alpha_model, instance.p_ph)
    price = mitigation.sampling_price(p_total)
    single_shot = n_gate * instance.c_smm * d * CYCLE_TIME
    total = single_shot * gamma_sq * price / instance.epsilon ** 2
    return TepaiEstimate(
        delta_angle=delta,
        n_gate=n_gate,
        d=d,
        n_patch=n_patch,
        physical_qubits=n_patch * 2 * d * d,
        p_total=p_total,
        single_shot_seconds=single_shot,
        total_seconds=total,
    )
