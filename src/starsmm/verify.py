"""The oracle suite behind ``starsmm verify``.

Each check returns ``(ok, detail)`` and is named by its key in
``verify_report.json``.  :func:`run` calibrates c1 once, then runs every
check in report order.  Every comparison fails closed on a NaN.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import hamcat, mitigation, pcec, smm, tepai, tmr, zchan


def tepai_identities() -> tuple[bool, str]:
    errors = []
    for lam_t in (1.0, 13.78, 1378.0, 9.9e4):
        for q in (0.1, 1.0, 5.0):
            delta = tepai.select_angle(lam_t, q)
            n_gate = tepai.gate_count(lam_t, delta)
            closed = 2.0 * lam_t ** 2 / q + q
            errors.append(abs(n_gate - closed) / closed)
            gamma_sq = tepai.sampling_overhead(lam_t, delta)
            errors.append(abs(gamma_sq - math.exp(q)) / math.exp(q))
    worst = float(np.max(errors))
    return worst < 1e-10, f"worst relative error {worst:.2e}"


def tepai_gate_count_minimum() -> tuple[bool, str]:
    lam_t = 37.0
    floor = tepai.MIN_GATE_FACTOR * lam_t
    grid_ok = all(
        tepai.gate_count(lam_t, d) >= floor - 1e-9
        for d in np.linspace(1e-3, math.pi / 2 - 1e-3, 2001)
    )
    at_min = tepai.gate_count(lam_t, math.atan(1.0 / math.sqrt(2.0)))
    return grid_ok and abs(at_min - floor) < 1e-9, f"min {at_min:.12f} vs {floor:.12f}"


def channel_algebra() -> tuple[bool, str]:
    gaps = []
    for q in (0.01, 0.05, 0.1):
        for dl in (0.1, 0.4, math.pi / 4):
            mix = zchan.mixture([(1 - 2 * q, 0.0), (q, dl), (q, -dl)])
            analytic = 2 * q * math.sin(dl) ** 2
            gaps.append(abs(zchan.twirled_z_error(mix, 0.0) - analytic))
            dev = zchan.worst_case_vs_pauli_model(mix, 0.0)
            if not dev <= 8 * q * q:
                return False, f"symmetric deviation {dev:.2e} exceeds 8q^2"
    worst = float(np.max(gaps))
    return worst < 1e-15, f"worst twirl mismatch {worst:.2e}"


def rotation_branch_table(params: tmr.TmrParams, theta_l: float):
    """(p_ideal, thetas, qbars) derived from the k physical rotations, not from the closed forms.

    prod_m (cos(theta) I - i sin(theta) Z_m) expands over the 2^k Z-patterns S
    with amplitude a_S = cos^(k-|S|)(theta) (-i sin(theta))^|S|.  Z_S and its
    complement Z_{S^c} = Z_S Z_L leave one logical operator a_S I + a_{S^c} Z_L,
    so each pair {S, S^c} is counted once, in class j = min(|S|, k - |S|).  A
    class's norm is the exact sum of |a_S|^2 + |a_{S^c}|^2 over its pairs; its
    angle is atan((a_{S^c} / a_S) / (-i)^k), the ratio in branch 0's frame,
    which is real with sign (-1)^j (a ratio with an imaginary part gives NaN,
    which fails every comparison).  Classes j = 0..j_max are kept; the pass
    factor c_j p_ph^j is the model's input: it is multiplied in, then the
    weights are normalised.
    """
    k, j_max = params.k, params.j_max
    theta = math.atan(math.tan(theta_l) ** (1.0 / k))
    cos, sin = math.cos(theta), -1j * math.sin(theta)
    norms = [[] for _ in range(k // 2 + 1)]
    ratios = [None] * (k // 2 + 1)
    full = 2 ** k - 1
    for pattern in range(full + 1):
        weight = bin(pattern).count("1")
        if (weight, pattern) > (k - weight, full ^ pattern):
            continue  # the pair's other side, counted already
        a_s, a_c = cos ** (k - weight) * sin ** weight, cos ** weight * sin ** (k - weight)
        norms[weight].append(abs(a_s) ** 2 + abs(a_c) ** 2)
        ratios[weight] = a_c / a_s / (-1j) ** k
    thetas = [math.atan(r.real) if r.imag == 0.0 else math.nan for r in ratios[:j_max + 1]]
    q = [math.fsum(norms[0])] + [
        math.fsum(norms[j]) * params.pass_coeffs[j - 1] * params.p_ph ** j
        for j in range(1, j_max + 1)
    ]
    total = math.fsum(q)
    return q[0], thetas, [weight / total for weight in q]


def tmr_branch_table() -> tuple[bool, str]:
    angles = (1e-8, 1e-3, 0.05, 0.7)
    errors = []
    for k in range(2, 11):
        params = tmr.TmrParams(k=k, p_ph=1e-2, pass_coeffs=(0.04, 0.5, 2.0))
        exact = zip(*(rotation_branch_table(params, x) for x in angles))
        for got, want in zip(tmr.branch_table(params, np.array(angles)), exact):
            want = np.array(want)
            errors.append(np.max(np.abs(got - want) / np.abs(want)))
    worst = float(np.max(errors))
    return worst <= 1e-14, f"worst relative error {worst:.2e} vs the 2^k rotations, k = 2..10"


def pcec_residual_oracle() -> tuple[bool, str]:
    worst_ratio = 0.0
    for k in (3, 5, 7):
        for theta in (0.02, 0.1, 0.3, 0.6):
            for p_ph in (1e-4, 1e-3, 1e-2):
                model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=p_ph), theta)
                row = model.branch_thetas, model.branch_qbars
                exact = zchan.twirled_z_error(pcec.composed_error_channel(*row), 0.0)
                analytic = pcec.residual_rate(model)
                bound = 10.0 * model.error_weight() ** 2
                if not abs(exact - analytic) <= max(bound, 1e-16):
                    return False, f"gap {abs(exact - analytic):.2e} > bound {bound:.2e}"
                worst_ratio = max(worst_ratio, abs(exact - analytic) / max(bound, 1e-300))
    return True, f"worst gap/bound ratio {worst_ratio:.3f}"


def _smm_gate(c1: float, k: int, theta_l: float, ratio: float) -> smm.SmmConfig:
    """The p_ph = P_PH gate at theta_th = ratio * theta_l that the SMM checks run."""
    params = tmr.TmrParams(k=k, p_ph=mitigation.P_PH, pass_coeffs=(c1,))
    return smm.SmmConfig(theta_l=theta_l, tmr_params=params, threshold_ratio=ratio)


def smm_enumeration_oracle(c1: float) -> tuple[bool, str]:
    for k in (3, 5, 7):
        for theta_l in (0.005, 0.02):
            for ratio in (2.0, 8.0):
                config = _smm_gate(c1, k, theta_l, ratio)
                # the evaluator behind alpha_sweep.csv and tradeoff.csv too
                rep = smm.effective_error_rate(config)
                exact = smm.enumerate_error_rate(config)
                bound = 10.0 * max(math.fsum(row.qbars[1:]) for row in rep.trials) ** 2
                if not abs(rep.p_l - exact) <= bound:
                    return False, (
                        f"k={k} theta_l={theta_l} ratio={ratio}: "
                        f"analytic gap {abs(rep.p_l - exact):.2e} > {bound:.2e}"
                    )
    return True, "analytic matches exact enumeration within 10 (sum qbar)^2"


def smm_monte_carlo(c1: float, seed: int) -> tuple[bool, str]:
    config = _smm_gate(c1, 5, 0.02, 8.0)
    # draws the over-rotation branches (weight ~1.7e-4 per shot) ~17 000 times, so the
    # standard error is ~1% of P_L; a few dozen draws leave it at 20-30%
    shots = 10 ** 8
    rep = smm.effective_error_rate(config)
    mc1 = smm.monte_carlo(config, shots, seed)
    mc2 = smm.monte_carlo(config, shots, seed)
    if mc1 != mc2:
        return False, "Monte Carlo is not reproducible for a fixed seed"
    if mc1.p_l_se:
        pulls = abs(mc1.p_l_hat - rep.p_l) / mc1.p_l_se
    else:  # a sample without spread must hit P_L exactly
        pulls = 0.0 if mc1.p_l_hat == rep.p_l else math.inf
    return pulls <= 5.0, f"P_L pull {pulls:.2f} sigma over {shots} shots"


def switch_probability_bounds() -> tuple[bool, str]:
    for theta_l, theta_th in ((1e-3, 1e-3), (1e-3, 0.128), (1e-5, 0.05), (3e-4, 0.01)):
        p = 2.0 ** -smm.n_rus(theta_l, theta_th)
        if not (theta_l / (2 * theta_th) < p <= theta_l / theta_th + 1e-15):
            return False, f"p_switch {p} outside bounds for ratio {theta_th / theta_l}"
    return True, "2^-ceil(log2 r) within (theta_l/2theta_th, theta_l/theta_th]"


def hubbard_l1_norm() -> tuple[bool, str]:
    for length in range(3, 9):
        for t_hop, u_int in ((1.0, 4.0), (0.5, 2.0)):
            terms = hamcat.hubbard_terms(length, t_hop, u_int)
            lam = hamcat.l1_norm(terms)
            target = hamcat.hubbard_entry(t_hop, u_int, length).lam  # the lambda tepai prices
            if len(terms) != 9 * length ** 2 or not abs(lam - target) <= 1e-12:
                return False, f"L={length}: lambda {lam} vs {target}, {len(terms)} terms"
    return True, "term count 9L^2 and L1 norm (4t + U/4) L^2 for L in 3..8"


def bound_intercepts() -> tuple[bool, str]:
    grid = [0.0]
    v1 = mitigation.feasible_boundary("v1", 1e-5, grid)[0][1]
    v2 = mitigation.feasible_boundary("v2", 1e-5, grid)[0][1]
    cul = mitigation.feasible_boundary("ftqc-cultivation", 1e-5, grid)[0][1]
    n_syn = mitigation.synthesis_t_count(2e-9)
    expected = (3750.0, 6.25e7, 1.0 / ((n_syn + 1) * 2e-9))
    for got, want in zip((v1, v2, cul), expected):
        if not abs(got - want) <= 1e-6 * want:
            return False, f"intercept {got} vs expected {want}"
    return True, f"v1={v1:.6g}, v2={v2:.6g}, cultivation={cul:.6g}"


def timing_anchor(c1: float) -> tuple[bool, str]:
    clocks = []
    for theta_l in (1e-3, 1e-4, 1e-5, 1e-6):
        clocks.append(smm.effective_error_rate(_smm_gate(c1, 7, theta_l, 64.0)).expected_clocks)
    ok = all(2.5 <= c <= 3.5 for c in clocks)
    return ok, f"C_smm at ratio 64: {['%.3f' % c for c in clocks]}"


def c1_calibration(c1: float, supplied: float | None) -> tuple[bool, str]:
    # at run's calibration point, calibrate_c1's defaults, whose own check raised
    # (exit 4) on a cold cache; this one also holds a cached c1
    mean = smm.v2_octave_average(mitigation.V2_RUS_K, mitigation.P_PH, c1)
    target = mitigation.V2_RUS_FACTOR
    if not abs(mean - target) <= 1e-6:
        return False, f"c1 = {c1!r} gives an octave-averaged factor {mean!r}, not {target}"
    if supplied is not None and not abs(supplied - c1) <= 1e-6 * c1:
        return False, f"configured c1 {supplied!r} != calibrated {c1!r} (tampered?)"
    return True, f"c1 = {c1:.6f}, octave-averaged factor {mean:.6f}"


def run(seed: int, supplied_c1: float | None) -> Iterator[tuple[str, bool, str]]:
    """``(name, ok, detail)`` per check; a failed c1 calibration raises before the first."""
    c1 = smm.calibrate_c1()
    for check, args in (
        (tepai_identities, ()),
        (tepai_gate_count_minimum, ()),
        (channel_algebra, ()),
        (tmr_branch_table, ()),
        (pcec_residual_oracle, ()),
        (smm_enumeration_oracle, (c1,)),
        (smm_monte_carlo, (c1, seed)),
        (switch_probability_bounds, ()),
        (hubbard_l1_norm, ()),
        (bound_intercepts, ()),
        (timing_anchor, (c1,)),
        (c1_calibration, (c1, supplied_c1)),
    ):
        yield (check.__name__, *check(*args))
