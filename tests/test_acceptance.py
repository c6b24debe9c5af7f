"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
lines.  Criteria 1 and 2 exercise the leading-order (single error branch)
mode, which is the regime the asymptotic scaling statements describe;
criteria 3, 9 and 11 use the calibrated pass coefficient.
"""

import math

import numpy as np
import pytest

from starsmm import cli, hamcat, mitigation, smm, tepai, tmr


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def c1() -> float:
    return smm.calibrate_c1()


def _params(k: int, c1_val: float | None = None, p_ph: float = 1e-3) -> tmr.TmrParams:
    coeffs = () if c1_val is None else (c1_val,)
    return tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=coeffs)


def test_criterion_1_fixed_ratio_scaling():
    """alpha_RUS ~ theta_l^(1 - 2/k) at fixed ratio r = 128, p_m = 0."""
    details = []
    ok = True
    for k in (5, 7, 9):
        xs, ys = [], []
        for theta_l in np.geomspace(1e-8, 1e-4, 17):
            config = smm.SmmConfig(
                theta_l=float(theta_l), tmr_params=_params(k),
                threshold_ratio=128.0, p_m=0.0, include_higher_orders=False,
            )
            rep = smm.effective_error_rate(config)
            xs.append(math.log(theta_l))
            ys.append(math.log(rep.alpha_rus))
        slope = float(np.polyfit(xs, ys, 1)[0])
        target = 1.0 - 2.0 / k
        ok &= abs(slope - target) <= 0.05
        details.append(f"k={k}: slope {slope:.4f} (target {target:.4f})")
    _report(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_fixed_threshold_band():
    """alpha_RUS bounded at fixed theta_th: per-decade max/min <= 4."""
    details = []
    ok = True
    for k in (5, 7, 9):
        worst = 0.0
        for decade in range(-8, -4):
            alphas = []
            for j in range(9):
                theta_l = 10.0 ** (decade + j / 8.0)
                config = smm.SmmConfig(
                    theta_l=theta_l, tmr_params=_params(k),
                    theta_th=0.01, p_m=0.0, include_higher_orders=False,
                )
                alphas.append(smm.effective_error_rate(config).alpha_rus)
            worst = max(worst, max(alphas) / min(alphas))
        ok &= worst <= 4.0
        details.append(f"k={k}: max/min {worst:.3f}")
    _report(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_calibrated_bands(c1):
    """Calibrated SMM factor bands: [0.2, 0.4] at 0.05 and [0.05, 0.11] at 0.01."""
    bands = {0.05: (0.2, 0.4), 0.01: (0.05, 0.11)}
    details = []
    ok = True
    for theta_th, (band_lo, band_hi) in bands.items():
        alphas = []
        for theta_l in np.geomspace(1e-7, 1e-3, 33):
            if theta_l > theta_th:
                continue
            config = smm.SmmConfig(
                theta_l=float(theta_l), tmr_params=_params(7, c1),
                theta_th=theta_th, p_m=0.0,
            )
            alphas.append(smm.effective_error_rate(config).alpha_rus)
        lo, hi = min(alphas), max(alphas)
        ok &= band_lo * 0.8 <= lo and hi <= band_hi * 1.2
        details.append(
            f"theta_th={theta_th}: [{lo:.3f}, {hi:.3f}] vs "
            f"[{band_lo}, {band_hi}] +-20%"
        )
    _report(3, ok, "; ".join(details))
    assert ok


def _oracle_enumerate(config: smm.SmmConfig) -> tuple[float, float]:
    """Independent exact enumeration over trajectory branches.

    Tracks the full distribution of accumulated angle deviations through
    every (gate branch, canceller branch) pair of every trial, merging
    equal deviations and pruning branches below 1e-18 probability (far
    under the comparison bound).  Uses only the branch tables.  Returns
    the exact mean and second moment of the per-shot estimator, so the
    sampler can be checked against error bars that are themselves exact.
    """
    theta_l = abs(config.theta_l)
    n = smm.n_rus(theta_l, config.resolved_threshold())
    rep = smm.effective_error_rate(config)
    p_dig = rep.p_digital

    mean = second = 0.0
    dist = {0.0: 1.0}  # accumulated deviation -> probability
    for i in range(n):
        model = tmr.output_model_for_logical(config.tmr_params, 2.0 ** i * theta_l)
        deltas = [t - (2.0 ** i * theta_l) for t in model.branch_thetas]
        qbars = model.branch_qbars
        new: dict[float, float] = {}
        for acc, p_acc in dist.items():
            for qg, dg in zip(qbars, deltas):
                for qc, dc in zip(qbars, deltas):
                    p = p_acc * qg * qc
                    if p < 1e-18:
                        continue
                    key = round(acc + dg - dc, 14)
                    new[key] = new.get(key, 0.0) + p
        dist = new
        # success at trial i+1 with probability 2^-(i+1)
        w = 2.0 ** -(i + 1)
        for acc, p in dist.items():
            x = math.sin(acc) ** 2
            mean += w * p * x
            second += w * p * x * x
    # digital branch: analog deviation plus stochastic flip at rate p_dig
    w = 2.0 ** (-n)
    for acc, p in dist.items():
        s2 = math.sin(acc) ** 2
        x = (1 - p_dig) * s2 + p_dig * (1.0 - s2)
        mean += w * p * x
        second += w * p * x * x
    return mean, second


def test_criterion_4_oracle_equivalence():
    """Analytic P_L vs exact enumeration and vs 1e6-shot Monte Carlo.

    The 4-sigma gate uses the exact per-shot standard deviation from the
    enumeration (the sample-based error bar is noisy when the estimator is
    dominated by a few hundred rare events).
    """
    shots = 10 ** 6
    worst_enum_ratio = 0.0
    worst_mc_pull = 0.0
    ok = True
    seed = 20250808
    for k in (3, 5, 7):
        for theta_l in (0.002, 0.005, 0.01):
            for ratio in (2.0, 8.0, 32.0):
                config = smm.SmmConfig(
                    theta_l=theta_l, tmr_params=_params(k),
                    threshold_ratio=ratio,
                )
                rep = smm.effective_error_rate(config)
                exact, second = _oracle_enumerate(config)
                q_max = max(
                    tmr.output_model_for_logical(
                        config.tmr_params, row.theta_rus
                    ).error_weight()
                    for row in rep.trials
                )
                bound = 10.0 * q_max ** 2
                enum_ok = abs(rep.p_l - exact) <= bound
                worst_enum_ratio = max(worst_enum_ratio, abs(rep.p_l - exact) / bound)

                mc = smm.monte_carlo(config, shots, seed=seed)
                sigma = math.sqrt((second - exact * exact) / shots)
                pull = abs(mc.p_l_hat - rep.p_l) / sigma
                worst_mc_pull = max(worst_mc_pull, pull)
                ok &= enum_ok and pull <= 4.0
                seed += 1
    _report(
        4, ok,
        f"27 configs: worst |analytic-enum|/bound {worst_enum_ratio:.3f}, "
        f"worst MC pull {worst_mc_pull:.2f} sigma (exact error bars)",
    )
    assert ok


def test_criterion_5_tepai_identities():
    """Gate-count identity (1e-10), overhead e^Q (1e-12), min 2 sqrt(2) lambda T."""
    worst_gate = worst_gamma = 0.0
    for lam_t in np.geomspace(1.0, 1e5, 9):
        for q in (0.1, 0.5, 1.0, 2.0, 5.0):
            delta = tepai.select_angle(lam_t, q)
            closed = 2.0 * lam_t ** 2 / q + q
            worst_gate = max(
                worst_gate, abs(tepai.gate_count(lam_t, delta) - closed) / closed
            )
            gamma_sq = tepai.sampling_overhead(lam_t, delta)
            worst_gamma = max(worst_gamma, abs(gamma_sq - math.exp(q)) / math.exp(q))
    lam_t = 17.0
    floor = 2.0 * math.sqrt(2.0) * lam_t
    grid_ok = all(
        tepai.gate_count(lam_t, d) >= floor - 1e-9
        for d in np.linspace(1e-3, math.pi / 2 - 1e-3, 2001)
    )
    d_star = math.atan(1.0 / math.sqrt(2.0))
    min_ok = abs(tepai.gate_count(lam_t, d_star) - floor) / floor < 1e-12
    ok = worst_gate < 1e-10 and worst_gamma < 1e-12 and grid_ok and min_ok
    _report(
        5, ok,
        f"gate identity {worst_gate:.2e}, overhead identity {worst_gamma:.2e}, "
        f"minimum at tan(delta)=1/sqrt(2): {min_ok}",
    )
    assert ok


def test_criterion_6_fes_headline():
    """[4Fe-4S] at T = 10: d = 23, 179 patches, ~1.9e5 qubits, <= 7 days."""
    instance = tepai.TepaiInstance(
        lam=137.8, t=10.0, n_l=72, epsilon=0.05, q=1.0, p_ph=1e-3,
        c_smm=3.0, alpha_model=0.1,
    )
    est = tepai.estimate(instance)
    qubit_dev = abs(est.physical_qubits - 1.9e5) / 1.9e5
    days = est.total_seconds / 86400.0
    ok = (
        est.d == 23
        and est.n_patch == 179
        and qubit_dev <= 0.05
        and est.total_seconds <= 7 * 86400.0
    )
    _report(
        6, ok,
        f"d={est.d}, N_patch={est.n_patch}, qubits={est.physical_qubits} "
        f"({qubit_dev * 100:.2f}% from 1.9e5), total {days:.2f} days",
    )
    assert ok


def test_criterion_7_hubbard_l1():
    """Periodic Hubbard terms: sum|c| = (4t + U/4) L^2 and 9 L^2 terms, L in 3..12."""
    ok = True
    for length in range(3, 13):
        for t_hop, u_int in ((1.0, 4.0), (0.25, 8.0)):
            terms = hamcat.hubbard_terms(length, t_hop, u_int)
            expected = (4.0 * t_hop + u_int / 4.0) * length ** 2
            ok &= len(terms) == 9 * length ** 2
            ok &= abs(hamcat.l1_norm(terms) - expected) <= 1e-12 * expected
    _report(7, ok, "L in 3..12, two (t, U) settings, exact L1 norm and term count")
    assert ok


def test_criterion_8_feasibility_intercepts(c1):
    """N_R intercepts at N_T = 0, theta* = 1e-5; v3 >= 10x v2."""
    grid = [0.0]
    v1 = mitigation.feasible_boundary("v1", 1e-5, grid)[0][1]
    v2 = mitigation.feasible_boundary("v2", 1e-5, grid)[0][1]
    cul = mitigation.feasible_boundary("ftqc-cultivation", 1e-5, grid)[0][1]
    alpha = tepai.smm_alpha_provider(1e-3, c1=c1)
    v3 = mitigation.feasible_boundary("v3", 1e-5, grid, alpha_model=alpha)[0][1]
    cul_expected = 1.0 / ((mitigation.synthesis_t_count(2e-9) + 1) * 2e-9)
    ok = (
        abs(v1 - 3750.0) <= 1e-6 * 3750.0
        and abs(v2 - 6.25e7) <= 1e-6 * 6.25e7
        and abs(cul - cul_expected) <= 1e-6 * cul_expected
        and v3 >= 10.0 * v2
    )
    _report(
        8, ok,
        f"v1={v1:.6g}, v2={v2:.6g}, cultivation={cul:.6g} "
        f"(closed form {cul_expected:.6g}), v3={v3:.3g} ({v3 / v2:.1f}x v2)",
    )
    assert ok


def test_criterion_9_tradeoff_dominance(c1):
    """Best SMM gate at theta_l = 1e-5 beats synthesis-only by >= 100x / >= 50x.

    Checked in the strong single-configuration sense: one threshold setting
    must clear both factors at once against the standard comparator
    (synthesis at the accuracy the magic states allow, delta = p_m).
    """
    syn_p_l, syn_clocks = smm.synthesis_only_gate(delta=2e-9)
    rows = []
    for n in range(0, 16):
        theta_th = 2.0 ** n * 1e-5
        if theta_th > smm.MAX_THRESHOLD:
            break
        config = smm.SmmConfig(
            theta_l=1e-5, tmr_params=_params(7, c1), theta_th=theta_th,
            timing_mode="latency",
        )
        rep = smm.effective_error_rate(config)
        rows.append((n, syn_clocks / rep.expected_clocks, syn_p_l / rep.p_l))
    best = max(rows, key=lambda r: min(r[1] / 100.0, r[2] / 50.0))
    ok = best[1] >= 100.0 and best[2] >= 50.0
    _report(
        9, ok,
        f"n={best[0]}: time factor {best[1]:.0f}x (>=100), "
        f"error factor {best[2]:.0f}x (>=50); "
        f"per-metric bests {max(r[1] for r in rows):.0f}x / "
        f"{max(r[2] for r in rows):.0f}x",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI command re-run with the same config and seed is byte-identical."""
    configs = {
        "alpha-sweep": (
            "[alpha_sweep]\nmode = fixed_ratio\nratio = 128\n"
            "theta_l_min = 1e-6\ntheta_l_max = 1e-5\npoints_per_decade = 2\n"
            "k = 7\np_m = 0\n"
        ),
        "tradeoff": "[tradeoff]\ntheta_l = 1e-5\nn_max = 6\nk = 7\n",
        "bound": "[bound]\nalpha_v3 = 0.1\nn_t_max = 1e8\npoints_per_decade = 1\n",
        "tepai": "[tepai]\nsystems = 4Fe-4S\nt = 10\nalpha = 0.1\n",
        "verify": "[verify]\n",
    }
    ok = True
    for command, cfg_text in configs.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(cfg_text)
        outputs = []
        for run in ("x", "y"):
            out = tmp_path / f"{command}-{run}"
            out.mkdir()
            code = cli.main(
                [command, "--config", str(cfg_path), "--out", str(out), "--seed", "42"]
            )
            ok &= code == 0
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        ok &= outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(10, ok, f"{len(configs)} commands re-run byte-identically")
    assert ok


def test_criterion_11_two_orders_in_both(c1):
    """For theta_l in {1e-5, 1e-6, 1e-7}, one threshold beats synthesis-only >= 100x in both.

    PAPER.md: for theta_L <~ 1e-5 the protocol cuts both the execution time
    and the error rate by two orders of magnitude.  Per angle, one threshold
    2^n theta_L (n <= 15) must clear both factors at once, at k = 7, the
    calibrated c1, p_m = 2e-9 and latency timing, against synthesis at
    delta = p_m.  At 1e-4 the best is about 41x / 26x, and the paper claims
    nothing there.
    """
    syn_p_l, syn_clocks = smm.synthesis_only_gate(delta=2e-9)
    angles, ns = (1e-5, 1e-6, 1e-7), np.arange(16)
    theta_l = np.repeat(angles, len(ns))
    thresholds = np.ldexp(theta_l, np.tile(ns, len(angles)))
    rates = smm.error_rates(_params(7, c1), theta_l, thresholds, p_m=2e-9, timing_mode="latency")
    factors = zip((syn_clocks / rates.expected_clocks).reshape(len(angles), -1),
                  (syn_p_l / rates.p_l).reshape(len(angles), -1))
    ok, details = True, []
    for theta, (time_x, error_x) in zip(angles, factors):
        n = int(np.argmax(np.minimum(time_x, error_x)))
        ok &= bool(time_x[n] >= 100.0 and error_x[n] >= 100.0)
        details.append(f"theta_L={theta:g}: n={n}, {time_x[n]:.0f}x / {error_x[n]:.0f}x")
    _report(11, ok, "time / error factors (>=100 both): " + "; ".join(details))
    assert ok
