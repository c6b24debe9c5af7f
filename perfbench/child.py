"""Child-process entry of the benchmark; each call runs in a fresh interpreter.

    child.py cli <trace.json> <cli args...>   a CLI command with layer spans
    child.py oracle <seed> <out.json> [<trace.json>]
                                              Monte Carlo cases + enumeration
    child.py probe <seed> <out.json> <root>   warm per-call timings, Monte Carlo cases
    child.py cold <out.json>                  one cold calibrate_c1
    child.py counts <out.json>                calls made by one calibrate_c1

The benchmark sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads


def _dump(path: str, data) -> None:
    Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")


def run_cli(trace_path: str, argv: list[str]) -> int:
    log = tracer.SpanLog()
    tracer.install(log)
    import starsmm.cli

    tracer.patch_layers(log)
    main = log.wrap("cli", starsmm.cli.main)
    try:
        return main(argv)
    finally:
        _dump(trace_path, log.summary())


def _layers(trace_path: str | None):
    """The layer modules, through span proxies when tracing."""
    log = None
    if trace_path:
        log = tracer.SpanLog()
        tracer.install(log)
    import starsmm  # noqa: F401  (imports every layer)

    if log is None:  # every layer but cli, which the package does not import
        return {name: sys.modules[f"starsmm.{name}"] for name in tracer.LAYERS[:-1]}, None
    return tracer.patch_layers(log), log


def mc_case(smm, tmr, name: str, n: int, k: int, seed: int) -> dict:
    params = tmr.TmrParams(k=k, p_ph=workloads.P_PH, pass_coeffs=(workloads.C1_K7,))
    config = smm.SmmConfig(theta_l=workloads.mc_theta(n), tmr_params=params,
                           threshold_ratio=float(2 ** n))
    analytic = smm.effective_error_rate(config).p_l
    start = perf_counter()
    rep = smm.monte_carlo(config, workloads.MC_SHOTS, workloads.mc_seed(seed, name))
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "estimates": [rep.p_l_hat, rep.p_l_se, rep.clocks_hat, rep.clocks_se,
                      rep.p_switch_hat, rep.p_switch_se],
        "pull": (rep.p_l_hat - analytic) / rep.p_l_se if rep.p_l_se else 0.0,
        "rse": rep.p_l_se / analytic,
    }


def run_oracle(seed: int, out_path: str, trace_path: str | None) -> int:
    mods, log = _layers(trace_path)
    smm, tmr = mods["smm"], mods["tmr"]
    mc = {name: mc_case(smm, tmr, name, n, k, seed) for name, n, k in workloads.MC_CASES}
    # bit-for-bit: one seeded case again in the same process
    name, n, k = workloads.MC_CASES[seed % len(workloads.MC_CASES)]
    again = mc_case(smm, tmr, name, n, k, seed)

    start = perf_counter()
    worst, failures = 0.0, []
    for k, theta_l, ratio in workloads.enum_grid(seed):
        params = tmr.TmrParams(k=k, p_ph=workloads.P_PH, pass_coeffs=(workloads.C1_K7,))
        config = smm.SmmConfig(theta_l=theta_l, tmr_params=params, threshold_ratio=ratio)
        rep = smm.effective_error_rate(config)
        exact = smm.enumerate_error_rate(config)
        q_max = max(tmr.output_model_for_logical(params, row.theta_rus).error_weight()
                    for row in rep.trials)
        bound = 10.0 * q_max ** 2
        gap = abs(rep.p_l - exact)
        worst = max(worst, gap / bound)
        if gap > bound:
            failures.append([k, theta_l, ratio, rep.p_l, exact, bound])
    result = {
        "mc": mc,
        "repeat": {"case": name, "same": again["estimates"] == mc[name]["estimates"]},
        "enum": {"configs": len(workloads.enum_grid(seed)), "worst": worst,
                 "failures": failures, "seconds": perf_counter() - start},
    }
    if log is not None:
        result["trace"] = log.summary()
    _dump(out_path, result)
    return 0


def per_call_us(fn, budget: float = 0.02, repeats: int = 7) -> float:
    """Median over batches of the warm per-call time, in microseconds."""
    fn()
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - start >= budget:
            break
        loops *= 2
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn()
        times.append((perf_counter() - start) / loops)
    return statistics.median(times) * 1e6


def run_probe(seed: int, out_path: str, root: Path) -> int:
    from starsmm import cli, hamcat, mitigation, pcec, smm, tepai, tmr, zchan

    c1, p_ph = workloads.C1_K7, workloads.P_PH
    p7 = tmr.TmrParams(k=7, p_ph=p_ph, pass_coeffs=(c1,))
    p9 = tmr.TmrParams(k=9, p_ph=p_ph, pass_coeffs=(c1,))
    model = tmr.output_model_for_logical(p7, 1e-3)
    mix_a = zchan.mixture([(0.98, 0.0), (0.01, 0.3), (0.01, -0.3)])
    mix_b = zchan.mixture([(0.9, 0.1), (0.05, 0.2), (0.05, -0.4)])
    n3 = smm.SmmConfig(theta_l=1e-5, tmr_params=p7, threshold_ratio=8.0)
    n15 = smm.SmmConfig(theta_l=1e-5, tmr_params=p7, threshold_ratio=2.0 ** 15)
    enum_cfg = smm.SmmConfig(theta_l=0.02, tmr_params=tmr.TmrParams(k=5, p_ph=p_ph, pass_coeffs=(c1,)),
                             threshold_ratio=8.0)
    alpha = tepai.smm_alpha_provider(p_ph, c1=c1)
    n_t_grid = [10.0 ** (i / 4.0) for i in range(41)]
    molecule = hamcat.molecule("4Fe-4S")
    instance = tepai.TepaiInstance(lam=molecule.lam, t=10.0, n_l=molecule.n_l, alpha_model=0.1)
    config_path = str(root / "configs" / "alpha_fixed_ratio.cfg")

    metrics = {
        "tmr.physical_angle_for.us": per_call_us(lambda: tmr.physical_angle_for(1e-5, 7)),
        "tmr.branch_weights.us": per_call_us(lambda: tmr.branch_weights(p9, 0.1)),
        "pcec.residual_rate.us": per_call_us(lambda: pcec.residual_rate(model)),
        "zchan.compose.us": per_call_us(lambda: zchan.compose(mix_a, mix_b)),
        "smm.effective_error_rate.n3.us": per_call_us(lambda: smm.effective_error_rate(n3)),
        "smm.effective_error_rate.n15.us": per_call_us(lambda: smm.effective_error_rate(n15)),
        "smm.enumerate_error_rate.us": per_call_us(lambda: smm.enumerate_error_rate(enum_cfg)),
        "mitigation.feasible_boundary.us": per_call_us(
            lambda: mitigation.feasible_boundary("v3", 1e-5, n_t_grid, alpha_model=alpha)),
        "tepai.estimate.us": per_call_us(lambda: tepai.estimate(instance)),
        "hamcat.hubbard_terms.L10.us": per_call_us(lambda: hamcat.hubbard_terms(10, 1.0, 4.0)),
        "cli.load_config.us": per_call_us(lambda: cli.load_config(config_path)),
    }
    mc = {name: mc_case(smm, tmr, name, n, k, seed) for name, n, k in workloads.MC_CASES}
    for n in (3, 17):
        cases = [v for (name, m, _), v in zip(workloads.MC_CASES, mc.values()) if m == n]
        metrics[f"smm.monte_carlo.n{n}.shots_per_s"] = (
            len(cases) * workloads.MC_SHOTS / sum(c["seconds"] for c in cases))
    _dump(out_path, {"metrics": metrics, "mc": mc})
    return 0


def run_cold(out_path: str) -> int:
    from starsmm import smm

    start = perf_counter()
    c1 = smm.calibrate_c1(k=7, p_ph=workloads.P_PH)
    _dump(out_path, {"seconds": perf_counter() - start, "c1": c1})
    return 0


def run_counts(out_path: str) -> int:
    from starsmm import smm, tmr

    counts = {"smm.v2_rus_factor.calls": 0, "tmr.output_model_for_logical.calls": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    smm.v2_rus_factor = counted("smm.v2_rus_factor.calls", smm.v2_rus_factor)
    tmr.output_model_for_logical = counted(
        "tmr.output_model_for_logical.calls", tmr.output_model_for_logical)
    c1 = smm.calibrate_c1(k=7, p_ph=workloads.P_PH)
    _dump(out_path, {"counts": counts, "c1": c1})
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "oracle":
        return run_oracle(int(rest[0]), rest[1], rest[2] if len(rest) > 2 else None)
    if mode == "probe":
        return run_probe(int(rest[0]), rest[1], Path(rest[2]))
    if mode == "cold":
        return run_cold(rest[0])
    if mode == "counts":
        return run_counts(rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
