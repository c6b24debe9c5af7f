"""Command-line surface: sweeps, bounds, resource tables and verification.

Subcommands (all read a sectioned key = value config):

* ``alpha-sweep``: RUS factor and effective error rate over a theta_l grid.
* ``tradeoff``: error rate versus expected clocks for threshold settings,
  with pure-synthesis comparator rows.
* ``bound``: feasible-circuit-size frontiers (P_total = 1) per architecture.
* ``tepai``: TE-PAI spacetime resource tables plus a JSON summary.
* ``verify``: run the internal oracle suite; exit 0 iff every check passes.

Flags: ``--config <path>``, ``--seed <u64>``, ``--out <dir>``.  Each
command writes its rows in grid order; ``alpha-sweep`` and ``tradeoff``
compute them as arrays with ``smm.error_rates``.  Outputs are
CSV with 17-significant-digit floats and are byte-identical across runs for
a fixed config and seed.  Exit codes: 0 success, 1 verification failure,
2 config error, 3 solver failure, 4 model error (a library ValueError on
input the config checks let through, or, in ``tepai``, a float overflow,
underflow or division by zero).
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import hamcat, mitigation, pcec, smm, tepai, tmr, zchan


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.16e}"


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "alpha_sweep": {
        "mode", "ratio", "theta_th", "theta_l_min", "theta_l_max",
        "points_per_decade", "k", "p_ph", "p_m", "c1", "higher_orders",
    },
    "tradeoff": {
        "theta_l", "n_max", "k", "p_ph", "p_m", "c1", "delta_sweep",
    },
    "bound": {
        "theta_star", "p_ph", "p_m", "alpha_v3", "n_t_min", "n_t_max",
        "points_per_decade", "architectures",
    },
    "tepai": {
        "systems", "t", "q", "epsilon", "p_ph", "c_smm", "alpha",
        "lam_grid", "n_l", "hubbard_t", "hubbard_u",
    },
    "verify": {"c1"},
}


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def _check_bounds(
    section, key, raw, values, minimum=None, maximum=None, above=None, below=None
) -> None:
    """Raise a ConfigError naming the key unless every value is finite and within the bounds."""
    for value in values:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be finite")
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be >= {minimum}")
        if above is not None and value <= above:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be > {above}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be <= {maximum}")
        if below is not None and value >= below:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be < {below}")


def _boolean(token: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[token.lower()]


_KINDS = {int: "an integer", float: "a number",
          _boolean: f"a boolean ({'/'.join(configparser.ConfigParser.BOOLEAN_STATES)})"}


def _get_value(
    cfg, section, key, default=None, *, cast=float, words=(), many=False, required=False,
    **bounds,
):
    """[section] key converted by ``cast`` and checked by :func:`_check_bounds`.

    ``words`` are the names the key accepts, or a mapping from each name to
    its value; ``cast=None`` accepts only those.  ``many`` reads a non-empty
    comma-separated list.  Only numbers are bounds-checked.  Returns
    ``default`` when the key is unset.
    """
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    raw = cfg.get(section, key)
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()] if many else [raw]
    if not tokens:
        raise ConfigError(f"[{section}] {key} = {raw!r} must list at least one value")
    names = words if isinstance(words, dict) else {word: word for word in words}
    try:
        values = [names[tok] if tok in names or cast is None else cast(tok) for tok in tokens]
    except (ValueError, KeyError) as exc:
        if cast is None:
            what = ("a list of " if many else "one of ") + ", ".join(map(repr, names))
        else:
            what = " or ".join([_KINDS[cast] + (" list" if many else ""), *map(repr, names)])
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from exc
    numbers = [value for value in values if isinstance(value, (int, float))]
    _check_bounds(section, key, raw, numbers, **bounds)
    return values if many else values[0]


def _log_grid(
    section: str, lo_key: str, hi_key: str, lo: float, hi: float, points_per_decade: int
) -> list[float]:
    """Log-spaced grid over [lo, hi] (lo > 0); the keys name the bounds in errors."""
    if hi < lo:
        raise ConfigError(f"[{section}] {lo_key} = {lo!r} must be <= {hi_key} = {hi!r}")
    span = math.log10(hi) - math.log10(lo)  # hi / lo itself can overflow
    n = max(int(round(span * points_per_decade)), 0) + 1
    if n < 2:
        return [lo]
    step = span / (n - 1)
    return [10.0 ** (math.log10(lo) + i * step) for i in range(n)]


def _get_c1(cfg, section) -> float | None:
    """The configured c1, or None for 'calibrated' (the default)."""
    return _get_value(cfg, section, "c1", words={"calibrated": None}, minimum=0.0)


def _get_p_ph(cfg, section) -> float:
    """[section] p_ph in [0, 0.1]; calibrating c1 needs p_ph > 0."""
    above = 0.0 if _get_c1(cfg, section) is None else None
    return _get_value(
        cfg, section, "p_ph", 1e-3, minimum=0.0, maximum=tmr.MAX_P_PH, above=above
    )


def _calibrate_c1(section, k: int, p_ph: float) -> float:
    """``smm.calibrate_c1``; a failure becomes a ValueError naming [section] p_ph and k."""
    try:
        return smm.calibrate_c1(k=k, p_ph=p_ph)
    except ValueError as exc:
        raise ValueError(f"[{section}] p_ph = {p_ph!r}, k = {k}: calibrating c1: {exc}") from exc


def _resolve_c1(cfg, section, k: int, p_ph: float) -> float:
    c1 = _get_c1(cfg, section)
    return _calibrate_c1(section, k, p_ph) if c1 is None else c1


def _get_alpha(cfg, section, key, p_ph: float, **smm_setup) -> float | mitigation.AlphaModel:
    """A constant RUS factor, or the SMM analytics for the value 'smm'."""
    alpha = _get_value(cfg, section, key, 0.1, words={"smm": None}, above=0.0)
    if alpha is None:
        c1 = _calibrate_c1(section, tepai.SMM_K, p_ph)
        return tepai.smm_alpha_provider(p_ph, c1=c1, **smm_setup)
    return alpha


def _error_rates(section, k: int, params, theta_l, theta_th, **setup) -> smm.SweepRates:
    """``smm.error_rates``; a failure becomes a ValueError naming [section] and k.

    Every gate ``smm.in_domain`` accepts evaluates, and ``smm.error_rates`` names
    the first gate it cannot finish (a synthesis accuracy delta of 1 or more).
    """
    try:
        return smm.error_rates(params, theta_l, theta_th, **setup)
    except ValueError as exc:
        raise ValueError(f"[{section}] k = {k}: {exc}") from exc


# ---------------------------------------------------------------------------
# alpha-sweep
# ---------------------------------------------------------------------------

def cmd_alpha_sweep(cfg, out_dir: Path, seed: int) -> int:
    section = "alpha_sweep"
    mode = _get_value(cfg, section, "mode", cast=None, words=("fixed_ratio", "fixed_threshold"),
                      required=True)
    ratio = _get_value(cfg, section, "ratio", required=mode == "fixed_ratio", minimum=1.0)
    theta_th = _get_value(
        cfg, section, "theta_th", required=mode == "fixed_threshold",
        above=0.0, maximum=smm.MAX_THRESHOLD,
    )
    lo = _get_value(cfg, section, "theta_l_min", 1e-8, above=0.0)
    hi = _get_value(cfg, section, "theta_l_max", 1e-4, above=0.0)
    ppd = _get_value(cfg, section, "points_per_decade", 8, cast=int, minimum=1)
    ks = _get_value(cfg, section, "k", [5, 7, 9], cast=int, many=True,
                    minimum=2, maximum=tmr.MAX_K)
    p_ph = _get_p_ph(cfg, section)
    p_m = _get_value(cfg, section, "p_m", 0.0, minimum=0.0, maximum=smm.MAX_P_M)
    higher = _get_value(cfg, section, "higher_orders", True, cast=_boolean)
    grid = _log_grid(section, "theta_l_min", "theta_l_max", lo, hi, ppd)

    grid_th = ratio * np.array(grid) if mode == "fixed_ratio" else np.full(len(grid), theta_th)
    keep = smm.in_domain(grid, grid_th)
    grid_in, thresholds = list(itertools.compress(grid, keep)), grid_th[keep]
    if not grid_in:
        raise ConfigError(f"[{section}] no theta_L in [theta_l_min, theta_l_max] = [{lo}, {hi}] "
                          "has theta_L <= theta_th <= pi/8")
    skipped = (len(grid) - len(grid_in)) * len(ks)
    if skipped:
        print(f"alpha-sweep: skipped {skipped} rows without theta_L <= theta_th <= pi/8",
              file=sys.stderr)

    setup = dict(p_m=p_m, include_higher_orders=higher)
    rows = []
    for k in ks:
        params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(_resolve_c1(cfg, section, k, p_ph),))
        rates = _error_rates(section, k, params, grid_in, thresholds, **setup)
        for theta_l, threshold, alpha, p_l, flag in zip(
            grid_in, thresholds, rates.alpha_rus, rates.p_l, rates.out_of_regime
        ):
            if not math.isfinite(alpha):
                print(f"alpha-sweep: [{section}] row theta_L = {theta_l!r}, k = {k}: "
                      f"alpha_rus = P_L / (theta_L p_ph) is {alpha}", file=sys.stderr)
            rows.append((theta_l, k, threshold, p_m, alpha, p_l, flag))
    _write_csv(
        out_dir / "alpha_sweep.csv",
        ["theta_L", "k", "theta_th", "p_m", "alpha_rus", "P_L", "out_of_regime_flag"],
        rows,
    )
    print(f"alpha-sweep: wrote {len(rows)} rows to {out_dir / 'alpha_sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def cmd_tradeoff(cfg, out_dir: Path, seed: int) -> int:
    section = "tradeoff"
    theta_ls = _get_value(cfg, section, "theta_l", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7], many=True)
    if 0.0 in theta_ls:
        # negative angles are fine: the model is mirror-symmetric
        raw = cfg.get(section, "theta_l")
        raise ConfigError(f"[{section}] theta_l = {raw!r} must be non-zero")
    n_max = _get_value(cfg, section, "n_max", 15, cast=int, minimum=0)
    k = _get_value(cfg, section, "k", 7, cast=int, minimum=2, maximum=tmr.MAX_K)
    p_ph = _get_p_ph(cfg, section)
    p_m = _get_value(cfg, section, "p_m", 2e-9, minimum=0.0, maximum=smm.MAX_P_M)
    params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(_resolve_c1(cfg, section, k, p_ph),))

    deltas = _get_value(cfg, section, "delta_sweep", [], above=0.0, below=1.0, many=True)
    if not deltas:
        d = max(p_m, 1e-12)
        while d < 1e-4:
            deltas.append(d)
            d *= 4.0

    # every threshold 2^n |theta_L| in smm.in_domain evaluates; none is past n = 1074 (least float)
    with np.errstate(over="ignore"):  # an overflowing threshold is inf, outside the domain
        ladder = np.ldexp(np.abs(theta_ls)[:, None], np.arange(min(n_max, 1074) + 1))
    keep = smm.in_domain(np.array(theta_ls)[:, None], ladder)
    row_theta, row_n = np.nonzero(keep)  # row-major: each theta_L's rows in order of n
    rates = _error_rates(section, k, params, np.array(theta_ls)[row_theta], ladder[keep],
                         p_m=p_m, timing_mode="latency")
    smm_rows = zip(row_n.tolist(), rates.p_l, rates.expected_clocks)

    synthesis = [smm.synthesis_only_gate(delta=delta, p_m=p_m) for delta in deltas]
    rows = []
    for theta_l, count in zip(theta_ls, keep.sum(axis=1).tolist()):
        rows.extend((theta_l,) + cells for cells in itertools.islice(smm_rows, count))
        rows.extend((theta_l, -(j + 1)) + gate for j, gate in enumerate(synthesis))
    _write_csv(
        out_dir / "tradeoff.csv",
        ["theta_L", "n", "P_L", "expected_clocks"],
        rows,
    )
    print(f"tradeoff: wrote {len(rows)} rows to {out_dir / 'tradeoff.csv'}")
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(cfg, out_dir: Path, seed: int) -> int:
    section = "bound"
    architectures = _get_value(
        cfg, section, "architectures", list(mitigation.ARCHITECTURES),
        cast=None, words=mitigation.ARCHITECTURES, many=True,
    )
    theta_star = _get_value(cfg, section, "theta_star", 1e-5, above=0.0, maximum=tmr.MAX_THETA)
    p_ph = _get_value(cfg, section, "p_ph", 1e-3, above=0.0, maximum=tmr.MAX_P_PH)
    # the cultivation variant synthesizes its rotations at accuracy p_m
    above = 0.0 if "ftqc-cultivation" in architectures else None
    p_m = _get_value(cfg, section, "p_m", 2e-9, minimum=0.0, maximum=smm.MAX_P_M, above=above)
    lo = _get_value(cfg, section, "n_t_min", 1.0, above=0.0)
    hi = _get_value(cfg, section, "n_t_max", 1e10, above=0.0)
    ppd = _get_value(cfg, section, "points_per_decade", 4, cast=int, minimum=1)
    alpha_model = _get_alpha(cfg, section, "alpha_v3", p_ph, p_m=p_m)

    grid = _log_grid(section, "n_t_min", "n_t_max", lo, hi, ppd)
    rows = []
    for arch in architectures:
        try:
            curve = mitigation.feasible_boundary(
                arch, theta_star, grid, p_ph=p_ph, p_m=p_m, alpha_model=alpha_model
            )
        except ValueError as exc:  # e.g. a rotation cost rate that underflows to 0
            raise ValueError(
                f"[{section}] theta_star = {theta_star!r}, architecture {arch}: {exc}"
            ) from exc
        rows.extend((arch, n_t, n_r) for n_t, n_r in curve)
    _write_csv(out_dir / "bound.csv", ["architecture", "N_T", "N_R"], rows)
    print(f"bound: wrote {len(rows)} rows to {out_dir / 'bound.csv'}")
    return 0


# ---------------------------------------------------------------------------
# tepai
# ---------------------------------------------------------------------------

def _tepai_systems(cfg) -> list[tuple[str, float, int]]:
    """(name, lambda, N_L) rows from system names and/or a lambda grid."""
    section = "tepai"
    systems = []
    for token in _get_value(cfg, section, "systems", [], cast=str, many=True):
        if token.startswith("hubbard:"):
            t_hop = _get_value(cfg, section, "hubbard_t", 1.0, minimum=0.0)
            u_int = _get_value(cfg, section, "hubbard_u", 4.0, minimum=0.0)
            try:
                length = int(token.split(":", 1)[1])
                entry = hamcat.hubbard_entry(t_hop, u_int, length)
            except ValueError as exc:
                raise ConfigError(
                    f"[tepai] systems: {token!r} needs an integer lattice size L >= 3"
                ) from exc
            systems.append((f"hubbard-{length}x{length}", entry.lam, entry.n_l))
        else:
            try:
                entry = hamcat.molecule(token)
            except KeyError as exc:
                raise ConfigError(f"[{section}] systems: {exc.args[0]}") from exc
            systems.append((entry.name, entry.lam, entry.n_l))
    lam_grid = _get_value(cfg, section, "lam_grid", [], many=True)
    if lam_grid:
        grid_raw = cfg.get(section, "lam_grid")
        if len(lam_grid) != 3:
            raise ConfigError(
                f"[{section}] lam_grid = {grid_raw!r} must be 'min,max,points_per_decade'"
            )
        _check_bounds(section, "lam_grid", grid_raw, lam_grid[:2], above=0.0)
        if not (lam_grid[2] >= 1 and lam_grid[2].is_integer()):
            raise ConfigError(
                f"[tepai] lam_grid points_per_decade = {lam_grid[2]!r} must be an integer >= 1"
            )
        n_l = _get_value(cfg, section, "n_l", cast=int, required=True, minimum=1)
        lo, hi, ppd = lam_grid
        for lam in _log_grid(section, "lam_grid min", "max", lo, hi, int(ppd)):
            systems.append((f"lambda={lam:.6g}", lam, n_l))
    if not systems:
        raise ConfigError(f"[{section}] systems: no target system (set systems or lam_grid)")
    return systems


def cmd_tepai(cfg, out_dir: Path, seed: int) -> int:
    section = "tepai"
    times = _get_value(cfg, section, "t", required=True, above=0.0, many=True)
    q = _get_value(cfg, section, "q", 1.0, above=0.0)
    eps = _get_value(cfg, section, "epsilon", 0.05, above=0.0, below=1.0)
    p_ph = _get_value(cfg, section, "p_ph", 1e-3, above=0.0, below=tepai.P_THRESHOLD)
    c_smm = _get_value(cfg, section, "c_smm", 3.0, above=0.0)
    alpha_model = _get_alpha(cfg, section, "alpha", p_ph)
    systems = _tepai_systems(cfg)

    rows, estimates = [], []
    for name, lam, n_l in systems:
        for t in times:
            try:
                est = tepai.estimate(tepai.TepaiInstance(
                    lam=lam, t=t, n_l=n_l, epsilon=eps, q=q, p_ph=p_ph,
                    c_smm=c_smm, alpha_model=alpha_model, name=name,
                ))
            except tepai.DistanceSolveError:
                rows.append((name, lam, t, q, eps) + ("ERROR",) * 6)
                continue
            except (ValueError, ArithmeticError) as exc:  # a library check or a float range
                raise ValueError(f"[{section}] row {name}, T = {t!r}: {exc}") from exc
            if not math.isfinite(est.total_seconds):
                print(
                    f"tepai: [{section}] row {name}, T = {t!r}: total_s overflows to "
                    f"{est.total_seconds}",
                    file=sys.stderr,
                )
            estimates.append(est)
            rows.append((
                name, lam, t, q, eps, est.d, est.n_patch, est.physical_qubits,
                est.single_shot_seconds, est.total_seconds, est.p_total,
            ))
    _write_csv(
        out_dir / "tepai.csv",
        ["system", "lambda", "T", "Q", "eps", "d", "N_patch", "phys_qubits",
         "single_shot_s", "total_s", "P_total"],
        rows,
    )
    max_days = max((e.total_seconds / 86400.0 for e in estimates), default=None)
    summary = {
        "rows": len(rows),
        "solved": len(estimates),
        "failed": len(rows) - len(estimates),
        "max_physical_qubits": max((e.physical_qubits for e in estimates), default=None),
        # a non-finite maximum (reported per row above) is written as null
        "max_total_days": max_days if max_days is None or math.isfinite(max_days) else None,
    }
    _write_json(out_dir / "tepai_summary.json", summary)
    print(f"tepai: wrote {len(rows)} rows to {out_dir / 'tepai.csv'}")
    if not estimates:
        print("tepai: every row failed the code-distance solve", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_tepai_identities() -> tuple[bool, str]:
    worst = 0.0
    for lam_t in (1.0, 13.78, 1378.0, 9.9e4):
        for q in (0.1, 1.0, 5.0):
            delta = tepai.select_angle(lam_t, q)
            n_gate = tepai.gate_count(lam_t, delta)
            closed = 2.0 * lam_t ** 2 / q + q
            worst = max(worst, abs(n_gate - closed) / closed)
            gamma_sq, _ = tepai.sampling_overhead(lam_t, delta, 0.05)
            worst = max(worst, abs(gamma_sq - math.exp(q)) / math.exp(q))
    return worst < 1e-10, f"worst relative error {worst:.2e}"


def _check_gate_count_minimum() -> tuple[bool, str]:
    lam_t = 37.0
    floor = tepai.MIN_GATE_FACTOR * lam_t
    grid_ok = all(
        tepai.gate_count(lam_t, d) >= floor - 1e-9
        for d in np.linspace(1e-3, math.pi / 2 - 1e-3, 2001)
    )
    at_min = tepai.gate_count(lam_t, math.atan(1.0 / math.sqrt(2.0)))
    return grid_ok and abs(at_min - floor) < 1e-9, f"min {at_min:.12f} vs {floor:.12f}"


def _check_channel_algebra() -> tuple[bool, str]:
    worst = 0.0
    for q in (0.01, 0.05, 0.1):
        for dl in (0.1, 0.4, math.pi / 4):
            mix = zchan.mixture([(1 - 2 * q, 0.0), (q, dl), (q, -dl)])
            analytic = 2 * q * math.sin(dl) ** 2
            worst = max(worst, abs(zchan.twirled_z_error(mix, 0.0) - analytic))
            dev = zchan.worst_case_vs_pauli_model(mix, 0.0)
            if dev > 8 * q * q:
                return False, f"symmetric deviation {dev:.2e} exceeds 8q^2"
    return worst < 1e-15, f"worst twirl mismatch {worst:.2e}"


def _check_pcec_oracle() -> tuple[bool, str]:
    worst_ratio = 0.0
    for k in (3, 5, 7):
        for theta in (0.02, 0.1, 0.3, 0.6):
            for p_ph in (1e-4, 1e-3, 1e-2):
                model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=p_ph), theta)
                exact = zchan.twirled_z_error(
                    pcec.composed_error_channel(model), 0.0
                )
                analytic = pcec.residual_rate(model)
                bound = 10.0 * model.error_weight() ** 2
                if abs(exact - analytic) > max(bound, 1e-16):
                    return False, f"gap {abs(exact - analytic):.2e} > bound {bound:.2e}"
                worst_ratio = max(worst_ratio, abs(exact - analytic) / max(bound, 1e-300))
    return True, f"worst gap/bound ratio {worst_ratio:.3f}"


def _smm_gate(c1: float, k: int, theta_l: float, ratio: float) -> smm.SmmConfig:
    """The p_ph = 1e-3 gate at theta_th = ratio * theta_l that the SMM checks run."""
    params = tmr.TmrParams(k=k, p_ph=1e-3, pass_coeffs=(c1,))
    return smm.SmmConfig(theta_l=theta_l, tmr_params=params, threshold_ratio=ratio)


def _check_smm_enumeration(c1: float) -> tuple[bool, str]:
    for k in (3, 5, 7):
        for theta_l in (0.005, 0.02):
            for ratio in (2.0, 8.0):
                config = _smm_gate(c1, k, theta_l, ratio)
                rep = smm.effective_error_rate(config)
                # the array path behind alpha_sweep.csv and tradeoff.csv
                swept = smm.error_rates(config.tmr_params, theta_l, ratio * theta_l).p_l.item()
                exact = smm.enumerate_error_rate(config)
                bound = 10.0 * max(row.model.error_weight() for row in rep.trials) ** 2
                for route, p_l in (("analytic", rep.p_l), ("error_rates", swept)):
                    if abs(p_l - exact) > bound:
                        return False, (
                            f"k={k} theta_l={theta_l} ratio={ratio}: "
                            f"{route} gap {abs(p_l - exact):.2e} > {bound:.2e}"
                        )
    return True, "analytic matches exact enumeration within 10 (sum qbar)^2"


def _check_smm_monte_carlo(c1: float, seed: int) -> tuple[bool, str]:
    config = _smm_gate(c1, 5, 0.02, 8.0)
    shots = 200_000  # draws the over-rotation branches (weight ~1.7e-4 per shot) ~33 times
    rep = smm.effective_error_rate(config)
    mc1 = smm.monte_carlo(config, shots, seed)
    mc2 = smm.monte_carlo(config, shots, seed)
    if mc1 != mc2:
        return False, "Monte Carlo is not reproducible for a fixed seed"
    pulls = abs(mc1.p_l_hat - rep.p_l) / mc1.p_l_se if mc1.p_l_se else 0.0
    return pulls <= 5.0, f"P_L pull {pulls:.2f} sigma over {shots} shots"


def _check_switch_probability() -> tuple[bool, str]:
    for theta_l, theta_th in ((1e-3, 1e-3), (1e-3, 0.128), (1e-5, 0.05), (3e-4, 0.01)):
        p = 2.0 ** -smm.n_rus(theta_l, theta_th)
        if not (theta_l / (2 * theta_th) < p <= theta_l / theta_th + 1e-15):
            return False, f"p_switch {p} outside bounds for ratio {theta_th / theta_l}"
    return True, "2^-ceil(log2 r) within (theta_l/2theta_th, theta_l/theta_th]"


def _check_hubbard() -> tuple[bool, str]:
    for length in range(3, 9):
        for t_hop, u_int in ((1.0, 4.0), (0.5, 2.0)):
            terms = hamcat.hubbard_terms(length, t_hop, u_int)
            lam = hamcat.l1_norm(terms)
            target = (4 * t_hop + u_int / 4) * length ** 2
            if len(terms) != 9 * length ** 2 or abs(lam - target) > 1e-12:
                return False, f"L={length}: lambda {lam} vs {target}, {len(terms)} terms"
    return True, "term count 9L^2 and L1 norm (4t + U/4) L^2 for L in 3..8"


def _check_bound_intercepts() -> tuple[bool, str]:
    grid = [0.0]
    v1 = mitigation.feasible_boundary("v1", 1e-5, grid)[0][1]
    v2 = mitigation.feasible_boundary("v2", 1e-5, grid)[0][1]
    cul = mitigation.feasible_boundary("ftqc-cultivation", 1e-5, grid)[0][1]
    n_syn = mitigation.synthesis_t_count(2e-9)
    expected = (3750.0, 6.25e7, 1.0 / ((n_syn + 1) * 2e-9))
    for got, want in zip((v1, v2, cul), expected):
        if abs(got - want) > 1e-6 * want:
            return False, f"intercept {got} vs expected {want}"
    return True, f"v1={v1:.6g}, v2={v2:.6g}, cultivation={cul:.6g}"


def _check_timing_anchor(c1: float) -> tuple[bool, str]:
    clocks = []
    for theta_l in (1e-3, 1e-4, 1e-5, 1e-6):
        clocks.append(smm.effective_error_rate(_smm_gate(c1, 7, theta_l, 64.0)).expected_clocks)
    ok = all(2.5 <= c <= 3.5 for c in clocks)
    return ok, f"C_smm at ratio 64: {['%.3f' % c for c in clocks]}"


def _check_calibration(c1: float, supplied: float | None) -> tuple[bool, str]:
    # calibrate_c1 already raised (exit 4) unless this average is V2_RUS_FACTOR within 1e-6
    mean = smm.v2_octave_average(7, 1e-3, c1)
    if supplied is not None and abs(supplied - c1) > 1e-6 * c1:
        return False, f"configured c1 {supplied!r} != calibrated {c1!r} (tampered?)"
    return True, f"c1 = {c1:.6f}, octave-averaged factor {mean:.6f}"


def cmd_verify(cfg, out_dir: Path, seed: int) -> int:
    supplied_c1 = _get_c1(cfg, "verify")
    c1 = smm.calibrate_c1()
    checks = [
        ("tepai_identities", _check_tepai_identities),
        ("tepai_gate_count_minimum", _check_gate_count_minimum),
        ("channel_algebra", _check_channel_algebra),
        ("pcec_residual_oracle", _check_pcec_oracle),
        ("smm_enumeration_oracle", lambda: _check_smm_enumeration(c1)),
        ("smm_monte_carlo", lambda: _check_smm_monte_carlo(c1, seed)),
        ("switch_probability_bounds", _check_switch_probability),
        ("hubbard_l1_norm", _check_hubbard),
        ("bound_intercepts", _check_bound_intercepts),
        ("timing_anchor", lambda: _check_timing_anchor(c1)),
        ("c1_calibration", lambda: _check_calibration(c1, supplied_c1)),
    ]
    report = {}
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        report[name] = {"pass": ok, "detail": detail}
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    _write_json(out_dir / "verify_report.json", report)
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "alpha-sweep": cmd_alpha_sweep,
    "tradeoff": cmd_tradeoff,
    "bound": cmd_bound,
    "tepai": cmd_tepai,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="starsmm",
        description="Analytic error/cost toolkit for SMM-based rotation gates.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="sectioned key = value config file")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config)
        if args.config is None and args.command != "verify":
            raise ConfigError(f"command {args.command!r} requires --config")
        return _COMMANDS[args.command](cfg, out_dir, args.seed)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
