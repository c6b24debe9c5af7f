"""Command-line surface: sweeps, bounds, resource tables and verification.

Subcommands (all read a sectioned key = value config):

* ``alpha-sweep``: RUS factor and effective error rate over a theta_l grid.
* ``tradeoff``: error rate versus expected clocks for threshold settings,
  with pure-synthesis comparator rows.
* ``bound``: feasible-circuit-size frontiers (P_total = 1) per architecture.
* ``tepai``: TE-PAI spacetime resource tables plus a JSON summary.
* ``verify``: run the oracle suite of :mod:`starsmm.verify`; exit 0 iff every check passes.

Flags: ``--config <path>``, ``--seed <u64>``, ``--out <dir>``.  Each
command writes its rows in grid order; ``alpha-sweep`` and ``tradeoff``
compute them as arrays with ``smm.error_rates``.  Outputs are
CSV with 17-significant-digit floats and are byte-identical across runs for
a fixed config and seed.  Exit codes: 0 success, 1 verification failure,
2 config error (also an ``--out`` that is not a usable directory, or an
output file in it that cannot be written), 3 solver failure, 4 model error
(a library ValueError or ArithmeticError on input the config checks let
through, named by its config row).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import hamcat, mitigation, smm, tepai, tmr


class ConfigError(ValueError):
    pass


# a library check or a float range failing: exit 4
_MODEL_ERRORS = (ValueError, ArithmeticError)


@contextlib.contextmanager
def _naming(where: str):
    """Re-raise a model error as a ValueError prefixed by ``where``; wrap library calls only."""
    try:
        yield
    except _MODEL_ERRORS as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    formats = {}  # one % format per row type signature: %s str, %d bool and int, %.16e float
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(
                "%s" if issubclass(kind, str) else
                "%d" if issubclass(kind, (int, np.integer, np.bool_)) else "%.16e"
                for kind in kinds)
        lines.append(formats[kinds] % row)
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    _write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    if path is not None and not parser.read(path):
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


#: Most points a log grid may have (``points_per_decade``, ``lam_grid``).
_MAX_GRID_POINTS = 10 ** 5


def _log_grid(
    section: str, lo_key: str, hi_key: str, ppd_key: str, lo: float, hi: float,
    points_per_decade: int,
) -> list[float]:
    """Log-spaced grid over [lo, hi] (lo > 0); the keys name the bounds and density in errors."""
    if hi < lo:
        raise ConfigError(f"[{section}] {lo_key} = {lo!r} must be <= {hi_key} = {hi!r}")
    span = math.log10(hi) - math.log10(lo)  # hi / lo itself can overflow
    steps = span * points_per_decade  # inf for a density past about 1e308 / span
    n = max(int(round(steps)), 0) + 1 if steps < _MAX_GRID_POINTS else math.inf
    if n > _MAX_GRID_POINTS:
        raise ConfigError(f"[{section}] {ppd_key} = {points_per_decade!r} gives more than "
                          f"{_MAX_GRID_POINTS} grid points over [{lo!r}, {hi!r}]")
    if n < 2:
        return [lo]
    step = span / (n - 1)
    return [10.0 ** (math.log10(lo) + i * step) for i in range(n)]


def _get_c1(cfg, section) -> float | None:
    """The configured c1, or None for 'calibrated' (the default).

    At most 1e300, so that the TMR pass rate C(k, 1) c1 p_ph is a float for every k.
    """
    return _get_value(cfg, section, "c1", words={"calibrated": None}, minimum=0.0, maximum=1e300)


def _get_p_ph(cfg, section, c1: float | None) -> float:
    """[section] p_ph in [0, 0.1]; calibrating c1 (``c1`` None) needs p_ph > 0."""
    above = 0.0 if c1 is None else None
    return _get_value(
        cfg, section, "p_ph", mitigation.P_PH, minimum=0.0, maximum=tmr.MAX_P_PH, above=above
    )


def _c1(section, k: int, p_ph: float, c1: float | None = None) -> float:
    """The configured ``c1``, or for None ``smm.calibrate_c1`` at k and p_ph."""
    if c1 is not None:
        return c1
    with _naming(f"[{section}] p_ph = {p_ph!r}, k = {k}: calibrating c1"):
        return smm.calibrate_c1(k=k, p_ph=p_ph)


def _get_alpha(cfg, section, key, p_ph: float, **smm_setup) -> float | mitigation.AlphaModel:
    """A constant RUS factor, or the SMM analytics for the value 'smm'."""
    alpha = _get_value(cfg, section, key, 0.1, words={"smm": None}, above=0.0)
    if alpha is not None:
        return alpha
    return tepai.smm_alpha_provider(p_ph, c1=_c1(section, tepai.SMM_K, p_ph), **smm_setup)


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
    c1 = _get_c1(cfg, section)
    p_ph = _get_p_ph(cfg, section, c1)
    p_m = _get_value(cfg, section, "p_m", 0.0, minimum=0.0, maximum=smm.MAX_P_M)
    higher = _get_value(cfg, section, "higher_orders", smm.SmmConfig.include_higher_orders,
                        cast=_boolean)
    grid = _log_grid(section, "theta_l_min", "theta_l_max", "points_per_decade", lo, hi, ppd)

    with np.errstate(over="ignore"):  # an overflowing threshold is inf, outside the domain
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
        params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(_c1(section, k, p_ph, c1),))
        with _naming(f"[{section}] k = {k}"):
            rates = smm.error_rates(params, grid_in, thresholds, **setup)
        for theta_l, threshold, alpha, p_l, flag in zip(
            grid_in, thresholds.tolist(), rates.alpha_rus.tolist(), rates.p_l.tolist(),
            rates.out_of_regime.tolist(),
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
    n_max = _get_value(cfg, section, "n_max", 15, cast=int, minimum=0)
    # every threshold 2^n |theta_L| in smm.in_domain evaluates; none is past n = 1074 (least float)
    with np.errstate(over="ignore"):  # an overflowing threshold is inf, outside the domain
        ladder = np.ldexp(np.abs(theta_ls)[:, None], np.arange(min(n_max, 1074) + 1))
    keep = smm.in_domain(np.array(theta_ls)[:, None], ladder)
    # theta_L = 0 or |theta_L| > pi/8 has no row; a negative theta_L mirrors |theta_L|
    if not (has_row := keep.any(axis=1)).all():
        raw, theta_l = cfg.get(section, "theta_l"), theta_ls[has_row.argmin()]
        if 0.0 in theta_ls:
            raise ConfigError(f"[{section}] theta_l = {raw!r} must be non-zero")
        raise ConfigError(f"[{section}] theta_l = {raw!r}: theta_L = {theta_l!r} has no row "
                          "with |theta_L| <= theta_th <= pi/8")
    k = _get_value(cfg, section, "k", 7, cast=int, minimum=2, maximum=tmr.MAX_K)
    c1 = _get_c1(cfg, section)
    p_ph = _get_p_ph(cfg, section, c1)
    p_m = _get_value(cfg, section, "p_m", smm.SmmConfig.p_m, minimum=0.0, maximum=smm.MAX_P_M)
    params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(_c1(section, k, p_ph, c1),))

    deltas = _get_value(cfg, section, "delta_sweep", [], above=0.0, below=1.0, many=True)
    if not deltas:
        d = max(p_m, 1e-12)
        while d < 1e-4:
            deltas.append(d)
            d *= 4.0

    row_theta, row_n = np.nonzero(keep)  # row-major: each theta_L's rows in order of n
    with _naming(f"[{section}] k = {k}"):
        rates = smm.error_rates(params, np.array(theta_ls)[row_theta], ladder[keep],
                                p_m=p_m, timing_mode="latency")
    smm_rows = zip(row_n.tolist(), rates.p_l.tolist(), rates.expected_clocks.tolist())

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
    p_ph = _get_value(cfg, section, "p_ph", mitigation.P_PH, above=0.0, maximum=tmr.MAX_P_PH)
    # the cultivation variant synthesizes its rotations at accuracy p_m
    above = 0.0 if "ftqc-cultivation" in architectures else None
    p_m = _get_value(cfg, section, "p_m", mitigation.P_M, minimum=0.0, maximum=smm.MAX_P_M,
                     above=above)
    lo = _get_value(cfg, section, "n_t_min", 1.0, above=0.0)
    hi = _get_value(cfg, section, "n_t_max", 1e10, above=0.0)
    ppd = _get_value(cfg, section, "points_per_decade", 4, cast=int, minimum=1)
    alpha_model = _get_alpha(cfg, section, "alpha_v3", p_ph, p_m=p_m)

    grid = _log_grid(section, "n_t_min", "n_t_max", "points_per_decade", lo, hi, ppd)
    rows = []
    for arch in architectures:
        with _naming(f"[{section}] theta_star = {theta_star!r}, architecture {arch}"):
            curve = mitigation.feasible_boundary(
                arch, theta_star, grid, p_ph=p_ph, p_m=p_m, alpha_model=alpha_model
            )
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
    t_hop = _get_value(cfg, section, "hubbard_t", hamcat.HUBBARD_T, minimum=0.0)
    u_int = _get_value(cfg, section, "hubbard_u", hamcat.HUBBARD_U, minimum=0.0)
    for token in _get_value(cfg, section, "systems", [], cast=str, many=True):
        if token.startswith("hubbard:"):
            try:
                length = int(token.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"[{section}] systems: {token!r} needs an integer lattice "
                                  "size L") from exc
            try:  # hamcat's lattice rule: L >= 3, and lambda > 0
                entry = hamcat.hubbard_entry(t_hop, u_int, length)
            except ValueError as exc:
                raise ConfigError(f"[{section}] systems: {token!r}, hubbard_t = {t_hop!r}, "
                                  f"hubbard_u = {u_int!r}: {exc}") from exc
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
            raise ConfigError(f"[{section}] lam_grid = {grid_raw!r} must be "
                              "'min,max,points_per_decade'")
        _check_bounds(section, "lam_grid", grid_raw, lam_grid[:2], above=0.0)
        if not (lam_grid[2] >= 1 and lam_grid[2].is_integer()):
            raise ConfigError(f"[{section}] lam_grid points_per_decade = {lam_grid[2]!r} "
                              "must be an integer >= 1")
        n_l = _get_value(cfg, section, "n_l", cast=int, required=True, minimum=1)
        lo, hi, ppd = lam_grid
        for lam in _log_grid(section, "lam_grid min", "max", "lam_grid points_per_decade",
                             lo, hi, int(ppd)):
            systems.append((f"lambda={lam:.6g}", lam, n_l))
    if not systems:
        raise ConfigError(f"[{section}] systems: no target system (set systems or lam_grid)")
    return systems


def cmd_tepai(cfg, out_dir: Path, seed: int) -> int:
    section = "tepai"
    times = _get_value(cfg, section, "t", required=True, above=0.0, many=True)
    default = tepai.TepaiInstance  # its field defaults are class attributes
    q = _get_value(cfg, section, "q", default.q, above=0.0)
    eps = _get_value(cfg, section, "epsilon", default.epsilon, above=0.0, below=1.0)
    p_ph = _get_value(cfg, section, "p_ph", default.p_ph, above=0.0, below=tepai.P_THRESHOLD)
    c_smm = _get_value(cfg, section, "c_smm", default.c_smm, above=0.0)
    alpha_model = _get_alpha(cfg, section, "alpha", p_ph)
    systems = _tepai_systems(cfg)

    rows, estimates = [], []
    for name, lam, n_l in systems:
        for t in times:
            try:
                with _naming(f"[{section}] row {name}, T = {t!r}"):
                    est = tepai.estimate(tepai.TepaiInstance(
                        lam=lam, t=t, n_l=n_l, epsilon=eps, q=q, p_ph=p_ph,
                        c_smm=c_smm, alpha_model=alpha_model,
                    ))
            except tepai.DistanceSolveError:
                rows.append((name, lam, t, q, eps) + ("ERROR",) * 6)
                continue
            if not math.isfinite(est.total_seconds):
                print(f"tepai: [{section}] row {name}, T = {t!r}: total_s overflows to "
                      f"{est.total_seconds}", file=sys.stderr)
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

def cmd_verify(cfg, out_dir: Path, seed: int) -> int:
    from . import verify  # only this command compiles the oracle checks

    report = {}
    for name, ok, detail in verify.run(seed, _get_c1(cfg, "verify")):
        report[name] = {"pass": ok, "detail": detail}
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    _write_json(out_dir / "verify_report.json", report)
    all_ok = all(entry["pass"] for entry in report.values())
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


def _u64(text: str) -> int:
    """The --seed type: an integer in [0, 2^64), so no two seeds key the same Philox stream."""
    try:
        if 0 <= (value := int(text)) < 2 ** 64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [0, 2^64)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="starsmm",
        description="Analytic error/cost toolkit for SMM-based rotation gates.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="sectioned key = value config file")
    parser.add_argument("--seed", type=_u64, default=0, help="RNG seed (u64)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.config is None and args.command != "verify":
            raise ConfigError(f"command {args.command!r} requires --config")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r} is not a usable directory: {exc}") from exc
        return _COMMANDS[args.command](cfg, out_dir, args.seed)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
