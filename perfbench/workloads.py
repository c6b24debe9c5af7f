"""Workload inputs and output checks for the starsmm benchmark.

Three workloads, each a list of steps run one after another (a closed
loop with one client).  A step is one child process: a CLI command, or the
oracle's in-process Monte Carlo and enumeration work.  Every input is made
from the workload seed, and the program only sees the generated files.

* ``figures``: the six shipped configs through their CLI commands, plus
  ``tepai`` on the molecules config with ``alpha = smm``.  The seed only
  shuffles the order.
* ``dense-sweep``: generated large ``alpha-sweep`` and ``tradeoff`` configs
  with ``c1`` given as a number, so no calibration runs.
* ``oracle``: ``verify --seed`` plus Monte Carlo cases and an enumeration
  grid computed in-process.

Nothing here imports starsmm at module level: the benchmark process only
loads it to recompute sampled rows in the dense-sweep checks.
"""

from __future__ import annotations

import configparser
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

PI_8 = math.pi / 8.0
P_PH = 1e-3
#: smm.calibrate_c1(k=7, p_ph=1e-3) at the commit this benchmark was
#: written for; used wherever a workload gives c1 as a number.
C1_K7 = 0.036746250646356234

#: Relative tolerance for figure CSVs against the reference outputs.  It
#: admits last-digit drift (a closed-form angle map moves P_L by <= 4e-15)
#: and rejects any change of the model.
FIGURE_RTOL = 1e-12

FIGURE_CONFIGS = (
    ("alpha-sweep", "alpha_finite_pm"),
    ("alpha-sweep", "alpha_fixed_ratio"),
    ("alpha-sweep", "alpha_fixed_threshold"),
    ("tradeoff", "tradeoff"),
    ("bound", "bound"),
    ("tepai", "tepai_molecules"),
)
SMM_TEPAI = "tepai_molecules_smm"

VERIFY_CHECKS = frozenset({
    "tepai_identities", "tepai_gate_count_minimum", "channel_algebra",
    "pcec_residual_oracle", "smm_enumeration_oracle", "smm_monte_carlo",
    "switch_probability_bounds", "hubbard_l1_norm", "bound_intercepts",
    "timing_anchor", "c1_calibration",
})

MC_SHOTS = 10**6
#: (name, n_rus, k); theta_L = 0.75 (pi/8) / 2^n at threshold ratio 2^n.
MC_CASES = tuple(
    (f"n{n}k{k}", n, k) for n in (3, 7, 17) for k in (5, 7)
)

CSV_HEADERS = {
    "alpha-sweep": "theta_L,k,theta_th,p_m,alpha_rus,P_L,out_of_regime_flag",
    "tradeoff": "theta_L,n,P_L,expected_clocks",
    "tepai": "system,lambda,T,Q,eps,d,N_patch,phys_qubits,single_shot_s,total_s,P_total",
}


@dataclass
class Step:
    """One child process of a workload pass."""

    name: str
    command: str  # CLI command, or "oracle" for the in-process oracle work
    config: Path | None = None
    expect: dict = field(default_factory=dict)  # what the output check needs


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def figure_steps(seed: int, root: Path, workdir: Path) -> list[Step]:
    steps = [
        Step(stem, command, root / "configs" / f"{stem}.cfg",
             {"reference": stem})
        for command, stem in FIGURE_CONFIGS
    ]
    smm_cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    smm_cfg.read(root / "configs" / "tepai_molecules.cfg")
    smm_cfg["tepai"]["alpha"] = "smm"
    path = workdir / f"{SMM_TEPAI}.cfg"
    with path.open("w") as fh:
        smm_cfg.write(fh)
    rows = len(smm_cfg["tepai"]["systems"].split(",")) * len(smm_cfg["tepai"]["t"].split(","))
    steps.append(Step(SMM_TEPAI, "tepai", path, {"rows": rows}))
    random.Random(seed).shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# dense-sweep
# ---------------------------------------------------------------------------

DENSE_KS = tuple(range(3, 12))
DENSE_TRADEOFF_THETAS = 200
DENSE_N_MAX = 15


def grid_size(lo: float, hi: float, points_per_decade: int) -> int:
    """Points of the CLI's log grid from lo to hi (both included)."""
    return max(int(round(math.log10(hi / lo) * points_per_decade)), 0) + 1


def dense_configs(seed: int) -> list[dict]:
    """Three generated sweeps of near-constant cost for every seed.

    The seed moves angles, thresholds, c1 and the switches; the structure
    that sets the cost (k list, grid sizes, trials per row) stays fixed, so
    run-to-run spread is not seed-to-seed work difference.
    """
    rng = random.Random(seed)
    higher = rng.random() < 0.5
    p_m = rng.choice((0.0, 2e-9))
    other_p_m = 2e-9 if p_m == 0.0 else 0.0
    ks = ",".join(str(k) for k in DENSE_KS)

    # fixed ratio in (2^9, 2^10): every row runs 10 analog trials
    ratio = 2.0 ** rng.uniform(9.05, 9.95)
    lo = 10.0 ** rng.uniform(-9.0, -8.0)
    fixed_ratio = {
        "name": "dense_fixed_ratio", "command": "alpha-sweep",
        "section": "alpha_sweep",
        "keys": {
            "mode": "fixed_ratio", "ratio": ratio, "theta_l_min": lo,
            "theta_l_max": lo * 1e3, "points_per_decade": 100, "k": ks,
            "p_ph": P_PH, "p_m": p_m, "c1": C1_K7 * rng.uniform(0.5, 2.0),
            "higher_orders": "true" if higher else "false",
        },
    }

    # fixed threshold, theta_L from theta_th / 2^15 up to 0.9 theta_th:
    # rows run 1..15 analog trials
    theta_th = 10.0 ** rng.uniform(-2.0, math.log10(PI_8 * 0.95))
    fixed_threshold = {
        "name": "dense_fixed_threshold", "command": "alpha-sweep",
        "section": "alpha_sweep",
        "keys": {
            "mode": "fixed_threshold", "theta_th": theta_th,
            "theta_l_min": theta_th * 2.0 ** -DENSE_N_MAX,
            "theta_l_max": theta_th * 0.9, "points_per_decade": 60, "k": ks,
            "p_ph": P_PH, "p_m": other_p_m, "c1": C1_K7 * rng.uniform(0.5, 2.0),
            "higher_orders": "false" if higher else "true",
        },
    }

    # tradeoff: every theta_L <= (pi/8) / 2^15 so each gets all n = 0..15
    thetas = sorted(10.0 ** rng.uniform(-9.0, math.log10(PI_8 * 0.9) - DENSE_N_MAX * math.log10(2.0))
                    for _ in range(DENSE_TRADEOFF_THETAS))
    deltas = [10.0 ** rng.uniform(-12.0, -4.0) for _ in range(12)]
    tradeoff = {
        "name": "dense_tradeoff", "command": "tradeoff", "section": "tradeoff",
        "keys": {
            "theta_l": ",".join(repr(t) for t in thetas), "n_max": DENSE_N_MAX,
            "k": 7, "p_ph": P_PH, "p_m": rng.choice((0.0, 2e-9)),
            "c1": C1_K7 * rng.uniform(0.5, 2.0),
            "delta_sweep": ",".join(repr(d) for d in deltas),
        },
    }
    return [fixed_ratio, fixed_threshold, tradeoff]


def expected_rows(spec: dict) -> int:
    keys = spec["keys"]
    if spec["command"] == "alpha-sweep":
        n_k = len(str(keys["k"]).split(","))
        return n_k * grid_size(keys["theta_l_min"], keys["theta_l_max"],
                               keys["points_per_decade"])
    n_theta = len(keys["theta_l"].split(","))
    n_delta = len(keys["delta_sweep"].split(","))
    return n_theta * (keys["n_max"] + 1 + n_delta)


def write_config(spec: dict, path: Path) -> None:
    lines = [f"[{spec['section']}]"]
    for key, value in spec["keys"].items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


def dense_steps(seed: int, workdir: Path) -> list[Step]:
    steps = []
    for spec in dense_configs(seed):
        path = workdir / f"{spec['name']}.cfg"
        write_config(spec, path)
        steps.append(Step(spec["name"], spec["command"], path,
                          {"spec": spec, "rows": expected_rows(spec)}))
    return steps


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def mc_theta(n: int) -> float:
    return 0.75 * PI_8 / 2.0 ** n


def mc_seed(seed: int, case: str) -> int:
    return random.Random(f"{seed}:{case}").getrandbits(63)


def enum_grid(seed: int) -> list[tuple[int, float, float]]:
    """(k, theta_L, threshold ratio) configs for the enumeration oracle."""
    rng = random.Random(f"enum:{seed}")
    grid = []
    for k in (3, 5, 7, 9):
        for n in (2, 4, 6, 8):
            for _ in range(2):
                top = PI_8 / 2.0 ** n
                grid.append((k, top * rng.uniform(0.05, 0.95), float(2 ** n)))
    return grid


def oracle_steps(seed: int) -> list[Step]:
    return [
        Step("verify", "verify", None, {"seed": seed}),
        Step("in-process", "oracle", None, {"seed": seed}),
    ]


def steps_for(workload: str, seed: int, root: Path, workdir: Path) -> list[Step]:
    if workload == "figures":
        return figure_steps(seed, root, workdir)
    if workload == "dense-sweep":
        return dense_steps(seed, workdir)
    return oracle_steps(seed)


# ---------------------------------------------------------------------------
# output checks: each returns (ok, detail) and never raises
# ---------------------------------------------------------------------------

def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= FIGURE_RTOL * max(abs(x), abs(y))


def compare_csv(got: Path, want: Path) -> tuple[bool, str]:
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    if got_lines[:1] != want_lines[:1]:
        return False, f"{got.name}: header {got_lines[:1]} != {want_lines[:1]}"
    if len(got_lines) != len(want_lines):
        return False, f"{got.name}: {len(got_lines) - 1} rows, reference has {len(want_lines) - 1}"
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf) or not all(_close(a, b) for a, b in zip(gf, wf)):
            return False, f"{got.name} row {i}: {g!r} != reference {w!r}"
    return True, f"{got.name}: {len(got_lines) - 1} rows within rtol {FIGURE_RTOL:g}"


def compare_json(got: Path, want: Path) -> tuple[bool, str]:
    a, b = json.loads(got.read_text()), json.loads(want.read_text())
    if a.keys() != b.keys():
        return False, f"{got.name}: keys {sorted(a)} != {sorted(b)}"
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, float) and isinstance(y, float):
            same = abs(x - y) <= FIGURE_RTOL * max(abs(x), abs(y))
        else:
            same = x == y
        if not same:
            return False, f"{got.name}[{key}]: {x!r} != reference {y!r}"
    return True, f"{got.name} matches"


def check_reference(out_dir: Path, reference: Path) -> tuple[bool, str]:
    details = []
    for want in sorted(reference.iterdir()):
        got = out_dir / want.name
        if not got.is_file():
            return False, f"missing output {want.name}"
        ok, detail = (compare_json if want.suffix == ".json" else compare_csv)(got, want)
        if not ok:
            return False, detail
        details.append(detail)
    return True, "; ".join(details)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_tepai_rows(out_dir: Path, rows: int) -> tuple[bool, str]:
    header, body = read_csv(out_dir / "tepai.csv")
    if ",".join(header) != CSV_HEADERS["tepai"]:
        return False, f"tepai.csv header {header}"
    if len(body) != rows:
        return False, f"tepai.csv has {len(body)} rows, expected {rows}"
    for row in body:
        for value in row[1:]:
            if value != "ERROR" and not math.isfinite(float(value)):
                return False, f"non-finite value in row {row}"
    return True, f"tepai.csv: {rows} rows"


def check_dense(out_dir: Path, spec: dict, rows: int, seed: int, smm, tmr) -> tuple[bool, str]:
    """Row count, finiteness, P_L >= 0, and sampled rows against enumeration."""
    command = spec["command"]
    name = "alpha_sweep.csv" if command == "alpha-sweep" else "tradeoff.csv"
    header, body = read_csv(out_dir / name)
    if ",".join(header) != CSV_HEADERS[command]:
        return False, f"{name} header {header}"
    if len(body) != rows:
        return False, f"{name} has {len(body)} rows, grid has {rows}"
    values = [[float(v) for v in row] for row in body]
    if not all(math.isfinite(v) for row in values for v in row):
        return False, f"{name} holds a non-finite value"
    col = header.index("P_L")
    if min(row[col] for row in values) < 0.0:
        return False, f"{name} holds a negative P_L"
    keys = spec["keys"]
    c1 = float(keys["c1"])
    rng = random.Random(f"sample:{seed}:{spec['name']}")
    if command == "alpha-sweep":
        sample = rng.sample(values, 12)
    else:
        sample = rng.sample([row for row in values if row[1] >= 0], 12)
    worst = 0.0
    for row in sample:
        if command == "alpha-sweep":
            theta_l, k, theta_th, p_m, _, p_l, _ = row
            higher = keys["higher_orders"] == "true"
        else:
            theta_l, n, p_l, _ = row
            k, p_m, higher = int(keys["k"]), float(keys["p_m"]), True
            theta_th = theta_l * 2.0 ** n
        # without higher orders the model keeps the leading branch only
        params = tmr.TmrParams(k=int(k), p_ph=P_PH, pass_coeffs=(c1,),
                               j_max=None if higher else 1)
        config = smm.SmmConfig(theta_l=theta_l, tmr_params=params,
                               theta_th=theta_th, p_m=p_m)
        exact = smm.enumerate_error_rate(config)
        n_rus = smm.n_rus(theta_l, theta_th)
        q_max = max((tmr.output_model_for_logical(params, 2.0 ** i * theta_l).error_weight()
                     for i in range(n_rus)), default=0.0)
        # verify's 10 (sum qbar)^2 bound, plus the enumerator's float floor
        # (it forms 1 - Re z with |z| ~ 1)
        bound = 10.0 * q_max ** 2 + 1e-15
        gap = abs(p_l - exact)
        if gap > bound:
            return False, f"{name}: row {row} P_L {p_l!r} vs enumeration {exact!r}, bound {bound:.3g}"
        worst = max(worst, gap / bound)
    return True, f"{name}: {rows} rows, 12 sampled rows within bound (worst gap/bound {worst:.3f})"


def check_verify(out_dir: Path) -> tuple[bool, str]:
    report = json.loads((out_dir / "verify_report.json").read_text())
    missing = VERIFY_CHECKS - report.keys()
    if missing:
        return False, f"verify report lacks {sorted(missing)}"
    failing = sorted(name for name, entry in report.items() if not entry.get("pass"))
    if failing:
        return False, f"verify checks failed: {failing}"
    return True, f"all {len(report)} verify checks PASS"
