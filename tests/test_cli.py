import configparser
import contextlib
import dataclasses
import io
import itertools
import json
import math
import resource
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsmm import cli, hamcat, mitigation, pcec, smm, tepai, tmr, zchan

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ALPHA_CFG = """\
[alpha_sweep]
mode = fixed_ratio
ratio = 128
theta_l_min = 1e-6
theta_l_max = 1e-4
points_per_decade = 2
k = 5,7
p_m = 0
c1 = calibrated
"""

TRADEOFF_CFG = """\
[tradeoff]
theta_l = 1e-5
n_max = 8
k = 7
c1 = calibrated
"""

BOUND_CFG = """\
[bound]
theta_star = 1e-5
alpha_v3 = 0.1
n_t_min = 1
n_t_max = 1e9
points_per_decade = 1
"""

TEPAI_CFG = """\
[tepai]
systems = 4Fe-4S
t = 1,10
alpha = 0.1
"""


#: Tokens the exit-code contract test sets keys to: float edges, words, lists and typos.
FUZZ_TOKENS = ("0", "-1", "1e308", "1e-320", "5e-324", "nan", "inf", "", "true", "3.5", "abc",
               "1,2", "99999999999999999999", "-0", "0x10", "1_000", " 7 ", "1e-3,,2")
#: Python's own text for a float failure, which names no quantity.
BARE_FLOAT_ERRORS = ("division by zero", "math range error", "math domain error", "out of range")


def _shipped(name: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / f"{name}.cfg")
    return parser


SHIPPED_SECTIONS = {path.stem: _shipped(path.stem).sections()[0]
                    for path in sorted(CONFIGS.glob("*.cfg"))}


@contextlib.contextmanager
def _address_space_limit(headroom: int = 1 << 30):
    """A soft RLIMIT_AS ``headroom`` bytes above the process's size, restored on exit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    limit = size + headroom if hard == resource.RLIM_INFINITY else min(size + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run(tmp_path: Path, command: str, config_text: str | None, **flags) -> int:
    argv = [command]
    if config_text is not None:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_text)
        argv += ["--config", str(cfg_path)]
    argv += ["--out", str(tmp_path)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return cli.main(argv)


class TestAlphaSweep:
    def test_runs_and_writes_expected_columns(self, tmp_path):
        assert _run(tmp_path, "alpha-sweep", ALPHA_CFG) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "theta_L,k,theta_th,p_m,alpha_rus,P_L,out_of_regime_flag"
        assert len(lines) == 1 + 5 * 2  # grid of 5 per k, two k values

    def test_rows_match_library_values(self, tmp_path):
        assert _run(tmp_path, "alpha-sweep", ALPHA_CFG) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")
        cols = lines[0].split(",")
        row = dict(zip(cols, lines[1].split(",")))
        k = int(row["k"])
        config = smm.SmmConfig(
            theta_l=float(row["theta_L"]),
            tmr_params=tmr.TmrParams(
                k=k, p_ph=1e-3, pass_coeffs=(smm.calibrate_c1(k=k, p_ph=1e-3),)
            ),
            threshold_ratio=128.0,
            p_m=0.0,
        )
        rep = smm.effective_error_rate(config)
        assert float(row["alpha_rus"]) == pytest.approx(rep.alpha_rus, rel=1e-15)
        assert float(row["P_L"]) == pytest.approx(rep.p_l, rel=1e-15)

    def test_fixed_ratio_sweep_reproduces_scaling_slope(self, tmp_path):
        cfg = (
            "[alpha_sweep]\nmode = fixed_ratio\nratio = 128\n"
            "theta_l_min = 1e-8\ntheta_l_max = 1e-4\npoints_per_decade = 3\n"
            "k = 7\np_m = 0\nc1 = calibrated\nhigher_orders = false\n"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")[1:]
        theta = np.array([float(l.split(",")[0]) for l in lines])
        alpha = np.array([float(l.split(",")[4]) for l in lines])
        slope = np.polyfit(np.log(theta), np.log(alpha), 1)[0]
        assert slope == pytest.approx(1 - 2 / 7, abs=0.05)

    def test_fixed_threshold_mode(self, tmp_path):
        cfg = ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_threshold").replace(
            "ratio = 128", "theta_th = 0.01"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 0

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = ALPHA_CFG.replace("k = 5,7", "k =")
        assert _run(tmp_path, "alpha-sweep", cfg) == 2

    def test_unknown_key_rejected(self, tmp_path):
        assert _run(tmp_path, "alpha-sweep", ALPHA_CFG + "typo_key = 3\n") == 2

    def test_unknown_section_rejected(self, tmp_path):
        assert _run(tmp_path, "alpha-sweep", ALPHA_CFG + "[mystery]\nx = 1\n") == 2

    def test_non_integer_k_is_config_error(self, tmp_path, capsys):
        cfg = ALPHA_CFG.replace("k = 5,7", "k = 5,7.5")
        assert _run(tmp_path, "alpha-sweep", cfg) == 2
        assert "[alpha_sweep] k = '5,7.5' is not an integer list" in capsys.readouterr().err

    def test_float_k_is_config_error(self, tmp_path, capsys):
        # the same integer rule as the single-valued [tradeoff] k
        cfg = ALPHA_CFG.replace("k = 5,7", "k = 7.0")
        assert _run(tmp_path, "alpha-sweep", cfg) == 2
        assert "[alpha_sweep] k = '7.0' is not an integer list" in capsys.readouterr().err

    @pytest.mark.parametrize("ppd", ["0", "-2"])
    def test_non_positive_points_per_decade_is_config_error(self, tmp_path, capsys, ppd):
        cfg = ALPHA_CFG.replace("points_per_decade = 2", f"points_per_decade = {ppd}")
        assert _run(tmp_path, "alpha-sweep", cfg) == 2
        assert f"[alpha_sweep] points_per_decade = '{ppd}' must be >= 1" in capsys.readouterr().err

    def test_missing_config_is_error(self, tmp_path):
        assert _run(tmp_path, "alpha-sweep", None) == 2

    def test_config_file_not_found_is_error(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert cli.main(["alpha-sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config file not found: {path}\n"

    @pytest.mark.parametrize(
        "cfg,kept,skipped",
        [
            # ratio * theta_L > pi/8 above theta_L ~ 3.1e-3
            (ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 1e-4")
             .replace("theta_l_max = 1e-4", "theta_l_max = 1e-2"), 3, 2),
            # theta_L > theta_th = 0.01 for the top two grid points
            (ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_threshold")
             .replace("ratio = 128", "theta_th = 0.01")
             .replace("theta_l_min = 1e-6", "theta_l_min = 1e-4")
             .replace("theta_l_max = 1e-4", "theta_l_max = 5e-2"), 4, 2),
        ],
        ids=["fixed_ratio", "fixed_threshold"],
    )
    def test_rows_outside_domain_are_skipped(self, tmp_path, capsys, cfg, kept, skipped):
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 2 * kept  # grid points per k, two k values
        for line in lines:
            theta_l, _, theta_th = (float(v) for v in line.split(",")[:3])
            assert theta_l <= theta_th <= math.pi / 8
        assert f"skipped {2 * skipped} rows" in capsys.readouterr().err

    def test_integer_columns_are_integer_strings(self, tmp_path):
        # k = 5 at p_ph = 1e-3 is out of regime below theta_L = p_ph^(5/2) ~ 3.2e-8
        cfg = ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 1e-8")
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert {row["k"] for row in rows} == {"5", "7"}
        assert {row["out_of_regime_flag"] for row in rows} == {"0", "1"}

    @pytest.mark.parametrize("word,higher", [("off", False), ("No", False), ("on", True)])
    def test_higher_orders_takes_boolean_words(self, tmp_path, word, higher):
        reference = "true" if higher else "false"
        outputs = []
        for value in (word, reference):
            out = tmp_path / value
            out.mkdir()
            assert _run(out, "alpha-sweep", ALPHA_CFG + f"higher_orders = {value}\n") == 0
            outputs.append((out / "alpha_sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_higher_orders_typo_is_config_error(self, tmp_path, capsys):
        assert _run(tmp_path, "alpha-sweep", ALPHA_CFG + "higher_orders = ture\n") == 2
        assert "[alpha_sweep] higher_orders = 'ture' is not a boolean" in capsys.readouterr().err
        assert not (tmp_path / "alpha_sweep.csv").exists()

    def test_no_row_in_domain_is_config_error(self, tmp_path, capsys):
        cfg = ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 1e-2").replace(
            "theta_l_max = 1e-4", "theta_l_max = 1e-1"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 2
        assert "[alpha_sweep] no theta_L" in capsys.readouterr().err
        assert not (tmp_path / "alpha_sweep.csv").exists()

    def test_subnormal_synthesis_accuracy_writes_the_row(self, tmp_path):
        # below theta_L ~ 1e-266 the synthesis accuracy delta is subnormal; it has a T-count
        cfg = ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 1e-300")
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 1186  # 593 theta_L for each of k = 5, 7
        assert all(math.isfinite(float(cell)) for line in lines for cell in line.split(","))

    def test_grid_from_the_least_float(self, tmp_path):
        # theta_l_max / theta_l_min overflows; the grid spans log10 differences instead
        cfg = ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 5e-324").replace(
            "theta_l_max = 1e-4", "theta_l_max = 1e-3"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 1284  # 642 theta_L for each of k = 5, 7
        assert float(lines[0].split(",")[0]) == 5e-324

    def test_library_value_error_names_the_row(self, tmp_path, capsys):
        # delta = 0.1 * 2^N * p_analog reaches 1, which the T-count rejects
        cfg = (
            "[alpha_sweep]\nmode = fixed_threshold\ntheta_th = 0.39\ntheta_l_min = 1e-300\n"
            "theta_l_max = 1e-290\npoints_per_decade = 1\nk = 2\np_ph = 0.01\np_m = 0\nc1 = 1\n"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 4
        assert capsys.readouterr().err == (
            "model error: [alpha_sweep] k = 2: gate |theta_L| = 1e-300, n_rus = 996: "
            "delta must lie in (0, 1)\n"
        )
        assert not (tmp_path / "alpha_sweep.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p_m,alpha", [("2e-9", "inf"), ("0", "nan")])
    def test_non_finite_alpha_names_the_row(self, tmp_path, capsys, p_m, alpha):
        # theta_L * p_ph underflows to 0: alpha_rus = P_L / 0, and 0 / 0 once P_L is 0 too
        cfg = (
            "[alpha_sweep]\nmode = fixed_ratio\nratio = 128\ntheta_l_min = 1e-300\n"
            f"theta_l_max = 1e-299\np_m = {p_m}\np_ph = 1e-30\n"
        )
        assert _run(tmp_path, "alpha-sweep", cfg) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 27  # nine grid points for each k = 5, 7, 9
        err = capsys.readouterr().err
        for line in lines:
            theta_l, k, _, _, cell = line.split(",")[:5]
            assert cell == alpha
            assert (
                f"[alpha_sweep] row theta_L = {float(theta_l)!r}, k = {k}: "
                f"alpha_rus = P_L / (theta_L p_ph) is {alpha}\n"
            ) in err

    @settings(max_examples=30, deadline=None)
    @given(
        fixed_ratio=st.booleans(),
        log2_ratio=st.floats(0.0, 12.0),
        theta_th=st.floats(1e-4, smm.MAX_THRESHOLD),
        log_lo=st.floats(-10.0, -5.0),
        below_th=st.floats(0.01, 4.0),
        decades=st.floats(0.0, 3.0),
        ppd=st.integers(1, 3),
        ks=st.lists(st.integers(2, 11), min_size=1, max_size=3, unique=True),
        p_ph=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        c1=st.floats(0.01, 1.0),
        higher=st.booleans(),
    )
    def test_every_row_equals_library_value(
        self, fixed_ratio, log2_ratio, theta_th, log_lo, below_th, decades, ppd, ks, p_ph,
        p_m, c1, higher,
    ):
        # _write_csv writes floats with %.16e, which round-trips them, so every cell compares with ==
        ratio = 2.0 ** log2_ratio
        lo = 10.0 ** log_lo if fixed_ratio else theta_th * 10.0 ** -below_th
        setup = (
            f"mode = fixed_ratio\nratio = {ratio!r}\n" if fixed_ratio
            else f"mode = fixed_threshold\ntheta_th = {theta_th!r}\n"
        )
        cfg = (
            f"[alpha_sweep]\n{setup}theta_l_min = {lo!r}\n"
            f"theta_l_max = {lo * 10.0 ** decades!r}\npoints_per_decade = {ppd}\n"
            f"k = {','.join(map(str, ks))}\np_ph = {p_ph!r}\np_m = {p_m!r}\n"
            f"c1 = {c1!r}\nhigher_orders = {'true' if higher else 'false'}\n"
        )
        with tempfile.TemporaryDirectory() as out, redirect_stderr(io.StringIO()) as err:
            assert _run(Path(out), "alpha-sweep", cfg) == 0
            lines = (Path(out) / "alpha_sweep.csv").read_text().strip().split("\n")
        # the kept rows and the skip count follow smm.in_domain over the whole grid
        grid = cli._log_grid("alpha_sweep", "lo", "hi", "ppd", lo, lo * 10.0 ** decades, ppd)
        keep = smm.in_domain(grid, ratio * np.array(grid) if fixed_ratio else theta_th)
        skipped = (len(grid) - int(keep.sum())) * len(ks)
        assert ("alpha-sweep: skipped" in err.getvalue()) == (skipped > 0)
        if skipped:
            assert f"alpha-sweep: skipped {skipped} rows" in err.getvalue()
        cells = [line.split(",") for line in lines[1:]]
        per_k = int(keep.sum())
        assert len(cells) == per_k * len(ks)
        for i, k in enumerate(ks):
            block = cells[i * per_k:(i + 1) * per_k]
            assert [int(c[1]) for c in block] == [k] * per_k
            theta_l = np.array([float(c[0]) for c in block])
            assert theta_l.tolist() == np.array(grid)[keep].tolist()
            thresholds = np.array([float(c[2]) for c in block])
            if fixed_ratio:
                assert np.array_equal(thresholds, ratio * theta_l)
            else:
                assert np.all(thresholds == theta_th)
            rates = smm.error_rates(
                tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,)), theta_l, thresholds,
                p_m=p_m, include_higher_orders=higher,
            )
            assert [float(c[3]) for c in block] == [p_m] * per_k
            assert [float(c[4]) for c in block] == rates.alpha_rus.tolist()
            assert [float(c[5]) for c in block] == rates.p_l.tolist()
            assert [bool(int(c[6])) for c in block] == rates.out_of_regime.tolist()


class TestTradeoff:
    def test_row_count(self, tmp_path):
        assert _run(tmp_path, "tradeoff", TRADEOFF_CFG) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")
        smm_rows = [l for l in lines[1:] if int(l.split(",")[1]) >= 0]
        syn_rows = [l for l in lines[1:] if int(l.split(",")[1]) < 0]
        assert len(smm_rows) == 9  # n = 0..8
        assert len(syn_rows) > 0

    def test_negative_angle_mirrors_positive(self, tmp_path):
        # thresholds 2^n |theta_L| above pi/8 are skipped for either sign
        cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = -1e-3,1e-3").replace(
            "n_max = 8", "n_max = 12"
        )
        assert _run(tmp_path, "tradeoff", cfg) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")[1:]
        down = [l.split(",")[1:] for l in lines if l.startswith("-")]
        up = [l.split(",")[1:] for l in lines if not l.startswith("-")]
        assert down == up
        assert [int(n) for n, _, _ in down if int(n) >= 0] == list(range(9))

    @pytest.mark.parametrize("theta_l", ["0.5", "1e-5,-0.4"])
    def test_theta_l_without_smm_row_is_config_error(self, tmp_path, capsys, theta_l):
        # |theta_L| > pi/8: no threshold 2^n |theta_L| lies in smm.in_domain
        cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", f"theta_l = {theta_l}")
        assert _run(tmp_path, "tradeoff", cfg) == 2
        bad = theta_l.split(",")[-1]
        assert capsys.readouterr().err == (
            f"config error: [tradeoff] theta_l = {theta_l!r}: theta_L = {float(bad)!r} has no "
            "row with |theta_L| <= theta_th <= pi/8\n"
        )
        assert not (tmp_path / "tradeoff.csv").exists()

    def test_pure_digital_row_matches_comparator_scale(self, tmp_path):
        assert _run(tmp_path, "tradeoff", TRADEOFF_CFG) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")[1:]
        n0 = next(l for l in lines if int(l.split(",")[1]) == 0)
        clocks = float(n0.split(",")[3])
        assert clocks > 100.0  # synthesis-dominated

    @settings(max_examples=30, deadline=None)
    @given(
        thetas=st.lists(
            st.tuples(st.floats(-9.0, math.log10(smm.MAX_THRESHOLD)), st.booleans()),
            min_size=1, max_size=4,
        ),
        n_max=st.integers(0, 20),
        k=st.integers(2, 11),
        p_ph=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        c1=st.floats(0.01, 1.0),
        deltas=st.none() | st.lists(st.floats(1e-12, 0.5), min_size=1, max_size=4),
    )
    def test_every_cell_equals_library_value(self, thetas, n_max, k, p_ph, p_m, c1, deltas):
        theta_ls = [(-1.0 if negative else 1.0) * 10.0 ** e for e, negative in thetas]
        cfg = (
            f"[tradeoff]\ntheta_l = {','.join(map(repr, theta_ls))}\nn_max = {n_max}\n"
            f"k = {k}\np_ph = {p_ph!r}\np_m = {p_m!r}\nc1 = {c1!r}\n"
        )
        if deltas is not None:
            cfg += f"delta_sweep = {','.join(map(repr, deltas))}\n"
        else:  # the default sweep: factors of 4 from max(p_m, 1e-12) up to 1e-4
            deltas = [max(p_m, 1e-12) * 4.0 ** j for j in range(40)]
            deltas = [d for d in deltas if d < 1e-4]
        with tempfile.TemporaryDirectory() as out:
            assert _run(Path(out), "tradeoff", cfg) == 0
            lines = (Path(out) / "tradeoff.csv").read_text().strip().split("\n")
        assert lines[0] == "theta_L,n,P_L,expected_clocks"
        cells = [line.split(",") for line in lines[1:]]

        ns = [
            [n for n in range(n_max + 1) if 2.0 ** n * abs(theta_l) <= smm.MAX_THRESHOLD]
            for theta_l in theta_ls
        ]
        theta_col = np.repeat(theta_ls, [len(row) for row in ns])
        thresholds = np.array([2.0 ** n * abs(t) for t, row in zip(theta_ls, ns) for n in row])
        rates = smm.error_rates(
            tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,)), theta_col, thresholds,
            p_m=p_m, timing_mode="latency",
        )
        expected, r = [], 0
        for theta_l, theta_ns in zip(theta_ls, ns):
            for n in theta_ns:
                expected.append((theta_l, n, rates.p_l[r], rates.expected_clocks[r]))
                r += 1
            for j, delta in enumerate(deltas):
                expected.append((theta_l, -(j + 1)) + smm.synthesis_only_gate(delta, p_m))
        assert [(float(t), int(n), float(p), float(c)) for t, n, p, c in cells] == expected


    def test_large_n_max_stops_at_the_threshold_cap(self, tmp_path):
        # 2^n |theta_L| passes pi/8 long before n = 2000; 2^2000 itself overflows
        outputs = []
        for n_max in (60, 2000):
            cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 1e-3,-1e-5").replace(
                "n_max = 8", f"n_max = {n_max}"
            )
            out = tmp_path / str(n_max)
            out.mkdir()
            assert _run(out, "tradeoff", cfg) == 0
            outputs.append((out / "tradeoff.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_subnormal_angle_runs_every_threshold(self, tmp_path):
        # 2^1028 * 1e-310 ~ 0.36 <= pi/8 < 2^1029 * 1e-310: thresholds past 2^1024 |theta_L|
        cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 1e-310").replace(
            "n_max = 8", "n_max = 2000"
        )
        assert _run(tmp_path, "tradeoff", cfg) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 1037
        ns = [int(line.split(",")[1]) for line in lines]
        assert ns == list(range(1029)) + [-j for j in range(1, 9)]

    def test_tiny_normal_angle_runs_every_threshold(self, tmp_path):
        # 2^995 * 1e-300 ~ 0.32 <= pi/8 < 2^996 * 1e-300; eight default deltas
        cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 1e-300").replace(
            "n_max = 8", "n_max = 2000"
        )
        assert _run(tmp_path, "tradeoff", cfg) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 1004
        ns = [int(line.split(",")[1]) for line in lines]
        assert ns == list(range(996)) + [-j for j in range(1, 9)]

    def test_library_value_error_names_a_later_row(self, tmp_path, capsys):
        # the rows n = 0..2 of theta_L = 1e-4 evaluate; at n = 3 delta reaches 1
        cfg = (
            "[tradeoff]\ntheta_l = 1e-4,-1e-5\nn_max = 12\nk = 2\np_ph = 0.1\np_m = 0\n"
            "c1 = 1e6\n"
        )
        assert _run(tmp_path, "tradeoff", cfg) == 4
        assert capsys.readouterr().err == (
            "model error: [tradeoff] k = 2: gate |theta_L| = 0.0001, n_rus = 3: "
            "delta must lie in (0, 1)\n"
        )
        assert not (tmp_path / "tradeoff.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_largest_k_runs(self, tmp_path):
        # 1 / p_ideal overflowed in the latency clocks from about k = 1029
        cfg = TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 0.196").replace(
            "n_max = 8", "n_max = 1"
        ).replace("k = 7", f"k = {tmr.MAX_K}")
        assert _run(tmp_path, "tradeoff", cfg) == 0
        lines = (tmp_path / "tradeoff.csv").read_text().strip().split("\n")[1:]
        assert [int(line.split(",")[1]) for line in lines][:2] == [0, 1]
        assert all(math.isfinite(float(cell)) for line in lines for cell in line.split(","))


class TestBound:
    @pytest.mark.parametrize("alpha", ["0.1", "smm"])
    def test_underflowing_rotation_cost_is_unbounded(self, tmp_path, alpha):
        # the rotation cost rate alpha * theta_star * p_ph underflows to 0 for v2 and v3,
        # so their frontier is unbounded until N_T alone spends the budget
        cfg = BOUND_CFG.replace("theta_star = 1e-5", "theta_star = 1e-320").replace(
            "alpha_v3 = 0.1", f"alpha_v3 = {alpha}"
        )
        assert _run(tmp_path, "bound", cfg) == 0
        rows = [line.split(",") for line in
                (tmp_path / "bound.csv").read_text().strip().split("\n")[1:]]
        n_r = {(arch, float(n_t)): n_r for arch, n_t, n_r in rows}
        assert n_r[("v2", 1.0)] == n_r[("v3", 1.0)] == n_r[("v3", 1e8)] == "inf"
        # v3 spends 2e-9 per T-gate, so 1e9 of them exhaust the budget
        assert n_r[("v3", 1e9)] == "0.0000000000000000e+00"
        assert all(math.isfinite(float(n_r[(arch, 1.0)])) for arch in ("v1", "ftqc-cultivation"))

    def test_four_architectures(self, tmp_path):
        assert _run(tmp_path, "bound", BOUND_CFG) == 0
        lines = (tmp_path / "bound.csv").read_text().strip().split("\n")[1:]
        archs = {l.split(",")[0] for l in lines}
        assert archs == {"v1", "v2", "v3", "ftqc-cultivation"}

    def test_unknown_architecture(self, tmp_path):
        cfg = BOUND_CFG + "architectures = v1,warpdrive\n"
        assert _run(tmp_path, "bound", cfg) == 2


class TestTepai:
    def test_reference_rows(self, tmp_path):
        assert _run(tmp_path, "tepai", TEPAI_CFG) == 0
        lines = (tmp_path / "tepai.csv").read_text().strip().split("\n")
        assert lines[0].startswith("system,lambda,T,Q,eps,d,")
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert row["system"] == "4Fe-4S"
        assert int(row["d"]) == 23
        assert int(row["phys_qubits"]) == 189382
        summary = json.loads((tmp_path / "tepai_summary.json").read_text())
        assert summary["solved"] == 2 and summary["failed"] == 0

    def test_all_rows_failing_exits_3(self, tmp_path):
        cfg = TEPAI_CFG + "p_ph = 9e-3\n"
        assert _run(tmp_path, "tepai", cfg) == 3

    def test_smm_alpha_on_molecule_config(self, tmp_path):
        # TE-PAI's angle exceeds theta_th = 0.01 at T = 1; those rows route
        # to pure synthesis instead of failing the run
        cfg = (CONFIGS / "tepai_molecules.cfg").read_text().replace("alpha = 0.1", "alpha = smm")
        assert _run(tmp_path, "tepai", cfg) == 0
        summary = json.loads((tmp_path / "tepai_summary.json").read_text())
        assert summary["rows"] == summary["solved"] == 30
        assert summary["failed"] == 0

    def test_summary_is_strict_json(self, tmp_path, capsys):
        # total_s overflows to inf at alpha = 1e300; the summary writes null
        cfg = TEPAI_CFG.replace("alpha = 0.1", "alpha = 1e300")
        assert _run(tmp_path, "tepai", cfg) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "tepai_summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["max_total_days"] is None
        assert summary["solved"] == 2
        err = capsys.readouterr().err
        assert "[tepai] row 4Fe-4S, T = 1.0: total_s overflows to inf" in err
        assert "[tepai] row 4Fe-4S, T = 10.0: total_s overflows to inf" in err

    @pytest.mark.parametrize(
        "setting,quantity",
        [
            ("epsilon = 1e-300", "eps^2 underflows to 0 at epsilon = 1e-300"),
            ("p_ph = 1e-300",
             "the per-cycle logical error rate underflows to 0 at p_ph = 1e-300, d = 3"),
            ("q = 1000", "gamma_inf^2 = e^Q overflows at Q = 1000.0000000000002"),
        ],
        ids=["epsilon", "p_ph", "q"],
    )
    def test_underflow_names_the_row(self, tmp_path, capsys, setting, quantity):
        # the row, then the quantity that left the float range
        assert _run(tmp_path, "tepai", TEPAI_CFG + f"{setting}\n") == 4
        assert capsys.readouterr().err == (
            f"model error: [tepai] row 4Fe-4S, T = 1.0: {quantity}\n")

    @pytest.mark.parametrize(
        "t,lam_grid,message",
        [
            ("1", "1e-300,1e-290,1",
             "row lambda=1e-300, T = 1.0: delta must lie in (0, pi/2), got 1.5707963267948966"),
            ("1e-200", "1e-200,1e-190,1",
             "row lambda=1e-200, T = 1e-200: lambda*T must be positive"),
        ],
        ids=["angle", "instance"],
    )
    def test_library_value_error_names_the_row(self, tmp_path, capsys, t, lam_grid, message):
        # lambda T is so small that the TE-PAI angle rounds to pi/2, or lambda T underflows to 0
        cfg = f"[tepai]\nt = {t}\nlam_grid = {lam_grid}\nn_l = 72\nalpha = 0.1\n"
        assert _run(tmp_path, "tepai", cfg) == 4
        assert capsys.readouterr().err == f"model error: [tepai] {message}\n"

    def test_zero_lambda_grid_density_is_config_error(self, tmp_path, capsys):
        cfg = "[tepai]\nt = 1\nlam_grid = 10,100,0\nn_l = 72\nalpha = 0.1\n"
        assert _run(tmp_path, "tepai", cfg) == 2
        assert "lam_grid points_per_decade" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token,reason",
        [("hubbard:abc", " needs an integer lattice size L"),
         ("hubbard:3.0", " needs an integer lattice size L"),
         ("hubbard:0", ", hubbard_t = 1.0, hubbard_u = 4.0: periodic boundaries need L >= 3"),
         ("hubbard:-3", ", hubbard_t = 1.0, hubbard_u = 4.0: periodic boundaries need L >= 3"),
         ("hubbard:2", ", hubbard_t = 1.0, hubbard_u = 4.0: periodic boundaries need L >= 3")],
        ids=["hubbard:abc", "hubbard:3.0", "hubbard:0", "hubbard:-3", "hubbard:2"],
    )
    def test_bad_hubbard_size_is_config_error(self, tmp_path, capsys, token, reason):
        # the text must parse as an integer; hamcat's lattice rule refuses L < 3
        cfg = f"[tepai]\nsystems = {token}\nt = 1\nalpha = 0.1\n"
        assert _run(tmp_path, "tepai", cfg) == 2
        assert f"config error: [tepai] systems: {token!r}{reason}" in capsys.readouterr().err
        assert not (tmp_path / "tepai.csv").exists()

    @pytest.mark.parametrize(
        "command,cfg,key",
        [("tepai", TEPAI_CFG, "alpha"), ("bound", BOUND_CFG, "alpha_v3")],
        ids=["tepai", "bound"],
    )
    def test_bad_alpha_is_config_error(self, tmp_path, capsys, command, cfg, key):
        cfg = cfg.replace(f"{key} = 0.1", f"{key} = fast")
        assert _run(tmp_path, command, cfg) == 2
        assert f"[{command}] {key} = 'fast' is not a number or 'smm'" in capsys.readouterr().err

    def test_hubbard_and_lambda_grid_sources(self, tmp_path):
        cfg = """\
[tepai]
systems = hubbard:4
t = 1
lam_grid = 10,100,1
n_l = 72
alpha = 0.1
"""
        assert _run(tmp_path, "tepai", cfg) == 0
        lines = (tmp_path / "tepai.csv").read_text().strip().split("\n")[1:]
        names = [l.split(",")[0] for l in lines]
        assert names[0] == "hubbard-4x4"
        assert len(names) == 1 + 2  # hubbard + two lambda grid points

    @pytest.mark.parametrize("u_int", ["0", "5e-324"])
    def test_zero_hubbard_couplings_are_a_config_error(self, tmp_path, capsys, u_int):
        # lambda = (4t + U/4) L^2 = 0 (U/4 underflows for the least float): the size is fine
        cfg = TEPAI_CFG.replace("4Fe-4S", "hubbard:3") + f"hubbard_t = 0\nhubbard_u = {u_int}\n"
        assert _run(tmp_path, "tepai", cfg) == 2
        assert capsys.readouterr().err == (
            f"config error: [tepai] systems: 'hubbard:3', hubbard_t = 0.0, "
            f"hubbard_u = {float(u_int)!r}: lambda must be positive\n"
        )
        assert not (tmp_path / "tepai.csv").exists()

    @pytest.mark.parametrize(
        "couplings,lam",
        [("hubbard_u = 8\n", 600.0), ("hubbard_t = 0.5\n", 300.0),
         ("hubbard_t = 0.5\nhubbard_u = 8\n", 400.0)],
        ids=["u", "t", "t-u"],
    )
    def test_hubbard_couplings_set_lambda(self, tmp_path, couplings, lam):
        # lambda = (4t + U/4) L^2 with defaults t = 1, U = 4
        cfg = TEPAI_CFG.replace("4Fe-4S", "hubbard:10") + couplings
        assert _run(tmp_path, "tepai", cfg) == 0
        lines = (tmp_path / "tepai.csv").read_text().strip().split("\n")[1:]
        assert {float(line.split(",")[1]) for line in lines} == {lam}


class TestDomainErrors:
    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("tradeoff", TRADEOFF_CFG.replace("k = 7", "k = 1"), "[tradeoff] k = '1' must be >= 2"),
            ("tradeoff", TRADEOFF_CFG.replace("k = 7", "k = 1025"),
             "[tradeoff] k = '1025' must be <= 1024"),
            ("alpha-sweep", ALPHA_CFG.replace("k = 5,7", "k = 5,1025"),
             "[alpha_sweep] k = '5,1025' must be <= 1024"),
            ("tradeoff", TRADEOFF_CFG.replace("n_max = 8", "n_max = -3"),
             "[tradeoff] n_max = '-3' must be >= 0"),
            ("alpha-sweep", ALPHA_CFG.replace("k = 5,7", "k = 5,1"),
             "[alpha_sweep] k = '5,1' must be >= 2"),
            ("alpha-sweep", ALPHA_CFG.replace("p_m = 0", "p_m = 5e-3"),
             "[alpha_sweep] p_m = '5e-3' must be <= 0.001"),
            ("tepai", TEPAI_CFG + "q = 0\n", "[tepai] q = '0' must be > 0"),
            ("bound", BOUND_CFG.replace("alpha_v3 = 0.1", "alpha_v3 = 0"),
             "[bound] alpha_v3 = '0' must be > 0"),
            ("bound", BOUND_CFG.replace("alpha_v3 = 0.1", "alpha_v3 = -2"),
             "[bound] alpha_v3 = '-2' must be > 0"),
            ("tepai", TEPAI_CFG.replace("4Fe-4S", "hubbard:4") + "hubbard_t = -1\n",
             "[tepai] hubbard_t = '-1' must be >= 0"),
            ("tepai", TEPAI_CFG.replace("4Fe-4S", "hubbard:4") + "hubbard_t = -0.1\n",
             "[tepai] hubbard_t = '-0.1' must be >= 0"),
            ("bound", BOUND_CFG + "p_m = -1\n", "[bound] p_m = '-1' must be >= 0"),
            ("tepai", TEPAI_CFG + "epsilon = 1.5\n", "[tepai] epsilon = '1.5' must be < 1"),
            ("tepai", TEPAI_CFG + "c_smm = 0\n", "[tepai] c_smm = '0' must be > 0"),
            ("alpha-sweep", ALPHA_CFG.replace("theta_l_min = 1e-6", "theta_l_min = 0"),
             "[alpha_sweep] theta_l_min = '0' must be > 0"),
            ("tradeoff", TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 0"),
             "[tradeoff] theta_l = '0' must be non-zero"),
            ("alpha-sweep", ALPHA_CFG + "p_ph = 0.5\n",
             "[alpha_sweep] p_ph = '0.5' must be <= 0.1"),
            ("alpha-sweep", ALPHA_CFG + "p_ph = 0\n", "[alpha_sweep] p_ph = '0' must be > 0"),
            ("tradeoff", TRADEOFF_CFG + "p_ph = 0.5\n", "[tradeoff] p_ph = '0.5' must be <= 0.1"),
            ("tradeoff", TRADEOFF_CFG + "p_ph = 0\n", "[tradeoff] p_ph = '0' must be > 0"),
            ("bound", BOUND_CFG + "p_ph = 0.5\n", "[bound] p_ph = '0.5' must be <= 0.1"),
            ("bound", BOUND_CFG + "p_ph = 0\n", "[bound] p_ph = '0' must be > 0"),
            ("tepai", TEPAI_CFG + "p_ph = 0.05\n", "[tepai] p_ph = '0.05' must be < 0.01"),
            ("tepai", TEPAI_CFG.replace("t = 1,10", "t = 0"), "[tepai] t = '0' must be > 0"),
            ("tepai", TEPAI_CFG.replace("t = 1,10", "t = 1,-2"),
             "[tepai] t = '1,-2' must be > 0"),
            ("tradeoff", TRADEOFF_CFG + "delta_sweep = 1e-6,2\n",
             "[tradeoff] delta_sweep = '1e-6,2' must be < 1"),
            ("bound", BOUND_CFG.replace("theta_star = 1e-5", "theta_star = 1"),
             "[bound] theta_star = '1' must be <= 0.785"),
            ("bound", BOUND_CFG.replace("theta_star = 1e-5", "theta_star = 0"),
             "[bound] theta_star = '0' must be > 0"),
            ("bound", BOUND_CFG + "p_m = 0\n", "[bound] p_m = '0' must be > 0"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 0,100,1\nn_l = 72\nalpha = 0.1\n",
             "[tepai] lam_grid = '0,100,1' must be > 0"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 10,-1,1\nn_l = 72\nalpha = 0.1\n",
             "[tepai] lam_grid = '10,-1,1' must be > 0"),
            ("tradeoff", TRADEOFF_CFG.replace("c1 = calibrated", "c1 = -1"),
             "[tradeoff] c1 = '-1' must be >= 0"),
            # C(k, 1) c1 p_ph would overflow in the TMR branch weights
            ("alpha-sweep", ALPHA_CFG.replace("c1 = calibrated", "c1 = 1e308"),
             "[alpha_sweep] c1 = '1e308' must be <= 1e+300"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1,10,1\nn_l = 0\nalpha = 0.1\n",
             "[tepai] n_l = '0' must be >= 1"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1,10,1\nn_l = -3\nalpha = 0.1\n",
             "[tepai] n_l = '-3' must be >= 1"),
            # the couplings are read once, whether or not a hubbard:L system is listed
            ("tepai", TEPAI_CFG + "hubbard_u = -4\n", "[tepai] hubbard_u = '-4' must be >= 0"),
        ],
        ids=[
            "tradeoff-k", "tradeoff-k-large", "alpha_sweep-k-large", "tradeoff-n_max",
            "alpha_sweep-k", "alpha_sweep-p_m", "tepai-q",
            "bound-alpha_v3-zero", "bound-alpha_v3-negative", "tepai-hubbard_t",
            "tepai-hubbard_t-small", "bound-p_m", "tepai-epsilon", "tepai-c_smm",
            "alpha_sweep-theta_l_min", "tradeoff-theta_l-zero",
            "alpha_sweep-p_ph-large", "alpha_sweep-p_ph-zero-calibrated",
            "tradeoff-p_ph-large", "tradeoff-p_ph-zero-calibrated",
            "bound-p_ph-large", "bound-p_ph-zero", "tepai-p_ph", "tepai-t-zero",
            "tepai-t-negative", "tradeoff-delta_sweep", "bound-theta_star-large",
            "bound-theta_star-zero", "bound-p_m-zero-cultivation", "tepai-lam_grid-min",
            "tepai-lam_grid-max", "tradeoff-c1-negative", "alpha_sweep-c1-large",
            "tepai-n_l-zero", "tepai-n_l-negative",
            "tepai-hubbard_u-without-hubbard",
        ],
    )
    def test_out_of_domain_value_names_key(self, tmp_path, capsys, command, cfg, message):
        assert _run(tmp_path, command, cfg) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("bound", BOUND_CFG.replace("alpha_v3 = 0.1", "alpha_v3 = nan"),
             "[bound] alpha_v3 = 'nan' must be finite"),
            ("alpha-sweep", ALPHA_CFG.replace("theta_l_max = 1e-4", "theta_l_max = inf"),
             "[alpha_sweep] theta_l_max = 'inf' must be finite"),
            ("tradeoff", TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = 1e-5,nan"),
             "[tradeoff] theta_l = '1e-5,nan' must be finite"),
            ("tradeoff", TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = inf"),
             "[tradeoff] theta_l = 'inf' must be finite"),
            ("tradeoff", TRADEOFF_CFG.replace("c1 = calibrated", "c1 = nan"),
             "[tradeoff] c1 = 'nan' must be finite"),
            ("tradeoff", TRADEOFF_CFG.replace("k = 7", f"k = {10 ** 400}"),
             f"[tradeoff] k = '{10 ** 400}' must be finite"),
            ("alpha-sweep", ALPHA_CFG.replace("k = 5,7", f"k = 5,{10 ** 400}"),
             f"[alpha_sweep] k = '5,{10 ** 400}' must be finite"),
        ],
        ids=["bound-alpha_v3", "alpha_sweep-theta_l_max", "tradeoff-theta_l-nan",
             "tradeoff-theta_l-inf", "tradeoff-c1-nan", "tradeoff-k-huge", "alpha_sweep-k-huge"],
    )
    def test_non_finite_value_names_key(self, tmp_path, capsys, command, cfg, message):
        assert _run(tmp_path, command, cfg) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("alpha-sweep", ALPHA_CFG.replace("theta_l_max = 1e-4", "theta_l_max = 1e-7"),
             "[alpha_sweep] theta_l_min = 1e-06 must be <= theta_l_max = 1e-07"),
            ("bound", BOUND_CFG.replace("n_t_min = 1", "n_t_min = 1e10"),
             "[bound] n_t_min = 10000000000.0 must be <= n_t_max = 1000000000.0"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 10,1,1\nn_l = 72\nalpha = 0.1\n",
             "[tepai] lam_grid min = 10.0 must be <= max = 1.0"),
        ],
        ids=["alpha_sweep-theta_l", "bound-n_t", "tepai-lam_grid"],
    )
    def test_reversed_grid_bounds_name_keys(self, tmp_path, capsys, command, cfg, message):
        assert _run(tmp_path, command, cfg) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("alpha-sweep", ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_rati"),
             "[alpha_sweep] mode"),
            ("alpha-sweep", ALPHA_CFG.replace("ratio = 128\n", ""), "[alpha_sweep] ratio"),
            ("alpha-sweep", ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_threshold"),
             "[alpha_sweep] theta_th"),
            ("alpha-sweep", ALPHA_CFG.replace("k = 5,7", "k = ,"), "[alpha_sweep] k"),
            ("tradeoff", TRADEOFF_CFG.replace("theta_l = 1e-5", "theta_l = ,"),
             "[tradeoff] theta_l"),
            ("bound", BOUND_CFG + "architectures = v4\n", "[bound] architectures"),
            ("bound", BOUND_CFG + "architectures = ,\n", "[bound] architectures"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1,10\nn_l = 72\nalpha = 0.1\n",
             "[tepai] lam_grid"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1,10,1\nalpha = 0.1\n", "[tepai] n_l"),
            ("tepai", TEPAI_CFG.replace("4Fe-4S", "FeS"), "[tepai] systems"),
            ("tepai", TEPAI_CFG.replace("t = 1,10", "t = ,"), "[tepai] t"),
            ("tepai", "[tepai]\nt = 1\nalpha = 0.1\n", "[tepai] systems"),
        ],
        ids=[
            "alpha_sweep-mode", "alpha_sweep-ratio-missing", "alpha_sweep-theta_th-missing",
            "alpha_sweep-k-empty", "tradeoff-theta_l-empty", "bound-architectures-unknown",
            "bound-architectures-empty", "tepai-lam_grid-length", "tepai-n_l-missing",
            "tepai-systems-unknown", "tepai-t-empty", "tepai-systems-none",
        ],
    )
    def test_config_error_names_key(self, tmp_path, capsys, command, cfg, key):
        assert _run(tmp_path, command, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}")
        assert '"' not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("alpha-sweep", ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_rati"),
             "[alpha_sweep] mode = 'fixed_rati' is not one of 'fixed_ratio', 'fixed_threshold'"),
            ("bound", BOUND_CFG + "architectures = v1,warpdrive\n",
             "[bound] architectures = 'v1,warpdrive' is not a list of "
             "'v1', 'v2', 'v3', 'ftqc-cultivation'"),
            ("tepai", TEPAI_CFG.replace("4Fe-4S", ",") + "lam_grid = 10,100,1\nn_l = 72\n",
             "[tepai] systems = ',' must list at least one value"),
        ],
        ids=["alpha_sweep-mode", "bound-architectures", "tepai-systems-empty"],
    )
    def test_name_error_lists_allowed_names(self, tmp_path, capsys, command, cfg, message):
        assert _run(tmp_path, command, cfg) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_numeric_c1_allows_zero_p_ph(self, tmp_path):
        # p_ph = 0 only rules out calibrating c1
        cfg = ALPHA_CFG.replace("c1 = calibrated", "c1 = 0.04") + "p_ph = 0\n"
        assert _run(tmp_path, "alpha-sweep", cfg) == 0

    def test_p_m_zero_allowed_without_cultivation(self, tmp_path):
        cfg = BOUND_CFG + "p_m = 0\narchitectures = v1,v2,v3\n"
        assert _run(tmp_path, "bound", cfg) == 0


def _default_tepai_rows():
    """The rows of a [tepai] config that sets only systems and t, from the library's defaults."""
    entries = {entry.name: entry for entry in hamcat.catalog()}
    default = tepai.TepaiInstance  # class-attribute field defaults, read as cmd_tepai reads them
    rows = []
    for name, entry in (("2Fe-2S", entries["2Fe-2S"]), ("hubbard-10x10", entries["Hubbard"])):
        for t in (1.0, 10.0):
            est = tepai.estimate(tepai.TepaiInstance(entry.lam, t, entry.n_l, alpha_model=0.1))
            rows.append((name, entry.lam, t, default.q, default.epsilon, est.d,
                         est.n_patch, est.physical_qubits, est.single_shot_seconds,
                         est.total_seconds, est.p_total))
    return rows


def _default_bound_rows():
    """The rows of an empty [bound], with no p_ph or p_m passed to the library."""
    grid = cli._log_grid("bound", "n_t_min", "n_t_max", "points_per_decade", 1.0, 1e10, 4)
    return [(arch, n_t, n_r) for arch in mitigation.ARCHITECTURES
            for n_t, n_r in mitigation.feasible_boundary(arch, 1e-5, grid, alpha_model=0.1)]


def _default_tradeoff_rows():
    """The rows of a [tradeoff] without p_m, with no p_m passed to the library."""
    params = tmr.TmrParams(k=5, p_ph=2e-3, pass_coeffs=(0.3,))
    rates = smm.error_rates(params, np.full(7, 1e-5), 1e-5 * 2.0 ** np.arange(7),
                            timing_mode="latency")
    rows = [(1e-5, n, p_l, clocks) for n, (p_l, clocks)
            in enumerate(zip(rates.p_l.tolist(), rates.expected_clocks.tolist()))]
    return rows + [(1e-5, -(j + 1), *smm.synthesis_only_gate(delta))
                   for j, delta in enumerate((1e-6, 1e-5))]


class TestConfigReader:
    def test_reader_is_asked_for_exactly_the_declared_keys(self, tmp_path, monkeypatch):
        asked = {}
        read = cli._get_value

        def recording(cfg, section, key, *args, **kwargs):
            asked.setdefault(section, set()).add(key)
            return read(cfg, section, key, *args, **kwargs)

        monkeypatch.setattr(cli, "_get_value", recording)
        runs = [
            ("alpha-sweep", ALPHA_CFG + "higher_orders = off\n"),
            ("alpha-sweep", ALPHA_CFG.replace("mode = fixed_ratio", "mode = fixed_threshold")
             .replace("ratio = 128", "theta_th = 0.01")),
            ("tradeoff", TRADEOFF_CFG),
            ("bound", BOUND_CFG.replace("alpha_v3 = 0.1", "alpha_v3 = smm")),
            ("tepai", TEPAI_CFG.replace("4Fe-4S", "hubbard:4,4Fe-4S")
             + "lam_grid = 10,100,1\nn_l = 72\n"),
            ("verify", "[verify]\n"),
        ]
        for i, (command, cfg) in enumerate(runs):
            out = tmp_path / str(i)
            out.mkdir()
            assert _run(out, command, cfg) == 0
        assert asked == cli._KNOWN_KEYS

    # each config leaves unset every key whose CLI default mirrors a library default
    @pytest.mark.parametrize("command,cfg,csv,expected", [
        ("tepai", "[tepai]\nsystems = 2Fe-2S,hubbard:10\nt = 1,10\n", "tepai.csv",
         _default_tepai_rows),
        ("bound", "[bound]\n", "bound.csv", _default_bound_rows),
        ("tradeoff", "[tradeoff]\ntheta_l = 1e-5\nn_max = 6\nk = 5\np_ph = 2e-3\nc1 = 0.3\n"
         "delta_sweep = 1e-6,1e-5\n", "tradeoff.csv", _default_tradeoff_rows),
    ], ids=["tepai", "bound", "tradeoff"])
    def test_unset_key_means_the_library_default(self, tmp_path, command, cfg, csv, expected):
        assert _run(tmp_path, command, cfg) == 0
        lines = (tmp_path / csv).read_text().strip().split("\n")[1:]
        rows = expected()
        assert len(lines) == len(rows)
        # every cell parsed as its expected type and compared with ==
        assert [tuple(type(want)(cell) for cell, want in zip(line.split(","), row))
                for line, row in zip(lines, rows)] == rows


class TestExitCodes:
    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_model_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("frontier out of range")

        monkeypatch.setattr(cli.mitigation, "feasible_boundary", broken)
        assert _run(tmp_path, "bound", BOUND_CFG) == 4
        assert capsys.readouterr().err == (
            "model error: [bound] theta_star = 1e-05, architecture v1: frontier out of range\n"
        )
        assert _run(tmp_path, "bound", BOUND_CFG + "p_m = -1\n") == 2
        assert "config error: [bound] p_m = '-1'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command,cfg,code",
        [
            ("tepai", TEPAI_CFG + "epsilon = 1e-300\n", 4),
            ("tepai", TEPAI_CFG + "p_ph = 1e-300\n", 4),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1e-300,1e300,1\nn_l = 72\nalpha = 0.1\n", 4),
            ("alpha-sweep", ALPHA_CFG + "p_ph = 1e-320\n", 4),
            ("alpha-sweep", ALPHA_CFG.replace("k = 5,7", "k = 1e300"), 2),
        ],
        ids=["tepai-epsilon", "tepai-p_ph", "tepai-lam_grid", "alpha_sweep-p_ph",
             "alpha_sweep-k"],
    )
    def test_float_range_failure_is_not_a_traceback(self, tmp_path, capsys, command, cfg, code):
        # underflow to zero and overflow to infinity inside the models
        assert _run(tmp_path, command, cfg) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("model error: " if code == 4 else "config error: ")

    @pytest.mark.parametrize(
        "command,cfg,k",
        [
            ("alpha-sweep", ALPHA_CFG, 5),
            ("tradeoff", TRADEOFF_CFG, 7),
            ("bound", BOUND_CFG.replace("alpha_v3 = 0.1", "alpha_v3 = smm"), 7),
            ("tepai", TEPAI_CFG.replace("alpha = 0.1", "alpha = smm"), 7),
        ],
        ids=["alpha_sweep", "tradeoff", "bound", "tepai"],
    )
    def test_failed_calibration_names_p_ph_and_k(self, tmp_path, capsys, command, cfg, k):
        # theta_L p_ph would underflow to 0 in the previous-generation RUS factor
        section = command.replace("-", "_")
        assert _run(tmp_path, command, cfg + "p_ph = 1e-320\n") == 4
        assert capsys.readouterr().err == (
            f"model error: [{section}] p_ph = 1e-320, k = {k}: "
            "calibrating c1: need 1e-05 * p_ph > 0, got p_ph = 1e-320\n"
        )

    def test_file_as_out_is_a_config_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert cli.main(["verify", "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {str(afile)!r} is not a usable directory")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,cfg,name",
        [
            ("alpha-sweep", ALPHA_CFG, "alpha_sweep.csv"),
            ("tradeoff", TRADEOFF_CFG, "tradeoff.csv"),
            ("bound", BOUND_CFG, "bound.csv"),
            ("tepai", TEPAI_CFG, "tepai.csv"),
            ("verify", None, "verify_report.json"),
        ],
        ids=["alpha_sweep", "tradeoff", "bound", "tepai", "verify"],
    )
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, command, cfg, name):
        (tmp_path / name).mkdir()
        assert _run(tmp_path, command, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {str(tmp_path / name)!r}: ")
        assert "Traceback" not in err

    def test_missing_config_creates_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        argv = ["alpha-sweep", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: config file not found")
        assert not out.exists()

    # one example's budget is the deadline; CI runs this test alone under the larger
    # "exit-codes" profile (tests/conftest.py)
    @settings(deadline=timedelta(seconds=5))
    @given(st.sampled_from(sorted(SHIPPED_SECTIONS)).flatmap(lambda name: st.tuples(
        st.just(name),
        st.dictionaries(st.sampled_from(sorted(cli._KNOWN_KEYS[SHIPPED_SECTIONS[name]])),
                        st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=3))))
    # a grid density past memory, once a MemoryError out of main
    @example(("alpha_fixed_ratio", {"points_per_decade": "99999999999999999999"}))
    @example(("bound", {"points_per_decade": "99999999999999999999"}))
    # once numpy overflow warnings: NaN branch weights, an inf threshold
    @example(("alpha_finite_pm", {"c1": "1e308"}))
    @example(("alpha_fixed_ratio", {"theta_l_max": "1e308"}))
    # once Python's bare "float division by zero" and "math range error"
    @example(("tepai_molecules", {"epsilon": "1e-320"}))
    @example(("tepai_molecules", {"p_ph": "1e-320"}))
    @example(("tepai_molecules", {"q": "1_000"}))
    def test_mutated_shipped_config_keeps_the_exit_code_contract(self, case):
        # exit 0, 2, 3 or 4 and no exception; exits 2 and 4 name the section, and a
        # model error names the quantity that failed, not only the float error
        name, mutations = case
        section = SHIPPED_SECTIONS[name]
        parser = _shipped(name)
        parser[section].update(mutations)
        with tempfile.TemporaryDirectory() as out:
            cfg = Path(out) / "mutated.cfg"
            with cfg.open("w") as handle:
                parser.write(handle)
            argv = [section.replace("_", "-"), "--config", str(cfg), "--out", out]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                with _address_space_limit():
                    code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        if code in (2, 4):
            last = err.getvalue().splitlines()[-1]
            assert f"[{section}]" in last
            assert not last.endswith(BARE_FLOAT_ERRORS)

    @pytest.mark.parametrize(
        "command,cfg,key,interval",
        [
            ("alpha-sweep",
             ALPHA_CFG.replace("points_per_decade = 2", "points_per_decade = 50001"),
             "[alpha_sweep] points_per_decade = 50001", "[1e-06, 0.0001]"),
            ("bound", BOUND_CFG.replace("points_per_decade = 1", "points_per_decade = 11112"),
             "[bound] points_per_decade = 11112", "[1.0, 1000000000.0]"),
            ("tepai", "[tepai]\nt = 1\nlam_grid = 1,10,1e20\nn_l = 72\nalpha = 0.1\n",
             "[tepai] lam_grid points_per_decade = 100000000000000000000", "[1.0, 10.0]"),
        ],
        ids=["alpha_sweep", "bound", "tepai"],
    )
    def test_grid_past_the_point_cap_names_its_density_key(
        self, tmp_path, capsys, command, cfg, key, interval
    ):
        with _address_space_limit():
            assert _run(tmp_path, command, cfg) == 2
        assert capsys.readouterr().err == (
            f"config error: {key} gives more than {cli._MAX_GRID_POINTS} grid points over "
            f"{interval}\n")

    def test_grid_point_cap_is_inclusive(self):
        # one decade at ppd points per decade has ppd + 1 points
        grid = cli._log_grid("bound", "n_t_min", "n_t_max", "points_per_decade", 1.0, 10.0,
                             cli._MAX_GRID_POINTS - 1)
        assert len(grid) == cli._MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError, match=f"= {cli._MAX_GRID_POINTS} gives more than"):
            cli._log_grid("bound", "n_t_min", "n_t_max", "points_per_decade", 1.0, 10.0,
                          cli._MAX_GRID_POINTS)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_are_accepted(self, tmp_path, seed):
        assert _run(tmp_path, "verify", None, seed=seed) == 0

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, "abc"])
    def test_seed_outside_u64_is_refused(self, tmp_path, capsys, seed):
        # seeds that differ by 2^64 would key the same Philox stream
        with pytest.raises(SystemExit) as exit_info:
            _run(tmp_path, "verify", None, seed=seed)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: '{seed}' is not an integer in [0, 2^64)" in err
        assert not (tmp_path / "verify_report.json").exists()


class TestVerify:
    def test_passes_with_defaults(self, tmp_path):
        assert _run(tmp_path, "verify", None, seed=9) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert all(entry["pass"] for entry in report.values())

    def test_runs_every_check_once_in_report_order(self, tmp_path, capsys):
        names = [
            "tepai_identities", "tepai_gate_count_minimum", "channel_algebra",
            "tmr_branch_table", "pcec_residual_oracle", "smm_enumeration_oracle", "smm_monte_carlo",
            "switch_probability_bounds", "hubbard_l1_norm", "bound_intercepts",
            "timing_anchor", "c1_calibration",
        ]
        assert _run(tmp_path, "verify", None, seed=9) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines[:-1]] == [f"PASS  {n}" for n in names]
        assert lines[-1] == "verify: all checks passed"
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert sorted(report) == sorted(names)

    def test_tampered_c1_detected(self, tmp_path):
        cfg = "[verify]\nc1 = 0.9\n"
        assert _run(tmp_path, "verify", cfg, seed=9) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert not report["c1_calibration"]["pass"]

    def test_failed_calibration_is_a_model_error(self, tmp_path, capsys, monkeypatch):
        original = smm.v2_octave_average
        monkeypatch.setattr(smm, "v2_octave_average", lambda *args: original(*args) + 1e-3)
        smm._calibrated_c1.cache_clear()
        assert _run(tmp_path, "verify", None, seed=9) == 4
        assert capsys.readouterr().err.startswith("model error: calibrated c1 =")
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize(
        "check,module,name,broken",
        [
            ("smm_enumeration_oracle", smm, "enumerate_error_rate",
             lambda original, config: 2.0 * original(config)),
            # the noisy channel without its canceller
            ("pcec_residual_oracle", pcec, "composed_error_channel",
             lambda original, *row: pcec.build_noisy_channel(*row)),
            # a bias of ten standard errors
            ("smm_monte_carlo", smm, "monte_carlo",
             lambda original, *args: dataclasses.replace(
                 rep := original(*args), p_l_hat=rep.p_l_hat + 10.0 * rep.p_l_se)),
            ("tepai_identities", tepai, "sampling_overhead",
             lambda original, *args: 1.001 * original(*args)),
            ("hubbard_l1_norm", hamcat, "l1_norm",
             lambda original, terms: 1.001 * original(terms)),
            # the array path behind the sweep CSVs: its k = 3 gates miss the bound 11-20x;
            # pcec.residual_rate is its one-row form, which the pcec check reads
            (("smm_enumeration_oracle", "pcec_residual_oracle"), pcec, "residual_rates",
             lambda original, *args: 1.01 * original(*args)),
            ("channel_algebra", zchan, "worst_case_vs_pauli_model",
             lambda original, *args: 1.0 + original(*args)),
            # only on the check's own mixtures, whose lowest-angle weight is q:
            # the pcec check calls it too
            ("channel_algebra", zchan, "twirled_z_error",
             lambda original, channel, target: original(channel, target)
                 + 1e-12 * (channel.branches[0][0] in (0.01, 0.05, 0.1))),
            # a sample without spread that misses P_L
            ("smm_monte_carlo", smm, "monte_carlo",
             lambda original, config, shots, seed:
                 smm.McReport(shots, seed, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
            # a new seed on every call
            ("smm_monte_carlo", smm, "monte_carlo",
             lambda original, config, shots, seed, calls=itertools.count():
                 original(config, shots, seed + next(calls))),
            # only on the check's own inputs: the tepai and SMM checks call these too
            ("switch_probability_bounds", smm, "n_rus",
             lambda original, theta_l, theta_th:
                 original(theta_l, theta_th) + ((theta_l, theta_th) == (3e-4, 0.01))),
            ("tepai_gate_count_minimum", tepai, "gate_count",
             lambda original, lam_t, delta:
                 original(lam_t, delta) * (0.999 if lam_t == 37.0 else 1.0)),
            ("timing_anchor", smm, "effective_error_rate",
             lambda original, config: dataclasses.replace(
                 rep := original(config), expected_clocks=rep.expected_clocks + 1.0)
             if config.threshold_ratio == 64.0 else original(config)),
            ("bound_intercepts", mitigation, "feasible_boundary",
             lambda original, *args: [(n_t, 1.001 * n_r) for n_t, n_r in original(*args)]),
            # NaN fails closed: no comparison with it holds, and max() would drop it
            ("smm_enumeration_oracle", smm, "enumerate_error_rate", lambda original, config: math.nan),
            ("pcec_residual_oracle", pcec, "residual_rate", lambda original, model: math.nan),
            ("tepai_identities", tepai, "sampling_overhead", lambda original, *args: math.nan),
            ("hubbard_l1_norm", hamcat, "l1_norm", lambda original, terms: math.nan),
            ("channel_algebra", zchan, "worst_case_vs_pauli_model", lambda original, *args: math.nan),
            ("bound_intercepts", mitigation, "feasible_boundary",
             lambda original, *args: [(n_t, math.nan) for n_t, _ in original(*args)]),
            # only on the check's own tables, at p_ph = 1e-2: every SMM gate reads branch_table
            ("tmr_branch_table", tmr, "branch_table",
             lambda original, params, theta_l: (
                 (tab := original(params, theta_l))[0], tab[1] * (1.0 + 1e-13), tab[2])
             if params.p_ph == 1e-2 else original(params, theta_l)),
            ("tmr_branch_table", tmr, "branch_table",
             lambda original, params, theta_l: (
                 (tab := original(params, theta_l))[0], tab[1], np.full_like(tab[2], math.nan))
             if params.p_ph == 1e-2 else original(params, theta_l)),
            # c1 comes from the warm cache, so only the final check reads the NaN
            ("c1_calibration", smm, "v2_octave_average", lambda original, *args: math.nan),
            # the catalog lambda that tepai prices, not a restated formula
            ("hubbard_l1_norm", hamcat, "hubbard_entry",
             lambda original, *args: dataclasses.replace(
                 entry := original(*args), lam=1.001 * entry.lam)),
        ],
        ids=["enumeration", "pcec", "monte_carlo", "tepai", "hubbard", "error_rates",
             "channel_algebra", "channel_algebra_twirl", "monte_carlo_zero_spread",
             "monte_carlo_reproducibility",
             "switch_probability", "gate_count_minimum", "timing_anchor", "bound_intercepts",
             "enumeration_nan", "pcec_nan", "tepai_nan", "hubbard_nan", "channel_algebra_nan",
             "bound_intercepts_nan", "tmr_branch_table", "tmr_branch_table_nan",
             "calibration_nan", "hubbard_entry"],
    )
    def test_broken_library_fails_its_check(
        self, tmp_path, capsys, monkeypatch, check, module, name, broken
    ):
        smm.calibrate_c1()  # warm, so that the broken function fails its check, not the calibration
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: broken(original, *args))
        assert _run(tmp_path, "verify", None, seed=9) == 1
        assert "verify: FAILURES detected" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        # each broken function is called by its own checks only
        expected = {check} if isinstance(check, str) else set(check)
        assert {key for key, entry in report.items() if not entry["pass"]} == expected

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ("[verify]\nmc_shots = 200000\n", "unknown key 'mc_shots' in section [verify]"),
            ("[verify]\nc1 = abc\n", "[verify] c1 = 'abc' is not a number or 'calibrated'"),
        ],
        ids=["mc_shots", "c1"],
    )
    def test_bad_verify_key_fails_before_any_check(self, tmp_path, capsys, cfg, message):
        assert _run(tmp_path, "verify", cfg, seed=9) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert not (tmp_path / "verify_report.json").exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("alpha-sweep", ALPHA_CFG),
            ("tradeoff", TRADEOFF_CFG),
            ("bound", BOUND_CFG),
            ("tepai", TEPAI_CFG),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, command, cfg):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg)
        for out in (out_a, out_b):
            code = cli.main(
                [command, "--config", str(cfg_path), "--out", str(out), "--seed", "11"]
            )
            assert code == 0
        for file_a in sorted(out_a.iterdir()):
            file_b = out_b / file_a.name
            assert file_a.read_bytes() == file_b.read_bytes()
