import math
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from starsmm import cli, hamcat, mitigation, smm, tepai

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _tepai_molecule_instances(alpha_model):
    """The TE-PAI instances of configs/tepai_molecules.cfg, plus 4Fe-4S at T = 0.001."""
    cfg = cli.load_config(str(CONFIGS / "tepai_molecules.cfg"))
    setup = dict(
        q=cfg.getfloat("tepai", "q"), epsilon=cfg.getfloat("tepai", "epsilon"),
        p_ph=cfg.getfloat("tepai", "p_ph"), c_smm=cfg.getfloat("tepai", "c_smm"),
    )
    times = [float(t) for t in cfg.get("tepai", "t").split(",")]
    rows = [(lam, t, n_l) for _, lam, n_l in cli._tepai_systems(cfg) for t in times]
    fes = hamcat.molecule("4Fe-4S")
    rows.append((fes.lam, 0.001, fes.n_l))  # Delta ~ 1.30 rad
    return [
        tepai.TepaiInstance(lam=lam, t=t, n_l=n_l, alpha_model=alpha_model, **setup)
        for lam, t, n_l in rows
    ]


class TestSynthesisTCount:
    #: (ceil(3 log2(1/delta)), the count) where the two forms round apart
    DIFFERS = {0.24999999999999997: (7, 6), 0.12499999999999999: (10, 9),
               0.7937005259840997: (1, 2)}

    @given(delta=st.floats(5e-324, 1.0, exclude_max=True))
    @example(delta=0.24999999999999997)
    @example(delta=0.12499999999999999)
    @example(delta=0.7937005259840997)
    @example(delta=5.562684646268003e-309)  # 2^-1024, the largest delta whose 1/delta is inf
    @example(delta=5e-324)
    def test_matches_reciprocal_form(self, delta):
        count = mitigation.synthesis_t_count(delta)
        reciprocal = 1.0 / delta
        if reciprocal == math.inf:  # delta <= 2^-1024: that form has no count
            assert 3 * 1024 <= count <= 3 * 1074
            return
        bits = 3.0 * math.log2(reciprocal)
        if delta in self.DIFFERS:
            assert (math.ceil(bits), count) == self.DIFFERS[delta]
        if abs(bits - round(bits)) <= 1e-12:
            assert abs(count - math.ceil(bits)) <= 1
        else:
            assert count == math.ceil(bits)

    def test_least_float(self):
        assert mitigation.synthesis_t_count(5e-324) == 3222


class TestTotalBudget:
    def test_empty_circuit(self):
        profile = mitigation.CircuitProfile(n_t=0, architecture="v1")
        p_total = mitigation.total_budget(profile)
        assert p_total == 0.0
        assert mitigation.sampling_price(p_total) == 1.0

    def test_v1_closed_form(self):
        profile = mitigation.CircuitProfile(
            n_t=100, rotations=((1e-5, 50),), architecture="v1"
        )
        p_total = mitigation.total_budget(profile)
        assert p_total == pytest.approx((2 / 15) * (100 + 2 * 50) * 1e-3, rel=1e-12)

    def test_v2_closed_form(self):
        profile = mitigation.CircuitProfile(
            n_t=10, rotations=((1e-5, 1000),), architecture="v2"
        )
        p_total = mitigation.total_budget(profile)
        expected = ((2 / 15) * 10 + 1.6 * 1000 * 1e-5) * 1e-3
        assert p_total == pytest.approx(expected, rel=1e-12)

    def test_v3_with_constant_alpha(self):
        profile = mitigation.CircuitProfile(
            n_t=5, rotations=((1e-5, 1000),), architecture="v3"
        )
        p_total = mitigation.total_budget(profile, alpha_model=0.1)
        expected = 5 * 2e-9 + 1000 * 0.1 * 1e-5 * 1e-3
        assert p_total == pytest.approx(expected, rel=1e-12)

    def test_v3_requires_alpha(self):
        profile = mitigation.CircuitProfile(n_t=1, architecture="v3")
        with pytest.raises(ValueError):
            mitigation.total_budget(profile)

    def test_cultivation_closed_form(self):
        profile = mitigation.CircuitProfile(
            n_t=7, rotations=((1e-5, 3),), architecture="ftqc-cultivation"
        )
        p_total = mitigation.total_budget(profile)
        n_syn = mitigation.synthesis_t_count(2e-9)
        expected = (7 + 3 * n_syn) * 2e-9 + 3 * 2e-9
        assert p_total == pytest.approx(expected, rel=1e-12)

    def test_overflowing_price_is_infinite(self):
        # e^(4 P_total) overflows a float far past P_total = 1; P_total stays exact
        profile = mitigation.CircuitProfile(
            n_t=0, rotations=((1e-5, 10 ** 50),), architecture="v3"
        )
        p_total = mitigation.total_budget(profile, alpha_model=0.1)
        assert p_total == pytest.approx(1e41, rel=1e-12)
        assert mitigation.sampling_price(p_total) == math.inf

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            mitigation.CircuitProfile(n_t=0, architecture="v4")

    @pytest.mark.parametrize("alpha", ["0.1", "smm"])
    def test_tepai_prices_through_mitigation(self, alpha):
        # every configs/tepai_molecules.cfg row plus one with Delta > pi/4,
        # bit for bit: one P_total for both, and one total-time statement
        alpha_model = (0.1 if alpha == "0.1"
                       else tepai.smm_alpha_provider(1e-3, c1=smm.calibrate_c1()))
        wide = 0
        for instance in _tepai_molecule_instances(alpha_model):
            est = tepai.estimate(instance)
            delta, p_ph = est.delta_angle, instance.p_ph
            alpha_delta = alpha_model(delta) if callable(alpha_model) else alpha_model
            assert est.p_total == est.n_gate * alpha_delta * delta * p_ph
            assert est.p_total == mitigation.rotation_p_total(
                est.n_gate, delta, alpha_model, p_ph
            )
            lam_t, eps = instance.lam * instance.t, instance.epsilon
            assert est.total_seconds == (
                est.single_shot_seconds * tepai.sampling_overhead(lam_t, est.delta_angle)
                * mitigation.sampling_price(est.p_total) / eps**2
            )
            if delta > math.pi / 4:
                wide += 1  # outside CircuitProfile's angle range
                continue
            profile = mitigation.CircuitProfile(
                n_t=0, rotations=((delta, est.n_gate),), architecture="v3", p_ph=p_ph
            )
            assert mitigation.total_budget(profile, alpha_model) == est.p_total
        assert wide == 1


class TestFeasibleBoundary:
    def test_intercepts_at_zero_t_count(self):
        grid = [0.0]
        assert mitigation.feasible_boundary("v1", 1e-5, grid)[0][1] == pytest.approx(
            3750.0, rel=1e-6
        )
        assert mitigation.feasible_boundary("v2", 1e-5, grid)[0][1] == pytest.approx(
            6.25e7, rel=1e-6
        )
        n_syn = mitigation.synthesis_t_count(2e-9)
        assert n_syn == 87
        expected = 1.0 / ((n_syn + 1) * 2e-9)
        got = mitigation.feasible_boundary("ftqc-cultivation", 1e-5, grid)[0][1]
        assert got == pytest.approx(expected, rel=1e-6)
        assert got == pytest.approx(5.7e6, rel=0.02)

    def test_v3_constant_alpha_intercept(self):
        got = mitigation.feasible_boundary("v3", 1e-5, [0.0], alpha_model=0.1)[0][1]
        assert got == pytest.approx(1e9, rel=1e-6)
        # a rotation far past the budget prices at inf but keeps its frontier
        got = mitigation.feasible_boundary("v3", 1e-5, [0.0], alpha_model=1e50)[0][1]
        assert got == pytest.approx(1e-42, rel=1e-12)

    def test_free_rotations_are_unbounded(self):
        # alpha * theta_star * p_ph = 1e-324 underflows to 0: unbounded until N_T spends the budget
        curve = mitigation.feasible_boundary("v3", 1e-320, [0.0, 4.9e8, 5e8, 1e9], alpha_model=0.1)
        assert curve == [(0.0, math.inf), (4.9e8, math.inf), (5e8, 0.0), (1e9, 0.0)]

    def test_t_axis_intercepts(self):
        # N_R hits zero once N_T alone saturates the budget
        for arch, n_t_star in (("ftqc-cultivation", 5e8), ("v3", 5e8)):
            curve = mitigation.feasible_boundary(
                arch, 1e-5, [n_t_star, 2 * n_t_star], alpha_model=0.1
            )
            assert curve[0][1] == pytest.approx(0.0, abs=1e-3)
            assert curve[1][1] == 0.0

    @pytest.mark.parametrize("arch", mitigation.ARCHITECTURES)
    def test_monotone_non_increasing(self, arch):
        grid = [10.0 ** e for e in range(0, 10)]
        curve = mitigation.feasible_boundary(arch, 1e-5, grid, alpha_model=0.1)
        values = [n_r for _, n_r in curve]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_boundary_points_satisfy_budget(self):
        for arch in mitigation.ARCHITECTURES:
            for n_t, n_r in mitigation.feasible_boundary(
                arch, 1e-5, [0.0, 1e6], alpha_model=0.1
            ):
                if n_r == 0.0:
                    continue
                profile = mitigation.CircuitProfile(n_t, ((1e-5, n_r),), arch)
                p_total = mitigation.total_budget(profile, alpha_model=0.1)
                assert p_total == pytest.approx(1.0, abs=1e-12)

    def test_architecture_dominance_ordering(self):
        grid = [0.0]
        order = {
            arch: mitigation.feasible_boundary(arch, 1e-5, grid, alpha_model=0.1)[0][1]
            for arch in mitigation.ARCHITECTURES
        }
        assert order["v3"] > order["v2"] > order["ftqc-cultivation"] > order["v1"]


@pytest.mark.parametrize(
    "call,kwargs,message",
    [
        (mitigation.CircuitProfile, dict(n_t=-1), "n_t must be non-negative"),
        (mitigation.CircuitProfile, dict(n_t=0, rotations=((1e-5, -1),)),
         "rotation counts must be non-negative"),
        (mitigation.CircuitProfile, dict(n_t=0, rotations=((0.0, 1),)), "rotation angle 0.0"),
        (mitigation.CircuitProfile, dict(n_t=0, rotations=((1.0, 1),)), "rotation angle 1.0"),
        (mitigation.feasible_boundary,
         dict(architecture="v1", theta_star=1e-5, n_t_grid=[1.0, -1.0]),
         "N_T must be non-negative"),
        (mitigation.CircuitProfile, dict(n_t=10, architecture="v1", p_ph=-1.0),
         "p_ph must be finite and >= 0, got -1.0"),
        (mitigation.CircuitProfile, dict(n_t=10, p_m=math.inf), "p_m must be finite and >= 0, got inf"),
        (mitigation.feasible_boundary,
         dict(architecture="v1", theta_star=1e-5, n_t_grid=[1.0], p_ph=math.nan),
         "p_ph must be finite and >= 0, got nan"),
        (mitigation.feasible_boundary,
         dict(architecture="v3", theta_star=1e-5, n_t_grid=[1.0], p_m=-2e-9, alpha_model=0.1),
         "p_m must be finite and >= 0, got -2e-09"),
        # a NaN gate count would reach P_total as nan
        (mitigation.CircuitProfile, dict(n_t=math.nan), "n_t must be non-negative"),
        (mitigation.CircuitProfile, dict(n_t=0, rotations=((1e-5, math.nan),)),
         "rotation counts must be non-negative"),
        (mitigation.feasible_boundary,
         dict(architecture="v1", theta_star=1e-5, n_t_grid=[math.nan]),
         "N_T must be non-negative"),
    ],
    ids=["n_t", "rotation-count", "rotation-angle-zero", "rotation-angle-large", "grid-n_t",
         "p_ph-negative", "p_m-inf", "boundary-p_ph-nan", "boundary-p_m-negative", "n_t-nan",
         "rotation-count-nan", "grid-n_t-nan"],
)
def test_validation_names_the_argument(call, kwargs, message):
    with pytest.raises(ValueError, match=message):
        call(**kwargs)
