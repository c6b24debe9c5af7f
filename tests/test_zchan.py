import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsmm import zchan


def test_pure_rotation_identity():
    assert zchan.pure_rotation(0.0).branches == ((1.0, 0.0),)


def test_pure_rotation_pauli_z():
    assert zchan.pure_rotation(math.pi / 2).branches == ((1.0, math.pi / 2),)


def test_pure_rotation_periodic_reduction():
    (w, phi), = zchan.pure_rotation(3 * math.pi).branches
    assert w == 1.0
    assert abs(phi) < 1e-12


def test_pure_rotation_rejects_non_finite():
    with pytest.raises(ValueError):
        zchan.pure_rotation(math.nan)
    with pytest.raises(ValueError):
        zchan.pure_rotation(math.inf)


def test_compose_pure_rotations_add_angles():
    c = zchan.compose(zchan.pure_rotation(0.3), zchan.pure_rotation(0.4))
    assert c.branches == ((1.0, pytest.approx(0.7, abs=1e-15)),)


def test_compose_mixture_with_rotation():
    mix = zchan.mixture([(0.5, 0.2), (0.5, -0.2)])
    c = zchan.compose(mix, zchan.pure_rotation(0.1))
    assert len(c.branches) == 2
    angles = sorted(phi for _, phi in c.branches)
    assert angles == [pytest.approx(-0.1), pytest.approx(0.3)]
    assert all(w == pytest.approx(0.5) for w, _ in c.branches)


def test_compose_conserves_probability():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 6)
        w = rng.random(n)
        w /= w.sum()
        a = zchan.mixture(list(zip(w, rng.uniform(-1.5, 1.5, n))))
        m = rng.integers(1, 6)
        v = rng.random(m)
        v /= v.sum()
        b = zchan.mixture(list(zip(v, rng.uniform(-1.5, 1.5, m))))
        c = zchan.compose(a, b)
        assert sum(wt for wt, _ in c.branches) == pytest.approx(1.0, abs=1e-12)


def test_compose_commutative_and_associative():
    a = zchan.mixture([(0.7, 0.1), (0.3, -0.4)])
    b = zchan.mixture([(0.6, 0.25), (0.4, 0.5)])
    c = zchan.pure_rotation(-0.2)
    ab = zchan.compose(a, b)
    ba = zchan.compose(b, a)
    for (w1, p1), (w2, p2) in zip(ab.branches, ba.branches):
        assert w1 == pytest.approx(w2) and p1 == pytest.approx(p2)
    left = zchan.compose(zchan.compose(a, b), c)
    right = zchan.compose(a, zchan.compose(b, c))
    for (w1, p1), (w2, p2) in zip(left.branches, right.branches):
        assert w1 == pytest.approx(w2) and p1 == pytest.approx(p2, abs=1e-14)


def test_compose_identity_is_neutral():
    a = zchan.mixture([(0.9, 0.05), (0.1, -0.3)])
    c = zchan.compose(a, zchan.pure_rotation(0.0))
    assert c.branches == a.branches


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        zchan.mixture([(0.5, 0.0), (0.4, 0.1)])  # sums to 0.9
    with pytest.raises(ValueError):
        zchan.RotationMixture(((1.2, 0.0), (-0.2, 0.1)))


PAULI_EIGENVECTORS = ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])


def _state(vec):
    v = np.asarray(vec, complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _act(branches, rho):
    """sum_j w_j u_j rho u_j^dag with u_j = exp(i phi_j Z), matrix by matrix."""
    out = np.zeros((2, 2), complex)
    for w, phi in branches:
        u = np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
        out += w * (u @ rho @ u.conj().T)
    return out


def _trace_distance(a, b):
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)))


def test_apply_z_flips_plus():
    out = _act(zchan.pure_rotation(math.pi / 2).branches, _state([1, 1]))
    assert _trace_distance(out, _state([1, -1])) < 1e-14


def test_apply_fixes_maximally_mixed():
    mix = zchan.mixture([(0.3, 0.7), (0.7, -0.2)])
    mixed = 0.5 * np.eye(2)
    assert _trace_distance(_act(mix.branches, mixed), mixed) < 1e-14


def test_apply_stochastic_z_definition():
    q = 0.125
    chan = zchan.mixture([(1 - q, 0.0), (q, math.pi / 2)])
    plus = _state([1, 1])
    out = _act(chan.branches, plus)
    assert np.trace(plus @ out).real == pytest.approx(1 - q, abs=1e-14)


def test_apply_trace_and_positivity_preserving():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = rng.integers(1, 5)
        w = rng.random(n)
        w /= w.sum()
        chan = zchan.mixture(list(zip(w, rng.uniform(-1.5, 1.5, n))))
        for vec in PAULI_EIGENVECTORS:
            out = _act(chan.branches, _state(vec))
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_twirled_z_error_exact_gate():
    assert zchan.twirled_z_error(zchan.pure_rotation(0.37), 0.37) == 0.0


def test_twirled_z_error_stochastic_mixture():
    q = 0.01
    theta = 0.2
    chan = zchan.mixture([(1 - q, theta), (q, theta + math.pi / 2)])
    assert zchan.twirled_z_error(chan, theta) == pytest.approx(q, abs=1e-15)


def test_twirled_z_error_symmetric_pair():
    q, dl, theta = 0.02, 0.3, 0.1
    chan = zchan.mixture([(1 - 2 * q, theta), (q, theta + dl), (q, theta - dl)])
    assert zchan.twirled_z_error(chan, theta) == pytest.approx(
        2 * q * math.sin(dl) ** 2, abs=1e-15
    )


def _manual_trace_distance_to_model(chan, target, rho_vec):
    """Independent 2x2 computation of the deviation, matrix-by-matrix."""
    rho = _state(rho_vec)
    p = sum(w * math.sin(phi - target) ** 2 for w, phi in chan.branches)
    sigma = _act([(1.0, target)], rho)
    z = np.diag([1.0, -1.0])
    model = (1 - p) * sigma + p * (z @ sigma @ z)
    return _trace_distance(_act(chan.branches, rho), model)


def test_worst_case_pure_rotation_is_zero():
    assert zchan.worst_case_vs_pauli_model(zchan.pure_rotation(0.4), 0.4) < 1e-15


def test_worst_case_symmetric_mixture_bound():
    # symmetric pair mixtures are exactly Pauli after twirling; the coherent
    # parts of the two branches cancel, so only float noise remains
    for q in (0.01, 0.05, 0.1):
        for dl in (0.1, 0.5, math.pi / 4):
            chan = zchan.mixture([(1 - 2 * q, 0.0), (q, dl), (q, -dl)])
            dev = zchan.worst_case_vs_pauli_model(chan, 0.0)
            assert dev <= 8 * q * q
            assert dev < 1e-14


def test_worst_case_asymmetric_mixture():
    q, dl = 0.02, 0.3
    chan = zchan.mixture([(1 - q, 0.0), (q, dl)])
    dev = zchan.worst_case_vs_pauli_model(chan, 0.0)
    expected = q * abs(math.sin(dl) * math.cos(dl))
    assert dev == pytest.approx(expected, rel=1e-10)
    manual = max(_manual_trace_distance_to_model(chan, 0.0, v) for v in PAULI_EIGENVECTORS)
    assert dev == pytest.approx(manual, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    branches=st.lists(
        st.tuples(st.floats(1e-6, 1.0), st.floats(-1.5, 1.5)), min_size=1, max_size=5
    ),
    target=st.floats(-1.5, 1.5),
)
def test_worst_case_matches_the_matrix_route(branches, target):
    total = sum(w for w, _ in branches)
    chan = zchan.mixture([(w / total, phi) for w, phi in branches])
    manual = max(_manual_trace_distance_to_model(chan, target, v) for v in PAULI_EIGENVECTORS)
    assert zchan.worst_case_vs_pauli_model(chan, target) == pytest.approx(manual, abs=1e-15)


def test_coherence_factor_multiplies_under_composition():
    a = zchan.mixture([(0.9, 0.0), (0.1, 0.2)])
    b = zchan.mixture([(0.8, 0.1), (0.2, -0.3)])
    za = zchan.coherence_factor(a, 0.0)
    zb = zchan.coherence_factor(b, 0.0)
    zc = zchan.coherence_factor(zchan.compose(a, b), 0.0)
    assert zc == pytest.approx(za * zb, abs=1e-14)


def test_reduce_angle_maps_minus_half_pi_to_half_pi():
    assert zchan.reduce_angle(-math.pi / 2) == math.pi / 2


def test_mixture_merges_branches_across_the_wrap_around():
    # -pi/2 and pi/2 are the same channel modulo pi; -pi/2 + 1e-15 is another
    mix = zchan.mixture([(0.5, math.pi / 2), (0.5, -math.pi / 2)])
    assert mix.branches == ((1.0, math.pi / 2),)
    near = zchan.mixture([(0.5, math.pi / 2), (0.5, -math.pi / 2 + 1e-15)])
    assert near.branches == ((0.5, -math.pi / 2 + 1e-15), (0.5, math.pi / 2))


def test_mixture_merges_only_equal_angles():
    # +0.0 and -0.0 are one angle; angles 1e-300 apart stay two branches
    mix = zchan.mixture([(0.25, 0.0), (0.25, 1e-300), (0.25, -0.0), (0.25, 1e-300)])
    assert mix.branches == ((0.5, 0.0), (0.5, 1e-300))


@pytest.mark.parametrize(
    "branches,message",
    [
        ((), "at least one branch"),
        (((1.0, -math.pi / 2),), "is not pi-reduced"),
        (((1.0, 2.0),), "outside"),
    ],
    ids=["empty", "not-reduced", "outside"],
)
def test_rotation_mixture_rejects_bad_branches(branches, message):
    with pytest.raises(ValueError, match=message):
        zchan.RotationMixture(branches)


def test_mixture_rejects_all_zero_weights():
    with pytest.raises(ValueError, match="no branches with non-zero weight"):
        zchan.mixture([(0.0, 0.1), (0.0, -0.2)])
