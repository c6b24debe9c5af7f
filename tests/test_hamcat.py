
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from starsmm import hamcat


class TestCatalog:
    def test_has_seven_rows(self):
        assert len(hamcat.catalog()) == 7

    def test_molecule_values(self):
        fes4 = hamcat.molecule("4Fe-4S")
        assert fes4.n_l == 72
        assert fes4.lam == 137.8
        assert fes4.unit == "Hartree"
        fes2 = hamcat.molecule("2Fe-2S")
        assert (fes2.n_l, fes2.lam) == (40, 38.2)
        assert hamcat.molecule("FeMoco(S=0)").lam == 308.2
        assert hamcat.molecule("FeMoco(S=3/2)").n_l == 152

    def test_unknown_molecule(self):
        with pytest.raises(KeyError):
            hamcat.molecule("caffeine")

    def test_hubbard_formula(self):
        entry = hamcat.hubbard_entry(1.0, 4.0, 10)
        assert entry.lam == pytest.approx((4 * 1 + 4 / 4) * 100) == 500.0
        assert entry.n_l == 200

    def test_rfic_formula(self):
        entry = hamcat.rfic_entry(1.0, 2.0, 10)
        assert entry.lam == pytest.approx((3 * 1 + 2 / 2) * 10) == 40.0
        assert entry.n_l == 10

    @pytest.mark.parametrize("t,u", [(-0.1, 4.0), (1.0, -4.0)])
    def test_hubbard_rejects_negative_couplings(self, t, u):
        with pytest.raises(ValueError):
            hamcat.hubbard_entry(t, u, 10)

    @pytest.mark.parametrize("length", [-3, 0, 1, 2])
    def test_hubbard_needs_the_periodic_lattice(self, length):
        # hubbard_terms rejects these lattices, so their catalog lambda has no term list
        with pytest.raises(ValueError, match="L >= 3"):
            hamcat.hubbard_entry(1.0, 4.0, length)
        with pytest.raises(ValueError, match="L >= 3"):
            hamcat.hubbard_terms(length, 1.0, 4.0)

    def test_tfim_formula(self):
        entry = hamcat.tfim_entry(1.0, 3.0, 4)
        assert entry.lam == pytest.approx((2 + 3) * 16)
        assert entry.n_l == 16

    def test_ising_rows_take_lattices_below_three(self):
        # no boundary convention is stated for them, so only the Hubbard rows need L >= 3
        assert hamcat.rfic_entry(1.0, 1.0, 2).n_l == 2
        assert hamcat.tfim_entry(1.0, 1.0, 2).n_l == 4


class TestHubbardTerms:
    def test_term_count_and_l1(self):
        terms = hamcat.hubbard_terms(4, 1.0, 4.0)
        assert len(terms) == 9 * 16
        assert hamcat.l1_norm(terms) == pytest.approx(80.0, abs=1e-12)

    def test_hopping_only(self):
        terms = hamcat.hubbard_terms(3, 1.0, 0.0)
        assert len(terms) == 72
        assert all(abs(t.coefficient) == 0.5 for t in terms)
        assert hamcat.l1_norm(terms) == pytest.approx(36.0, abs=1e-12)

    def test_interaction_only(self):
        terms = hamcat.hubbard_terms(3, 0.0, 4.0)
        assert len(terms) == 9
        assert all(t.coefficient == 1.0 for t in terms)
        assert all(all(l == "Z" for _, l in t.ops) for t in terms)

    @pytest.mark.parametrize("length", range(3, 13))
    def test_l1_matches_catalog_formula(self, length):
        for t_hop, u_int in ((1.0, 4.0), (2.0, 1.0)):
            terms = hamcat.hubbard_terms(length, t_hop, u_int)
            assert len(terms) == 9 * length ** 2
            expected = (4 * t_hop + u_int / 4) * length ** 2
            assert hamcat.l1_norm(terms) == pytest.approx(expected, abs=1e-12)

    @given(
        length=st.integers(3, 8),
        t_hop=st.just(0.0) | st.floats(1e-3, 10.0),
        u_int=st.just(0.0) | st.floats(1e-3, 10.0),
    )
    def test_terms_match_formula_over_couplings(self, length, t_hop, u_int):
        assume(t_hop > 0.0 or u_int > 0.0)  # lambda = 0 is no catalog row
        terms = hamcat.hubbard_terms(length, t_hop, u_int)
        assert len(terms) == 8 * length ** 2 * (t_hop > 0) + length ** 2 * (u_int > 0)
        expected = hamcat.hubbard_entry(t_hop, u_int, length).lam
        assert hamcat.l1_norm(terms) == pytest.approx(expected, rel=1e-12)

    def test_xx_yy_pairing(self):
        terms = hamcat.hubbard_terms(4, 1.0, 0.0)
        by_support = {}
        for term in terms:
            support = tuple(q for q, _ in term.ops)
            letters = "".join(l for _, l in term.ops)
            by_support.setdefault(support, []).append((letters, term.coefficient))
        for support, pair in by_support.items():
            assert len(pair) == 2
            (la, ca), (lb, cb) = sorted(pair)
            assert la.startswith("X") and la.endswith("X")
            assert lb.startswith("Y") and lb.endswith("Y")
            assert la[1:-1] == lb[1:-1] == "Z" * (len(la) - 2)
            assert ca == cb

    def test_jw_string_spans_interior_sites(self):
        # row-wrap edge on the top row of a periodic 3x3: sites 0..2
        terms = hamcat.hubbard_terms(3, 1.0, 0.0)
        wrap = [
            t for t in terms
            if tuple(q for q, _ in t.ops[:1]) == (0,) and t.ops[-1][0] == 2
        ]
        assert any(len(t.ops) == 3 and t.ops[1] == (1, "Z") for t in wrap)

    def test_spin_sectors_disjoint(self):
        length = 3
        terms = hamcat.hubbard_terms(length, 1.0, 0.0)
        n = length * length
        for term in terms:
            sites = [q for q, _ in term.ops]
            assert all(s < n for s in sites) or all(s >= n for s in sites)

    def test_validation(self):
        with pytest.raises(ValueError):
            hamcat.hubbard_terms(2, 1.0, 4.0)  # periodic L=2 degenerate
        with pytest.raises(ValueError):
            hamcat.l1_norm([])


class TestL1Norm:
    def test_single_term(self):
        term = hamcat.PauliTerm(-0.5, ((0, "Z"),))
        assert hamcat.l1_norm([term]) == 0.5

    def test_scaling(self):
        terms = hamcat.hubbard_terms(3, 1.0, 4.0)
        doubled = [
            hamcat.PauliTerm(2 * t.coefficient, t.ops) for t in terms
        ]
        assert hamcat.l1_norm(doubled) == pytest.approx(2 * hamcat.l1_norm(terms))


@pytest.mark.parametrize(
    "call,kwargs,message",
    [
        (hamcat.SystemEntry, dict(name="x", n_l=0, lam=1.0), "N_L must be >= 1"),
        (hamcat.SystemEntry, dict(name="x", n_l=1, lam=0.0), "lambda must be positive"),
        (hamcat.PauliTerm, dict(coefficient=0.0, ops=((0, "X"),)), "zero-coefficient"),
        (hamcat.PauliTerm, dict(coefficient=1.0, ops=((1, "X"), (0, "Z"))), "strictly increasing"),
        (hamcat.PauliTerm, dict(coefficient=1.0, ops=((0, "X"), (0, "Z"))), "strictly increasing"),
        (hamcat.PauliTerm, dict(coefficient=1.0, ops=((0, "W"),)), "unknown Pauli letter 'W'"),
        (hamcat.hubbard_terms, dict(length=3, t=-1.0, u=4.0),
         "t must be non-negative and finite, got -1.0"),
        (hamcat.hubbard_terms, dict(length=3, t=1.0, u=-4.0),
         "U must be non-negative and finite, got -4.0"),
        (hamcat.SystemEntry, dict(name="x", n_l=1, lam=math.nan), "lambda must be finite, got nan"),
        (hamcat.SystemEntry, dict(name="x", n_l=1, lam=math.inf), "lambda must be finite, got inf"),
        (hamcat.SystemEntry, dict(name="x", n_l=math.nan, lam=1.0), "N_L must be >= 1 and finite"),
        (hamcat.hubbard_entry, dict(t=math.nan, u=4.0, length=10),
         "t must be non-negative and finite, got nan"),
        (hamcat.hubbard_entry, dict(t=1.0, u=math.inf, length=10),
         "U must be non-negative and finite, got inf"),
        # the term generator and the Ising rows take the Hubbard entry's coupling rule
        (hamcat.hubbard_terms, dict(length=3, t=math.nan, u=4.0),
         "t must be non-negative and finite, got nan"),
        (hamcat.hubbard_terms, dict(length=3, t=math.inf, u=4.0),
         "t must be non-negative and finite, got inf"),
        (hamcat.rfic_entry, dict(J=-1.0, h=10.0, n_sites=10),
         "J must be non-negative and finite, got -1.0"),
        (hamcat.rfic_entry, dict(J=1.0, h=math.nan, n_sites=10),
         "h must be non-negative and finite, got nan"),
        (hamcat.tfim_entry, dict(J=-1.0, h=3.0, length=4),
         "J must be non-negative and finite, got -1.0"),
        (hamcat.tfim_entry, dict(J=1.0, h=math.inf, length=4),
         "h must be non-negative and finite, got inf"),
        (hamcat.SystemEntry, dict(name="x", n_l=2.5, lam=1.0),
         "N_L must be >= 1 and finite and an integer, got 2.5"),
        # each lattice size is refused by name before N_L is formed
        (hamcat.tfim_entry, dict(J=1.0, h=1.0, length=2.5), "L must be an integer, got 2.5"),
        (hamcat.tfim_entry, dict(J=1.0, h=1.0, length=3.0), "L must be an integer, got 3.0"),
        (hamcat.tfim_entry, dict(J=1.0, h=1.0, length=-3), "L must be >= 1, got -3"),
        (hamcat.rfic_entry, dict(J=1.0, h=1.0, n_sites=10.0), "N must be an integer, got 10.0"),
        (hamcat.rfic_entry, dict(J=1.0, h=1.0, n_sites=0), "N must be >= 1, got 0"),
        (hamcat.SystemEntry, dict(name="x", n_l=9.0, lam=1.0),
         "N_L must be >= 1 and finite and an integer, got 9.0"),
        # the periodic lattice size is an integer, even when it is a whole float
        (hamcat.hubbard_entry, dict(t=1.0, u=4.0, length=3.0), "L must be an integer, got 3.0"),
        (hamcat.hubbard_terms, dict(length=3.0, t=1.0, u=4.0), "L must be an integer, got 3.0"),
        (hamcat.hubbard_entry, dict(t=1.0, u=4.0, length=3.5), "L must be an integer, got 3.5"),
        (hamcat.hubbard_terms, dict(length=math.nan, t=1.0, u=4.0),
         "L must be an integer, got nan"),
        # bool is an Integral subclass, not a size
        (hamcat.rfic_entry, dict(J=1.0, h=1.0, n_sites=True), "N must be an integer, got True"),
        (hamcat.tfim_entry, dict(J=1.0, h=1.0, length=True), "L must be an integer, got True"),
        (hamcat.SystemEntry, dict(name="x", n_l=True, lam=1.0),
         "N_L must be >= 1 and finite and an integer, got True"),
    ],
    ids=["entry-n_l", "entry-lambda", "term-coefficient", "term-order", "term-repeat",
         "term-letter", "hubbard-t", "hubbard-u", "entry-lambda-nan", "entry-lambda-inf",
         "entry-n_l-nan", "entry-hubbard-t-nan", "entry-hubbard-u-inf", "terms-t-nan",
         "terms-t-inf", "rfic-J-negative", "rfic-h-nan", "tfim-J-negative", "tfim-h-inf",
         "entry-n_l-fraction", "tfim-n_l-fraction", "tfim-L-whole-float", "tfim-L-negative",
         "rfic-N-whole-float", "rfic-N-zero", "entry-n_l-whole-float", "hubbard-L-whole-float",
         "terms-L-whole-float", "hubbard-L-fraction", "terms-L-nan", "rfic-N-bool",
         "tfim-L-bool", "entry-n_l-bool"],
)
def test_validation_names_the_argument(call, kwargs, message):
    with pytest.raises(ValueError, match=message):
        call(**kwargs)
