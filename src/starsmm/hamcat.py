"""Catalog of target many-body systems and a Hubbard-model term generator.

The catalog records logical-qubit counts and Hamiltonian L1-norms for the
benchmark systems (lattice models by formula, iron-sulfur clusters and
FeMoco by fixed published values).  The lattice builders share one input
rule: each coupling is non-negative and finite, and the size is an integer
>= 1 (>= 3 on the periodic Hubbard lattice).  The 2D Hubbard entry is
backed by an explicit Jordan-Wigner Pauli-term generator whose L1-norm
reproduces the catalog formula (4t + U/4) L^2 exactly under periodic
boundaries.

Qubit ordering: the spin-up sector occupies indices 0..L^2-1 in row-major
site order, spin-down occupies L^2..2L^2-1; Jordan-Wigner strings run
within a spin sector along this ordering.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemEntry:
    """One catalog row: N_L logical qubits (an integer) and the L1-norm lambda in ``unit``.

    Lattice rows come from the ``*_entry`` formulas, molecule rows are fixed published values.
    """

    name: str
    n_l: int
    lam: float
    unit: str = "dimensionless"

    def __post_init__(self) -> None:
        if not isinstance(self.n_l, numbers.Integral) or isinstance(self.n_l, bool) or self.n_l < 1:
            raise ValueError(f"N_L must be >= 1 and finite and an integer, got {self.n_l!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam!r}")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")


def _check_lattice(size_name: str, size: int, periodic: bool = False, **couplings: float) -> None:
    """Refuse a size that is not an integer >= 1 (>= 3 if periodic), and each bad coupling.

    Each is named; a periodic L = 2 would repeat the wrap-around edges.
    """
    if not isinstance(size, numbers.Integral) or isinstance(size, bool):
        raise ValueError(f"{size_name} must be an integer, got {size!r}")
    if periodic and size < 3:
        raise ValueError("periodic boundaries need L >= 3 (degenerate edges otherwise)")
    if size < 1:
        raise ValueError(f"{size_name} must be >= 1, got {size!r}")
    for name, value in couplings.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


def rfic_entry(J: float, h: float, n_sites: int) -> SystemEntry:
    """Random-field Ising chain: N_L = N, lambda = (3J + h/2) N."""
    _check_lattice("N", n_sites, J=J, h=h)
    return SystemEntry(name="RFIC", n_l=n_sites, lam=(3.0 * J + 0.5 * h) * n_sites)


def tfim_entry(J: float, h: float, length: int) -> SystemEntry:
    """Transverse-field Ising model on L x L: N_L = L^2, lambda = (2J + h) L^2."""
    _check_lattice("L", length, J=J, h=h)
    return SystemEntry(name="TFIM", n_l=length * length, lam=(2.0 * J + h) * length * length)


def hubbard_entry(t: float, u: float, length: int) -> SystemEntry:
    """2D Hubbard on the periodic L x L lattice (L >= 3): N_L = 2 L^2, lambda = (4t + U/4) L^2."""
    _check_lattice("L", length, periodic=True, t=t, U=u)
    return SystemEntry(
        name="Hubbard", n_l=2 * length * length, lam=(4.0 * t + 0.25 * u) * length * length
    )


MOLECULES: tuple[SystemEntry, ...] = (
    SystemEntry("2Fe-2S", 40, 38.2, "Hartree"),  # (30e, 20o) active space
    SystemEntry("4Fe-4S", 72, 137.8, "Hartree"),  # (54e, 36o) active space
    SystemEntry("FeMoco(S=0)", 108, 308.2, "Hartree"),  # (54e, 54o) active space
    SystemEntry("FeMoco(S=3/2)", 152, 512.5, "Hartree"),  # (113e, 76o) active space
)


def molecule(name: str) -> SystemEntry:
    for entry in MOLECULES:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown molecule {name!r}; known: {[m.name for m in MOLECULES]}")


#: :func:`catalog`'s lattices; the Hubbard couplings are the CLI's defaults.
ISING_J = ISING_H = HUBBARD_T = 1.0
HUBBARD_U = 4.0
N_SITES = LENGTH = 10


def catalog() -> tuple[SystemEntry, ...]:
    """The seven benchmark rows; lattice formulas evaluated at the reference constants."""
    return (
        rfic_entry(ISING_J, ISING_H, N_SITES),
        tfim_entry(ISING_J, ISING_H, LENGTH),
        hubbard_entry(HUBBARD_T, HUBBARD_U, LENGTH),
    ) + MOLECULES


# ---------------------------------------------------------------------------
# Hubbard Jordan-Wigner terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliTerm:
    """One Pauli-string term: coefficient times a product of X/Y/Z factors."""

    coefficient: float
    ops: tuple[tuple[int, str], ...]  # (qubit index, letter), sorted by index

    def __post_init__(self) -> None:
        if self.coefficient == 0.0:
            raise ValueError("zero-coefficient terms are dropped, not stored")
        sites = [q for q, _ in self.ops]
        if sites != sorted(set(sites)):
            raise ValueError("operator sites must be strictly increasing")
        for _, letter in self.ops:
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")


def _hopping_pair(base: int, a: int, b: int, t: float) -> list[PauliTerm]:
    """-(t/2)(X Z.. X + Y Z.. Y) between sector-local sites a < b."""
    lo, hi = min(a, b), max(a, b)
    string = tuple((base + m, "Z") for m in range(lo + 1, hi))
    terms = []
    for letter in ("X", "Y"):
        ops = ((base + lo, letter),) + string + ((base + hi, letter),)
        terms.append(PauliTerm(coefficient=-0.5 * t, ops=ops))
    return terms


def hubbard_terms(length: int, t: float, u: float) -> list[PauliTerm]:
    """Jordan-Wigner Pauli terms of the periodic L x L Hubbard model.

    Hopping: -(t/2)(X Z.. X + Y Z.. Y) per lattice edge per spin sector;
    interaction: (U/4) Z_up Z_down per site.  Zero couplings emit no terms,
    so the count is 8 L^2 [t > 0] + L^2 [U > 0].
    """
    _check_lattice("L", length, periodic=True, t=t, U=u)
    n_sites = length * length
    edges: list[tuple[int, int]] = []
    for r in range(length):
        for c in range(length):
            s = r * length + c
            edges.append((s, r * length + (c + 1) % length))
            edges.append((s, ((r + 1) % length) * length + c))

    terms: list[PauliTerm] = []
    if t > 0.0:
        for base in (0, n_sites):  # spin-up, spin-down sectors
            for a, b in edges:
                terms.extend(_hopping_pair(base, a, b, t))
    if u > 0.0:
        for s in range(n_sites):
            terms.append(
                PauliTerm(coefficient=0.25 * u, ops=((s, "Z"), (n_sites + s, "Z")))
            )
    return terms


def l1_norm(terms: list[PauliTerm]) -> float:
    """lambda = sum |c_k| over the Pauli coefficients."""
    if not terms:
        raise ValueError("term list is empty")
    return math.fsum(abs(term.coefficient) for term in terms)
