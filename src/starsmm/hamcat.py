"""Catalog of target many-body systems and a Hubbard-model term generator.

The catalog records logical-qubit counts and Hamiltonian L1-norms for the
benchmark systems (lattice models by formula, iron-sulfur clusters and
FeMoco by fixed published values).  The 2D Hubbard entry is backed by an
explicit Jordan-Wigner Pauli-term generator whose L1-norm reproduces the
catalog formula (4t + U/4) L^2 exactly under periodic boundaries.

Qubit ordering: the spin-up sector occupies indices 0..L^2-1 in row-major
site order, spin-down occupies L^2..2L^2-1; Jordan-Wigner strings run
within a spin sector along this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemEntry:
    """One catalog row.

    Lattice entries carry a formula string and evaluate lazily; molecule
    entries carry fixed values with an active-space/provenance tag.
    """

    name: str
    n_l: int
    lam: float
    unit: str = "dimensionless"
    parameters: tuple[tuple[str, float], ...] = ()
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.n_l < 1:
            raise ValueError("N_L must be >= 1")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")


def rfic_entry(J: float, h: float, n_sites: int) -> SystemEntry:
    """Random-field Ising chain: N_L = N, lambda = (3J + h/2) N."""
    return SystemEntry(
        name="RFIC",
        n_l=n_sites,
        lam=(3.0 * J + 0.5 * h) * n_sites,
        parameters=(("J", J), ("h", h), ("N", n_sites)),
        provenance="lambda formula (3J + h/2) N",
    )


def tfim_entry(J: float, h: float, length: int) -> SystemEntry:
    """Transverse-field Ising model on L x L: N_L = L^2, lambda = (2J + h) L^2."""
    return SystemEntry(
        name="TFIM",
        n_l=length * length,
        lam=(2.0 * J + h) * length * length,
        parameters=(("J", J), ("h", h), ("L", length)),
        provenance="lambda formula (2J + h) L^2",
    )


def hubbard_entry(t: float, u: float, length: int) -> SystemEntry:
    """2D Hubbard on the periodic L x L lattice (L >= 3): N_L = 2 L^2, lambda = (4t + U/4) L^2."""
    if length < 3:
        raise ValueError("periodic boundaries need L >= 3 (degenerate edges otherwise)")
    if t < 0.0 or u < 0.0:
        raise ValueError("t and U must be non-negative")
    return SystemEntry(
        name="Hubbard",
        n_l=2 * length * length,
        lam=(4.0 * t + 0.25 * u) * length * length,
        parameters=(("t", t), ("U", u), ("L", length)),
        provenance="lambda formula (4t + U/4) L^2; periodic boundaries",
    )


MOLECULES: tuple[SystemEntry, ...] = (
    SystemEntry("2Fe-2S", 40, 38.2, "Hartree", (), "(30e, 20o) active space"),
    SystemEntry("4Fe-4S", 72, 137.8, "Hartree", (), "(54e, 36o) active space"),
    SystemEntry("FeMoco(S=0)", 108, 308.2, "Hartree", (), "(54e, 54o) active space"),
    SystemEntry("FeMoco(S=3/2)", 152, 512.5, "Hartree", (), "(113e, 76o) active space"),
)


def molecule(name: str) -> SystemEntry:
    for entry in MOLECULES:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown molecule {name!r}; known: {[m.name for m in MOLECULES]}")


def catalog(
    J: float = 1.0,
    h: float = 1.0,
    t: float = 1.0,
    u: float = 4.0,
    n_sites: int = 10,
    length: int = 10,
) -> tuple[SystemEntry, ...]:
    """The seven benchmark rows; lattice formulas evaluated at the given parameters."""
    return (
        rfic_entry(J, h, n_sites),
        tfim_entry(J, h, length),
        hubbard_entry(t, u, length),
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
    interaction: (U/4) Z_up Z_down per site.  Periodic boundaries require
    L >= 3 (L = 2 would duplicate wrap-around edges).  Zero couplings emit
    no terms, so the count is 9 L^2 only when both t and u are non-zero.
    """
    if length < 3:
        raise ValueError("periodic boundaries need L >= 3 (degenerate edges otherwise)")
    if t < 0.0 or u < 0.0:
        raise ValueError("t and U must be non-negative")

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


def export_terms(terms: list[PauliTerm]) -> str:
    """Serialize terms, one per line: ``<coefficient> <op>:<site> ...``.

    Deterministic ordering: hopping (multi-letter) terms first, then the
    ZZ interaction terms, each block sorted by site tuple then letters.
    """
    def is_interaction(term: PauliTerm) -> bool:
        return all(letter == "Z" for _, letter in term.ops)

    def key(term: PauliTerm):
        return (
            is_interaction(term),
            tuple(q for q, _ in term.ops),
            tuple(letter for _, letter in term.ops),
        )

    lines = []
    for term in sorted(terms, key=key):
        ops = " ".join(f"{letter}:{q}" for q, letter in term.ops)
        lines.append(f"{term.coefficient!r} {ops}")
    return "\n".join(lines) + "\n"
