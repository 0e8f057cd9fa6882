"""Spin structures on hyperelliptic surfaces as Z2-quadratic forms.

A genus-g hyperelliptic curve w^2 = prod (z - a_i) over 2g+1 branch
points carries 2^{2g} spin structures eta_B = f_B(z) dz/w indexed by
subsets B of the branch set with #B <= g.  H_1(M, Z2) is modeled by the
even-cardinality subsets C of the branch set (the points enclosed by a
cycle's projection), with symmetric difference as addition and
#(C1 & C2) mod 2 as the intersection pairing; the quadratic form is

    q_B(C) = #(B & C) + #C/2  (mod 2).

The Arf invariant is evaluated both by brute-force enumeration of the
2^{2g} classes and by the closed form 2g - 2#B + 1 = +-1 (mod 8).

For the torus, branch points are labeled by the half-period values
e_1, e_2, e_3 and the generator alpha_i corresponds to the even subset
{e_j, e_k} complementary to e_i; that assignment is a pinned convention,
fixed by requiring the published table of q-values to reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "HyperellipticSpin",
    "q_value",
    "arf_bruteforce",
    "arf_closed_form",
    "xi",
    "xi_closed_form",
    "spin_structure_counts",
    "torus_spin_table",
    "TORUS_GENERATOR_SUBSETS",
]


@dataclass(frozen=True)
class HyperellipticSpin:
    """Branch set A (2g+1 labels) and subset B with #B <= g."""

    branch: tuple
    B: frozenset

    def __post_init__(self):
        branch = tuple(self.branch)
        B = frozenset(self.B)
        if len(set(branch)) != len(branch):
            raise ValueError("branch points must be distinct")
        if len(branch) % 2 != 1:
            raise ValueError("branch set must have odd size 2g+1")
        if not B <= set(branch):
            raise ValueError("B must be a subset of the branch set")
        g = (len(branch) - 1) // 2
        if len(B) > g:
            raise ValueError(f"#B = {len(B)} exceeds genus {g}")
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "B", B)

    @property
    def g(self) -> int:
        return (len(self.branch) - 1) // 2


def q_value(spin: HyperellipticSpin, C) -> int:
    """q_B(C) = #(B & C) + #C/2 (mod 2) for an even subset C."""
    C = frozenset(C)
    if not C <= set(spin.branch):
        raise ValueError("C must consist of branch points")
    if len(C) % 2 != 0:
        raise ValueError("C must have even cardinality")
    return (len(spin.B & C) + len(C) // 2) % 2


def _even_subsets(branch):
    for k in range(0, len(branch) + 1, 2):
        yield from (frozenset(c) for c in combinations(branch, k))


def arf_bruteforce(spin: HyperellipticSpin) -> int:
    """2^{-g} sum over H_1(M, Z2) of (-1)^q; always exactly +-1."""
    if spin.g > 6:
        raise ValueError("brute force limited to g <= 6")
    total = sum((-1) ** q_value(spin, C) for C in _even_subsets(spin.branch))
    arf = total // 2**spin.g
    if arf * 2**spin.g != total or arf not in (1, -1):
        raise AssertionError("Arf sum did not reduce to +-1")
    return arf


def arf_closed_form(g: int, b: int) -> int:
    """+1 when 2g - 2b + 1 = +-1 (mod 8), else -1."""
    if not 0 <= b <= g:
        raise ValueError("need 0 <= b <= g")
    return 1 if (2 * g - 2 * b + 1) % 8 in (1, 7) else -1


def xi(c: int, k: int) -> int:
    """sum of binomials C(c, i) over i = k (mod 4)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    return sum(math.comb(c, i) for i in range(k % 4, c + 1, 4))


def xi_closed_form(c: int, k: int) -> float:
    """2^{(c-2)/2} (2^{(c-2)/2} + cos(pi (c - 2k)/4)).

    Matches xi exactly for c >= 1; at c = 0 the two sides differ (the
    closed form is a Pascal-triangle identity valid for nonempty rows).
    """
    h = 2.0 ** ((c - 2) / 2.0)
    return h * (h + math.cos(math.pi * (c - 2 * k) / 4.0))


def spin_structure_counts(g: int):
    """(#Arf=+1, #Arf=-1) among the 2^{2g} spin structures.

    Enumerates the representatives B with #B <= g (distinct by the
    B ~ complement identification, one per structure) and applies the
    closed form; the totals match 2^{2g-1} +- 2^{g-1}.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    if g > 6:
        raise ValueError("enumeration limited to g <= 6")
    plus = minus = 0
    for b in range(0, g + 1):
        count = math.comb(2 * g + 1, b)
        if arf_closed_form(g, b) == 1:
            plus += count
        else:
            minus += count
    if plus + minus != 2 ** (2 * g):
        raise AssertionError("spin structure enumeration does not total 2^(2g)")
    return plus, minus


# alpha_i encloses the two branch points other than e_i (pinned convention)
TORUS_GENERATOR_SUBSETS = {
    1: frozenset({"e2", "e3"}),
    2: frozenset({"e1", "e3"}),
    3: frozenset({"e1", "e2"}),
}

_TORUS_ROWS = (
    ("du", frozenset()),
    ("(wp(u)-e1)du", frozenset({"e1"})),
    ("(wp(u)-e2)du", frozenset({"e2"})),
    ("(wp(u)-e3)du", frozenset({"e3"})),
)


def torus_spin_table():
    """The published 4x5 torus table, generated from q_value.

    Rows (eta, q(0), q(a1), q(a2), q(a3), Arf) for the four differentials
    du and (wp - e_i) du, using the pinned generator/subset convention.
    """
    branch = ("e1", "e2", "e3")
    rows = []
    for label, B in _TORUS_ROWS:
        spin = HyperellipticSpin(branch, B)
        qs = [q_value(spin, frozenset())] + [
            q_value(spin, TORUS_GENERATOR_SUBSETS[i]) for i in (1, 2, 3)]
        rows.append({"eta": label, "q": tuple(qs), "arf": arf_bruteforce(spin)})
    return rows
