"""Z2-quadratic forms, Arf invariants, and the torus spin table."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal.arf import (
    HyperellipticSpin,
    arf_bruteforce,
    arf_closed_form,
    q_value,
    spin_structure_counts,
    torus_spin_table,
    xi,
    xi_closed_form,
)


def even_subsets(branch):
    for k in range(0, len(branch) + 1, 2):
        yield from (frozenset(c) for c in combinations(branch, k))


def all_spins(g):
    branch = tuple(range(2 * g + 1))
    for b in range(g + 1):
        for B in combinations(branch, b):
            yield HyperellipticSpin(branch, frozenset(B))


class TestQValue:
    def test_direct_substitutions(self):
        spin = HyperellipticSpin((0, 1, 2), frozenset({0}))
        assert q_value(spin, {0, 1}) == 0  # 1 + 1 mod 2
        empty = HyperellipticSpin((0, 1, 2), frozenset())
        for C in combinations((0, 1, 2), 2):
            assert q_value(empty, C) == 1

    def test_rejects_odd_subset(self):
        spin = HyperellipticSpin((0, 1, 2), frozenset())
        with pytest.raises(ValueError):
            q_value(spin, {0})

    def test_quadratic_law_exhaustive_g2(self):
        # q(C1 ^ C2) = q(C1) + q(C2) + #(C1 & C2)  (mod 2)
        for g in (1, 2):
            for spin in all_spins(g):
                evens = list(even_subsets(spin.branch))
                for c1 in evens:
                    for c2 in evens:
                        lhs = q_value(spin, c1 ^ c2)
                        rhs = (q_value(spin, c1) + q_value(spin, c2) + len(c1 & c2)) % 2
                        assert lhs == rhs


class TestArf:
    def test_torus_values(self):
        branch = (0, 1, 2)
        assert arf_bruteforce(HyperellipticSpin(branch, frozenset())) == -1
        assert arf_bruteforce(HyperellipticSpin(branch, frozenset({0}))) == +1

    def test_closed_form_examples(self):
        assert arf_closed_form(1, 0) == -1
        assert arf_closed_form(1, 1) == +1
        assert arf_closed_form(2, 0) == -1

    def test_bruteforce_equals_closed_form_exhaustive(self):
        for g in (1, 2, 3):
            for spin in all_spins(g):
                assert arf_bruteforce(spin) == arf_closed_form(g, len(spin.B))

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            HyperellipticSpin((0, 1, 2), frozenset({0, 1}))  # #B > g = 1


class TestXi:
    def test_examples(self):
        assert xi(4, 0) == 2
        assert xi(0, 0) == 1
        assert xi(5, 1) == 6

    def test_closed_form_matches_for_positive_c(self):
        for c in range(1, 21):
            for k in range(4):
                assert xi_closed_form(c, k) == pytest.approx(xi(c, k), abs=1e-9)

    def test_row_sum(self):
        for c in range(0, 12):
            assert sum(xi(c, k) for k in range(4)) == 2**c


class TestCounts:
    def test_small_genus(self):
        assert spin_structure_counts(0) == (1, 0)
        assert spin_structure_counts(1) == (3, 1)
        assert spin_structure_counts(2) == (10, 6)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            spin_structure_counts(-1)

    def test_formula(self):
        for g in range(0, 5):
            plus, minus = spin_structure_counts(g)
            assert plus == 2 ** (2 * g - 1) + 2 ** (g - 1) if g >= 1 else plus == 1
            assert plus + minus == 2 ** (2 * g)

    def test_counts_match_enumeration(self):
        for g in (1, 2, 3):
            plus = sum(1 for spin in all_spins(g) if arf_bruteforce(spin) == 1)
            minus = sum(1 for spin in all_spins(g) if arf_bruteforce(spin) == -1)
            assert spin_structure_counts(g) == (plus, minus)


class TestTorusTable:
    def test_exact_reproduction(self):
        rows = torus_spin_table()
        expected = [
            ("du", (0, 1, 1, 1), -1),
            ("(wp(u)-e1)du", (0, 1, 0, 0), +1),
            ("(wp(u)-e2)du", (0, 0, 1, 0), +1),
            ("(wp(u)-e3)du", (0, 0, 0, 1), +1),
        ]
        assert [(r["eta"], r["q"], r["arf"]) for r in rows] == expected


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_arf_matches_closed_form_random(g, data):
    branch = tuple(range(2 * g + 1))
    b = data.draw(st.integers(0, g))
    B = frozenset(data.draw(st.permutations(branch))[:b])
    spin = HyperellipticSpin(branch, B)
    assert arf_bruteforce(spin) == arf_closed_form(g, b)
