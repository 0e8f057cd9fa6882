"""Shared fixtures."""

import sys

import numpy as np
import pytest

from spinorminimal.elliptic import build_context


class Calls(list):
    """The positional arguments of each call of .fn, a counting wrapper."""


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces owner.name for the test with a
    wrapper that records each call; count_calls(fn) wraps a bare callable.
    Either way the returned Calls list grows by one entry per call, and its
    fn attribute is the wrapper."""
    def count(target, name=None):
        fn = target if name is None else getattr(target, name)
        calls = Calls()

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        calls.fn = counted
        if name is not None:
            monkeypatch.setattr(target, name, counted)
        return calls
    return count


@pytest.fixture
def count_everywhere(count_calls):
    """count_everywhere(module, name) applies count_calls on every package
    module that binds module.name, and returns their Calls lists."""
    def count(module, name):
        fn = getattr(module, name)
        return [count_calls(m, name) for m in list(sys.modules.values())
                if m is not None and m.__name__.startswith("spinorminimal")
                and getattr(m, name, None) is fn]
    return count


@pytest.fixture
def thin_cell():
    """thin_cell(re_tau, thinness, size, angle, k1, k2, seed) builds a draw of
    tests/test_spinor.py::test_oracle_on_random_skewed_lattices with Im(tau)
    up to 25 and the ends over the whole cell: (context, b1, b2, ends)."""
    def draw(re_tau, thinness, size, angle, k1, k2, seed):
        lo = np.sqrt(1.0 - re_tau**2)
        b1 = size * np.exp(1j * angle)
        b2 = b1 * complex(re_tau, lo * (25.0 / lo) ** thinness)
        p1 = b1 + k1 * b2
        ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
        rng = np.random.default_rng(seed)
        fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) \
            + rng.uniform(-0.05, 0.05, (3, 2))
        return ctx, b1, b2, tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions)
    return draw
