"""Shared fixtures."""

import pytest


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
