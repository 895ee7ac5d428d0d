"""Shared fixtures."""

import collections
import sys

import pytest

import sesqc.linalg


def _count_calls(monkeypatch, names) -> collections.Counter:
    """Count calls of ``sesqc.linalg`` functions, in every sesqc module that binds them."""
    calls = collections.Counter()
    for name in names:
        original = getattr(sesqc.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("sesqc") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts of ``symmetric_eig``/``hermitian_eig`` calls."""
    return _count_calls(monkeypatch, ("symmetric_eig", "hermitian_eig"))


@pytest.fixture
def expm_calls(monkeypatch):
    """Counts of dense pulse exponentials (``expm_generator`` calls)."""
    return _count_calls(monkeypatch, ("expm_generator",))
