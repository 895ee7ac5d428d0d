"""Shared fixtures."""

import collections
import sys

import pytest

import sesqc.linalg


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts of ``symmetric_eig``/``hermitian_eig`` calls, in every sesqc module that binds them."""
    calls = collections.Counter()
    for name in ("symmetric_eig", "hermitian_eig"):
        original = getattr(sesqc.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("sesqc") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
