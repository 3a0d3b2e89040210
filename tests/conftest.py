"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(owner, name) patches owner.name for the test and
    returns the list of its calls: each call runs the original and
    appends (positional args, result) before returning the result, or
    (positional args, the exception) before raising it again."""

    def record(owner, name):
        calls = []
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except Exception as e:
                calls.append((args, e))
                raise
            calls.append((args, result))
            return result

        monkeypatch.setattr(owner, name, recorded)
        return calls

    return record
