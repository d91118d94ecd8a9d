"""Helpers shared by the test modules."""


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.<name>`` so every call appends its positional arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls
