"""Comparison of JSON-like reports whose floats may move by rounding."""

import math


def assert_reports_close(old, new, rtol, path="report"):
    """Assert that ``new`` matches ``old``: every float within relative
    ``rtol`` of the old one, and every other value, key, length and type
    equal. ``path`` names the field in the failure message."""
    if type(old) is float and type(new) is float:
        assert new == old or abs(new - old) <= rtol * abs(old) or (
            math.isnan(old) and math.isnan(new)
        ), f"{path}: {new!r} is not within {rtol} of {old!r}"
    elif type(old) is dict and type(new) is dict:
        assert list(new) == list(old), f"{path}: keys {list(new)} differ from {list(old)}"
        for key in old:
            assert_reports_close(old[key], new[key], rtol, f"{path}.{key}")
    elif type(old) in (list, tuple) and type(new) is type(old):
        assert len(new) == len(old), f"{path}: {len(new)} items, not {len(old)}"
        for i, (a, b) in enumerate(zip(old, new)):
            assert_reports_close(a, b, rtol, f"{path}[{i}]")
    else:
        assert type(new) is type(old) and new == old, f"{path}: {new!r} differs from {old!r}"
