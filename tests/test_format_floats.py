"""The long-CSV writer's float kernel against repr(), its oracle."""

import numpy as np
import pytest

import stfrontier.io as stio
from stfrontier.io import _format_floats


def formatted(values) -> list[str]:
    """Each value as the kernel formats it, split at the commas the slots' spare
    bytes take (repr() never writes a comma), with the filler bytes dropped."""
    slots = _format_floats(values)
    slots[:, 0] = ord(",")
    return slots[slots != stio._FILL].tobytes().decode().split(",")[1:]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float)
    # in blocks of the size the writer passes, which keep the arrays in cache
    got = [
        text
        for start in range(0, len(values), 20_000)
        for text in formatted(values[start : start + 20_000])
    ]
    expected = list(map(repr, values.tolist()))
    if got != expected:
        i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        raise AssertionError(
            f"value {i} ({values[i].hex()}): got {got[i]!r}, repr {expected[i]!r}"
        )


def neighbours(x, steps):
    """x and its nextafter neighbours up to `steps` away on each side."""
    out = [np.asarray(x, dtype=float)]
    for target in (0.0, np.inf):
        y = out[0]
        for _ in range(steps):
            y = np.nextafter(y, target)
            out.append(y)
    return np.concatenate(out)


def random_bits(rng, size, low, high):
    """Floats with uniform random mantissa bits and sign, and exponents of 2
    uniform in [low, high)."""
    bits = rng.integers(0, 1 << 52, size=size, dtype=np.uint64)
    bits |= (rng.integers(low, high, size=size) + 1023).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    return bits.view(float)


def significant_digits(rng, digits, size):
    """Decimals with exactly `digits` significant digits, spread over the
    exponents around the kernel's domain."""
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, size=size)
    exponents = rng.integers(-6 - digits, 17 - digits, size=size)
    return np.array([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])


def exact_ties(rng, size):
    """Values whose nearest L-digit decimal, L = 15, 16 or 17, is a tie:
    x * 10**k = N + 1/2 exactly, so x = j / 2**(k+1) with j odd."""
    out = []
    for e10 in range(-4, 15):
        for length in (15, 16, 17):
            k = length - 1 - e10
            low, high = 10.0**e10 * 2 ** (k + 1), min(10.0 ** (e10 + 1) * 2 ** (k + 1), 2.0**53)
            if low < high:
                odd = rng.integers(int(low), int(high), size=size) | 1
                out.append(odd / 2.0 ** (k + 1))
    return np.concatenate(out)


def oracle_sweep() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    powers_of_two = 2.0 ** np.arange(-40, 70)
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-8, 20)])
    parts = [  # with random_bits below, for the kernel's binades
        rng.integers(0, 2**64, size=30_000, dtype=np.uint64).view(float),  # any bits
        rng.uniform(size=100_000) * 10 ** rng.uniform(-6, 17, size=100_000),
        neighbours(np.concatenate([powers_of_two, powers_of_ten]), 3),
        neighbours(np.array([1e-4, 1e15]), 200),
        *(significant_digits(rng, digits, 12_000) for digits in range(1, 18)),
        exact_ties(rng, 2_000),
    ]
    values = np.concatenate(parts).view(np.uint64)
    values ^= rng.integers(0, 2, size=len(values), dtype=np.uint64) << np.uint64(63)  # signs
    return np.concatenate([random_bits(rng, 570_000, -15, 51), values.view(float)])


def test_oracle_sweep_matches_repr():
    values = oracle_sweep()
    assert len(values) >= 10**6
    assert_matches_repr(values)


def test_exact_ties_are_left_to_repr(monkeypatch):
    values = exact_ties(np.random.default_rng(7), 200)
    calls = []
    monkeypatch.setattr(stio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    assert_matches_repr(values)
    # some ties read back at 16 or 17 digits, and repr breaks those
    assert 0 < len(calls) < len(values)
    assert repr(70368744177664.125) == "70368744177664.12"
    assert formatted([70368744177664.125]) == ["70368744177664.12"]


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 0.5, 2.0**40, np.inf, -np.inf,
     np.nan, 9.999999999999999e-05, 1e-05, 1e15, 1e16, 1.7976931348623157e308],
)
def test_values_outside_the_domain_go_to_repr(monkeypatch, value):
    calls = []
    monkeypatch.setattr(stio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    assert formatted([value, 0.1]) == [repr(value), "0.1"]
    assert len(calls) == 1


def test_domain_values_stay_in_the_kernel(monkeypatch):
    # a kernel that sent everything to repr would pass the sweep; this one must not
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(size=50_000), np.exp(rng.normal(size=50_000))])
    calls = []
    monkeypatch.setattr(stio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    assert_matches_repr(values)
    outside = int((np.abs(values) < 1e-4).sum())
    assert len(calls) == outside < 100


@pytest.mark.parametrize("shape", [(0,), (1,), (3, 4), (2, 3, 5)])
def test_any_shape_gives_one_slot_per_value(shape):
    values = np.random.default_rng(5).normal(size=shape)
    slots = _format_floats(values)
    assert slots.shape == (values.size, stio._SLOT) and slots.dtype == np.uint8
    assert (slots[:, 0] == stio._FILL).all()
    assert_matches_repr(values.ravel())
