"""The long-CSV reader's float kernel against float(), its oracle."""

import numpy as np
import pytest

import stfrontier.io as stio
from stfrontier.io import _parse_floats, read_te_csv


def parsed(texts):
    """The kernel's value and settled flag for each text, laid out as the
    comma-closed fields of one block."""
    data = "".join(text + "," for text in texts).encode()
    chars = np.zeros(stio._WINDOW + len(data) + 8, np.uint8)
    chars[stio._WINDOW : -8] = np.frombuffer(data, np.uint8)
    lengths = np.array([len(text.encode()) for text in texts], np.intp)
    ends = stio._WINDOW + np.cumsum(lengths + 1) - 1
    return _parse_floats(chars, ends, lengths)


def assert_settled_match_float(texts, settled_at_least=0.0):
    """Every value the kernel settles is float(text) bit for bit; returns
    the settled mask."""
    # in blocks of about the size the reader passes
    results = [parsed(texts[start : start + 20_000]) for start in range(0, len(texts), 20_000)]
    values = np.concatenate([result[0] for result in results])
    settled = np.concatenate([result[1] for result in results])
    expected = np.array([float(text) for text in texts])
    wrong = np.flatnonzero(settled & (values.view(np.uint64) != expected.view(np.uint64)))
    if len(wrong):
        i = wrong[0]
        raise AssertionError(f"{texts[i]!r}: got {values[i]!r}, float() {expected[i]!r}")
    assert settled.mean() >= settled_at_least
    return settled


def neighbours(x, steps):
    """x and its nextafter neighbours up to `steps` away on each side."""
    out = [np.asarray(x, dtype=float)]
    for target in (0.0, np.inf):
        y = out[0]
        for _ in range(steps):
            y = np.nextafter(y, target)
            out.append(y)
    return np.concatenate(out)


def signed(rng, texts):
    flips = rng.integers(0, 2, len(texts))
    return [("-" if flip else "") + text for flip, text in zip(flips, texts)]


def repr_texts(rng, size):
    """repr() of log-uniform values in 1e-4..1e15 and of their neighbours,
    as the writer prints them."""
    values = 10 ** rng.uniform(-4, 15, size=size)
    return signed(rng, list(map(repr, neighbours(values, 2).tolist())))


def binade_edges():
    """Powers of two and their neighbours, printed by repr() and with 16 to
    20 significant digits."""
    values = neighbours(2.0 ** np.arange(-13, 63), 4).tolist()
    return [f"{value:.{digits}g}" for value in values for digits in (16, 17, 18, 19, 20)] + [
        repr(value) for value in values
    ]


def mantissas(rng, digits, size):
    """`digits`-digit mantissas with the point anywhere, some behind zeros."""
    first = rng.integers(1, 10, size=size)
    rest = rng.integers(0, 10, size=(size, digits - 1))
    points = rng.integers(0, digits + 1, size=size)
    zeros = rng.integers(0, 4, size=size) * (points == 0)
    out = []
    for lead, tail, point, zero in zip(first, rest, points.tolist(), zeros.tolist()):
        text = str(lead) + "".join(map(str, tail))
        out.append("0" * zero + text[:point] + "." + text[point:] if point or zero else text)
    return signed(rng, out)


def ties(rng, size):
    """Decimals exactly halfway between two doubles: (2m + 1) * 2**(e-1)
    with m in [2**52, 2**53), printed in full."""
    out = ["9007199254740993", "9007199254740995", "9007199254740993.0", "18014398509481986"]
    m = rng.integers(1 << 52, 1 << 53, size=size, dtype=np.int64).tolist()
    for e, odd in zip(rng.integers(-3, 11, size=size).tolist(), m):
        odd = 2 * odd + 1
        if e >= 1:
            out.append(str(odd << (e - 1)))
        else:  # odd / 2**(1-e) = odd * 5**(1-e) / 10**(1-e)
            digits = str(odd * 5 ** (1 - e))
            out.append(digits[: e - 1] + "." + digits[e - 1 :])
    return signed(rng, out)


def fixed_points(rng, size):
    """Values printed with '%.{p}f' for p = 0..22."""
    values = rng.uniform(size=size) * 10 ** rng.uniform(-3, 6, size=size)
    places = rng.integers(0, 23, size).tolist()
    return signed(rng, [f"{value:.{p}f}" for value, p in zip(values.tolist(), places)])


SPELLINGS = ["-0.0", "0.0", "0", "-0", "1.", ".5", "-.5", "007", "00.000", "-1.", "0.", "-0."]


def oracle_sweep() -> list[str]:
    rng = np.random.default_rng(20261018)
    return [
        *repr_texts(rng, 60_000),
        *binade_edges(),
        *(text for digits in (16, 17, 19, 20) for text in mantissas(rng, digits, 30_000)),
        *ties(rng, 30_000),
        *fixed_points(rng, 60_000),
        *SPELLINGS,
    ]


def test_oracle_sweep_matches_float():
    texts = oracle_sweep()
    assert len(texts) >= 500_000
    settled = assert_settled_match_float(texts)
    # the kernel settles most of them; what it leaves goes to np.loadtxt
    assert settled.mean() > 0.8


def test_writer_output_stays_in_the_kernel():
    # a kernel that settled nothing would pass the sweep; this one must not
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(size=50_000), np.exp(rng.normal(size=50_000))])
    settled = assert_settled_match_float(list(map(repr, values.tolist())))
    below = int((np.abs(values) < 1e-4).sum())  # repr() writes these with an exponent
    assert below <= (~settled).sum() < below + 50


@pytest.mark.parametrize("text", SPELLINGS)
def test_spellings_are_settled(text):
    values, settled = parsed([text, "0.1"])
    assert settled.all()
    assert values.view(np.uint64).tolist() == np.array([float(text), 0.1]).view(np.uint64).tolist()


@pytest.mark.parametrize(
    "text",
    ["1e5", "1E5", "+1", "nan", "-inf", "infinity", "1_000", "", ".", "-", "-.", "1.2.3", "--1",
     "1-", "0x1", "١", "é", "1.5\x0b", "\x0c1", "12345678901234567890",
     "0.00000000000000000000001", ".12345678901234567890123", ".00001234567890123456789",
     "1234567890.12345678901234", "1000000000000000000000000.5", "9007199254740993"],
)
def test_other_spellings_are_left_to_loadtxt(text):
    values, settled = parsed(["0.25", text, "0.5"])
    assert settled.tolist() == [True, False, True]
    assert values[[0, 2]].tolist() == [0.25, 0.5]


def test_reader_matches_float_with_the_fallback(tmp_path):
    # the kernel and the loadtxt fallback together: every value is float()'s
    rng = np.random.default_rng(3)
    texts = [texts[i] for texts in (oracle_sweep(),) for i in rng.permutation(len(texts))[:60_000]]
    texts += ["1e5", "+1", "1E-7", "9007199254740993", "12345678901234567890"]
    target = tmp_path / "te.csv"
    target.write_text("unit,period,te\n" + "".join(f"{i},1,{t}\n" for i, t in enumerate(texts)))
    te, units, _ = read_te_csv(str(target))
    assert units == tuple(map(str, range(len(texts))))
    expected = np.array([float(text) for text in texts])
    assert np.array_equal(te[:, 0].view(np.uint64), expected.view(np.uint64))
