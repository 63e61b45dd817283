"""Deterministic seed derivation.

One master seed fans out into named substreams through a keyed blake2b hash,
so per-panel, per-period, and per-replication streams are reproducible on any
platform and under any execution schedule. index_block draws a block of
bounded indices from a substream as Generator.integers does, bit for bit,
but a chunk of the generator's raw words at a time instead of one value at
a time.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAX_SEED = 2**64 - 1


def derive_seed(master_seed: int, *path) -> int:
    """Mix a master seed and a path of labels into a new 64-bit seed.

    The mixing function is blake2b over the decimal master seed followed by
    the repr of each path element, separated by '/'. Stable across processes,
    platforms, and Python versions (no builtin hash()).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest(), "little")


def substream(master_seed: int, *path) -> np.random.Generator:
    """A fresh PCG64 generator seeded from derive_seed(master_seed, *path)."""
    return np.random.default_rng(derive_seed(master_seed, *path))


#: Values drawn per chunk of raw words by index_block.
_INDEX_CHUNK = 1 << 15


def index_block(master_seed: int, *path, n: int, shape) -> np.ndarray:
    """substream(master_seed, *path).integers(0, n, size=shape,
    dtype=np.min_scalar_type(n - 1)), bit for bit, for 1 <= n <= 2**32.

    numpy draws such an index with Lemire's rule (Lemire 2019, "Fast Random
    Integer Generation in an Interval"), one value at a time: with b the
    dtype's bits, a b-bit value x gives m = x*n in 2b bits, and x is
    rejected while the low half of m is below (2**b - n) % n; else the high
    half of m is the index. The b-bit values are the little-endian 8, 16 or
    32-bit lanes of the generator's 64-bit words in turn, since PCG64 hands
    out the low half of a word first and numpy splits each 32-bit draw from
    its low byte up. A fresh generator has no half-word buffered, so here
    the rule runs on a chunk of raw words at a time, and the accepted lanes,
    in order, are the indices.
    """
    if not 1 <= n <= 2**32:
        raise ValueError(f"n must lie in [1, 2**32], got {n}")
    dtype = np.min_scalar_type(n - 1)
    size = dtype.itemsize
    narrow, wide = np.dtype(f"<u{size}"), np.dtype(f"<u{2 * size}")
    threshold = (2 ** (8 * size) - n) % n
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    bit_generator = substream(master_seed, *path).bit_generator
    product = np.empty(_INDEX_CHUNK, wide)
    keep = np.empty(_INDEX_CHUNK, bool)
    filled = 0
    while filled < flat.size:
        raw = bit_generator.random_raw(_INDEX_CHUNK * size // 8)
        lanes = raw.astype("<u8", copy=False).view(narrow)
        product[:] = lanes
        np.multiply(product, wide.type(n), out=product)
        if threshold:
            np.multiply(lanes, narrow.type(n), out=lanes)  # wraps to the low half
            np.greater_equal(lanes, threshold, out=keep)
        lanes[:] = np.right_shift(product, 8 * size, out=product)  # the high half
        taken = lanes[keep] if threshold else lanes
        count = min(taken.size, flat.size - filled)
        flat[filled : filled + count] = taken[:count]
        filled += count
    return out


def check_seed(seed: int, what: str = "seed") -> int:
    from .errors import ValidationError

    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"{what} must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) <= MAX_SEED:
        raise ValidationError(f"{what} must lie in [0, 2**64), got {seed}")
    return int(seed)
