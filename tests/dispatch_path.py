"""The SIMD path that numpy's exp and log take in this process.

numpy picks its exp and log kernels by the CPU features it finds at import.
On x86 the AVX-512 (X86_V4) kernels and the portable ones differ in the last
bit of some values, so a digest of anything built on a simulated panel holds
on one path only. Such a pin keeps one digest per path, keyed by the name
that dispatch_path() gives.

``NPY_DISABLE_CPU_FEATURES=PORTABLE_FEATURES`` sends one process on an
AVX-512 CPU down the portable path, which CPUs without AVX-512 take.
"""

import hashlib

import numpy as np
import pytest

PORTABLE_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"

# sha256 of np.exp over the probe's 256 values on each known path; the
# AVX-512 kernels round 15 of them otherwise than math.exp, the portable
# ones none
_PATHS = {
    "34b8af053718567c553931249ad0d7091166ed9834b12683d9353461c2a97c50": "avx512",
    "350f2b2166b2b497795453f065e42066092a3cd39ee58311c9822b5bb14aec11": "portable",
}


def dispatch_path() -> str:
    """The path's name, "avx512" or "portable", told by the bits of np.exp
    over 256 fixed normal draws with sd 3. A path with no pins fails the
    test that asks, naming the probe's digest to record its pins under."""
    x = np.random.default_rng(0).normal(scale=3.0, size=256)
    digest = hashlib.sha256(np.exp(x).tobytes()).hexdigest()
    if digest not in _PATHS:
        pytest.fail(f"np.exp takes a dispatch path with no pins: probe digest {digest}")
    return _PATHS[digest]
