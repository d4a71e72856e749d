"""The seeded random stream: numpy's ``default_rng(seed)``, bit for bit.

numpy's default generator is PCG64 (O'Neill 2014, the XSL-RR output of a
128-bit LCG) seeded through ``SeedSequence``; bounded integers use Lemire's
method (ACM TOMACS 2019) on 32-bit draws.  The few thousand draws a run
makes are cheap in Python ints.  Importing numpy's random package instead
would load five extension modules, and OpenSSL through its ``secrets``
import.  Only the calls mfjq makes are provided.
"""
from __future__ import annotations

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list:
    """SeedSequence(seed).generate_state(4, uint64), from a pool of 4 words."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    entropy = [seed >> k & M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = ((v ^ h) * (h := h * 0x931E8875 & M32)) & M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(word))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v = ((pool[i % 4] ^ h) * (h := h * 0x58F38DED & M32)) & M32
        out.append(v ^ v >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """PCG64 with numpy's ``random``, ``uniform`` and ``integers``."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_words(seed)
        # from state 0: step (which gives inc), add the seed, step again
        self.inc = ((w2 << 64 | w3) << 1 | 1) & M128
        self.state = ((self.inc + (w0 << 64 | w1)) * PCG_MULT + self.inc) & M128
        self.half = None  # the unused high half of the last 64-bit draw

    def next64(self) -> int:
        s = self.state = (self.state * PCG_MULT + self.inc) & M128
        x, rot = ((s >> 64) ^ s) & M64, s >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def next32(self) -> int:
        if self.half is not None:
            out, self.half = self.half, None
            return out
        x = self.next64()
        self.half = x >> 32
        return x & M32

    def random(self, n=None):
        if n is None:
            return (self.next64() >> 11) * 2.0 ** -53
        return np.array([self.random() for _ in range(n)])

    def uniform(self, lo: float, hi: float, n=None):
        return lo + (hi - lo) * self.random(n)

    def integers(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi), for 1 < hi - lo < 2**32."""
        span = hi - lo
        m = self.next32() * span
        if m & M32 < span:
            threshold = (1 << 32) % span
            while m & M32 < threshold:
                m = self.next32() * span
        return lo + (m >> 32)


def default_rng(seed: int) -> Generator:
    """The generator numpy's ``default_rng(seed)`` would give."""
    return Generator(seed)
