"""Counter-based stream splitting for reproducible parallel Monte Carlo.

Stream k is Philox4x64-10 keyed with root_seed XOR k. Within one root seed
the keys are distinct, so the streams are statistically independent, and the
mapping is stateless, so any subset of trajectories can be regenerated
bit-exactly without touching the others. Across root seeds they are not
independent: for n = 2^b, two seeds that agree above their low b bits share
the key set of streams 0..n-1, so they draw the same points in another
order (2024 and 2025 from n = 2, 7 and 2024 from n = 2048). Keying on the
pair (root_seed, k) is open item 9 of ROADMAP.md.

Because a Philox output is a pure function of (key, counter), the first
draw of every stream is computed in one uint64 array pass over all keys
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). It is
bitwise equal to
``Generator(Philox(key=(root_seed ^ k) & (2**128 - 1))).random()``.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def stream_uniforms(root_seed: int, n: int) -> np.ndarray:
    """First uniform of each of the streams 0..n-1 (one draw per stream)."""
    seed = int(root_seed)
    k = np.arange(n, dtype=np.uint64)
    key = [np.uint64(seed & _MASK64) ^ k, np.full(n, (seed >> 64) & _MASK64, dtype=np.uint64)]
    # numpy's Philox advances the counter before its first block: counter 1
    ctr = [np.ones(n, dtype=np.uint64)] + [np.zeros(n, dtype=np.uint64)] * 3
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                key = [key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
            hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
            ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    return (ctr[0] >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
