"""Counter-based random streams.

Every random quantity in the package comes from a Philox-4x64 stream keyed by
an explicit (seed, subkey) pair.  Philox is counter based, so any position in
a stream can be reached in O(1) with ``advance`` and the output depends only on
(key, position), never on platform or draw history.  Subkeys keep streams for
different purposes disjoint: run ``r`` of a solver uses subkey ``r``; noise
generation uses a fixed high subkey that no run index reaches.
"""

from __future__ import annotations

import numpy as np

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits 4 raw 64-bit words per counter step
NOISE_SUBKEY = 2**63 + 11  # run subkeys are small ints; this never collides


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed lies in [0, 2**64).  A seed is one 64-bit
    key word of a stream; callers check it where it enters, whether or not
    a stream is drawn from it."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} lies outside [0, 2**64)")


def _philox(seed: int, subkey: int) -> np.random.Philox:
    """The generator of stream (seed, subkey) at position 0."""
    check_seed(seed)
    return np.random.Philox(key=np.array([seed, subkey], dtype=np.uint64))


def raw_block(seed: int, subkey: int, start: int, count: int) -> np.ndarray:
    """Raw 64-bit words at positions start..start+count-1 of stream (seed, subkey)."""
    if start < 0 or count < 0:
        raise ValueError("stream positions are nonnegative")
    bg = _philox(seed, subkey)
    bg.advance(start // _WORDS_PER_BLOCK)
    pad = start % _WORDS_PER_BLOCK
    return bg.random_raw(pad + count)[pad:]


class IndexStream:
    """Uniform row indices in [0, n); element k is addressable in O(1).

    The k-th index is a pure function of (seed, subkey, k): the k-th raw word
    reduced modulo n.  The modulo bias is at most n / 2**64, far below any
    tolerance used here.
    """

    def __init__(self, seed: int, n: int, subkey: int = 0):
        if n <= 0:
            raise ValueError("need at least one row to sample")
        self.seed = int(seed)
        self.subkey = int(subkey)
        self.n = int(n)

    def block(self, start: int, count: int) -> np.ndarray:
        raw = raw_block(self.seed, self.subkey, start, count)
        return (raw % np.uint64(self.n)).astype(np.int64)


def index_blocks(seed: int, n: int, subkeys, start: int, count: int
                 ) -> np.ndarray:
    """Positions start..start+count-1 of many index streams at once.

    Returns a (count, runs) int64 array whose column r is, bit for bit,
    ``IndexStream(seed, n, subkeys[r]).block(start, count)``.  One Philox
    generator serves every stream: its state is set to the key (seed,
    subkey) with the counter at start // 4, which is the state a new
    generator reaches after ``advance(start // 4)``.  Building a generator
    per stream costs about 20 us (it also draws OS entropy for a
    SeedSequence) and ``advance`` about 5 us; setting the state costs 2 us.
    """
    if n <= 0:
        raise ValueError("need at least one row to sample")
    if start < 0 or count < 0:
        raise ValueError("stream positions are nonnegative")
    bg = _philox(seed, 0)
    state = bg.state
    key = state["state"]["key"]
    state["state"]["counter"][0] = start // _WORDS_PER_BLOCK
    pad = start % _WORDS_PER_BLOCK
    out = np.empty((count, len(subkeys)), dtype=np.uint64)
    for r, subkey in enumerate(subkeys):
        key[1] = subkey
        bg.state = state
        out[:, r] = bg.random_raw(pad + count)[pad:]
    out %= np.uint64(n)
    return out.view(np.int64)


def standard_gaussians(seed: int, count: int) -> np.ndarray:
    """`count` N(0,1) draws via Box-Muller on the raw uniform stream.

    Box-Muller on explicit uniforms (rather than a library normal generator)
    keeps the mapping raw-words -> sample fixed, so noise vectors reproduce
    bit-for-bit from the seed alone.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    raw = raw_block(seed, NOISE_SUBKEY, 0, 2 * pairs)
    # top 53 bits, offset by half an ulp: uniforms lie strictly inside (0, 1)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u1, u2 = u[:pairs], u[pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:count]
