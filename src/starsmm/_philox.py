"""numpy's Philox4x64-10 stream (``np.random.Philox``), read from any word position.

The Monte Carlo sampler's stream helpers: :func:`section` streams from a
position, :func:`words` computes the words at given positions alone.
"""

from __future__ import annotations

import numpy as np

#: Philox4x64-10 round multipliers and Weyl key increments (Random123).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, built from 32-bit halves.

    In place: four arrays of b's shape, the two returned among them.
    """
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    t = a_lo * b_lo
    t >>= _S32
    t += np.multiply(a_hi, b_lo, out=b_lo)
    u = np.multiply(a_lo, b_hi, out=b_lo)
    lo = np.bitwise_and(t, _LO32)  # scratch until it takes a * b
    u += lo
    hi = np.multiply(a_hi, b_hi, out=b_hi)
    hi += np.right_shift(t, _S32, out=t)
    hi += np.right_shift(u, _S32, out=u)
    return hi, np.multiply(a, b, out=lo)


def words(key: tuple[int, int], pos) -> np.ndarray:
    """``np.random.Philox(key=key).random_raw(n)[pos]``, computed at the positions alone.

    Philox4x64-10 maps a counter (c0, c1, c2, c3) to a block of four words,
    and numpy's stream starts at counter 1, so position p is lane p % 4 of the
    block at counter [p // 4 + 1, 0, 0, 0].  Both multiplies of a round run as
    one (2, n) product of the even counter words (c0, c2).
    """
    pos = np.asarray(pos, dtype=np.uint64)
    flat = pos.ravel()
    even = np.stack((flat // np.uint64(4) + np.uint64(1), np.zeros_like(flat)))
    odd = np.zeros_like(even)  # (c1, c3)
    for r in range(10):
        round_key = np.array([[(k + r * w) % 2 ** 64] for k, w in zip(key, _PHILOX_W)], np.uint64)
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ round_key, lo[::-1]
    lane = (flat % np.uint64(4)).astype(np.intp)
    return np.choose(lane, (even[0], odd[0], even[1], odd[1])).reshape(pos.shape)


def section(key: tuple[int, int], pos: int) -> np.random.Philox:
    """The Philox stream keyed by ``key``, positioned to read from word ``pos`` on.

    numpy's stream starts at counter 1, so a generator built at counter
    [pos // 4, 0, 0, 0] first yields the block holding word ``pos``, at lane
    pos % 4; the words of the lanes before it are read and dropped.
    """
    stream = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=[pos // 4, 0, 0, 0])
    stream.random_raw(pos % 4)
    return stream
