"""Identifier-assignment generators (the algorithms' inputs).

Each process starts with a unique identifier in ``[0, poly(n)]``
(§2.1).  The running times of Algorithms 1 and 2 depend on the
monotone-chain structure of the assignment (Remark 3.10), so the
experiment suite needs controlled families:

* :func:`monotone_ids` — ``0, 1, …, n−1`` in ring order: one maximal
  increasing run of length ``n``; the worst case for Algorithms 1–2
  and the stress case for Algorithm 3's reduction;
* :func:`zigzag_ids` — alternating low/high: runs of length 2, the
  best case;
* :func:`sawtooth_ids` — increasing runs of a chosen length, to sweep
  the chain-length axis independently of ``n``;
* :func:`random_distinct_ids` — uniform distinct ids from a poly(n)
  space (the "typical" instance; expected longest run is O(log n/log
  log n));
* :func:`huge_ids` — distinct ids near ``2^bits``, stressing the
  O(log* n) id-reduction pipeline of Algorithm 3 with astronomically
  long binary representations;
* :func:`proper_coloring_inputs` — inputs that are merely a proper
  coloring with ``k`` values, not unique ids (Remark 3.10's relaxed
  precondition).
"""

from __future__ import annotations

import math
import random
import sys
from typing import Dict, List, Optional

__all__ = [
    "monotone_ids",
    "zigzag_ids",
    "sawtooth_ids",
    "random_distinct_ids",
    "huge_ids",
    "proper_coloring_inputs",
]


def monotone_ids(n: int) -> List[int]:
    """``0, 1, …, n−1`` around the ring — the Θ(n)-chain worst case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(range(n))


def zigzag_ids(n: int) -> List[int]:
    """Alternate small and large ids: every process is a local extremum.

    For odd ``n`` a perfect alternation is impossible; one position gets
    an intermediate value, keeping adjacent ids distinct and runs of
    length at most 3.

    Vectorized when numpy is available (the E1–E3 benchmarks generate
    inputs at ``n = 10⁶⁺``, where the per-node loop dominates setup
    time); the pure-Python path below is the semantics oracle and the
    two are bit-identical — same plain ``int`` values, same list.
    """
    if n < 3:
        raise ValueError("need n >= 3 for a ring assignment")
    from repro.model.batch import load_numpy

    np = load_numpy()
    if np is not None:
        ids_arr = np.empty(n, dtype=np.int64)
        ids_arr[0::2] = np.arange((n + 1) // 2, dtype=np.int64)
        ids_arr[1::2] = np.arange(n, n + n // 2, dtype=np.int64)
        ids = ids_arr.tolist()
    else:
        ids = [0] * n
        low, high = 0, n
        for i in range(n):
            if i % 2 == 0:
                ids[i] = low
                low += 1
            else:
                ids[i] = high
                high += 1
    if n % 2 == 1:
        # positions n-1 and 0 are both "low"; bump the last to a middle
        # value distinct from its neighbors.
        ids[n - 1] = n + n // 2 + 1
    return ids


def sawtooth_ids(n: int, run: int) -> List[int]:
    """Increasing runs of length ``run`` separated by drops.

    ``run = n`` degenerates to :func:`monotone_ids`; ``run = 2`` is a
    zigzag.  Ids are unique; each tooth uses a fresh block of values
    with teeth descending across blocks so drops are strict.

    Vectorized when numpy is available (same discipline as
    :func:`zigzag_ids`): position ``i`` in tooth ``t`` carries
    ``(teeth − t)·(run + 1) + (i mod run)·teeth·(run + 2)``, which is
    two ``arange``-derived planes added elementwise.
    """
    if run < 2:
        raise ValueError("run must be >= 2")
    if n < 3:
        raise ValueError("need n >= 3")
    teeth = (n + run - 1) // run
    from repro.model.batch import load_numpy

    np = load_numpy()
    if np is not None:
        pos = np.arange(n, dtype=np.int64)
        tooth = pos // run
        ids_arr = (teeth - tooth) * (run + 1) + (pos % run) * teeth * (run + 2)
        ids = ids_arr.tolist()
    else:
        ids = []
        for tooth in range(teeth):
            base = (teeth - tooth) * (run + 1)
            length = min(run, n - len(ids))
            ids.extend(base + j * teeth * (run + 2) for j in range(length))
    # Ensure the wrap-around edge (last, first) is not an accidental tie.
    assert len(ids) == n
    if ids[-1] == ids[0]:
        ids[-1] += 1
    return ids


def random_distinct_ids(
    n: int, seed: int = 0, id_space: Optional[int] = None
) -> List[int]:
    """``n`` distinct identifiers drawn uniformly from ``[0, id_space)``.

    Default space is ``n³`` (a poly(n) namespace as in §2.1).  The ids
    are ``random.Random(seed).sample(range(space), n)``'s, draw for
    draw; spaces of ``2**63`` and more, which ``sample`` cannot take,
    follow its set branch (``randrange`` with repeats rejected) too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    space = id_space if id_space is not None else max(n ** 3, 8)
    if space < n:
        raise ValueError(f"id space {space} too small for {n} distinct ids")
    rng = random.Random(seed)
    # sample's rule for its pool branch, verbatim.
    if space <= 21 + (4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 0):
        return rng.sample(range(space), n)
    # Only a process that already runs numpy's MT19937 (the plane
    # engine's Bernoulli streams) draws with it: importing numpy and
    # numpy.random costs more memory and time than one draw saves.
    np = None
    if "numpy.random" in sys.modules:
        from repro.model.batch import _mt_words, load_numpy

        np = load_numpy()
    k = space.bit_length()
    if np is None or k > 64:
        ids: Dict[int, None] = {}
        while len(ids) < n:
            ids[rng.randrange(space)] = None
        return list(ids)
    # randrange(space) is getrandbits(k) redrawn while >= space, and
    # getrandbits takes one word >> (32 - k) for k <= 32, else a low
    # word and a high word >> (64 - k).  Replay that over raw words,
    # enough for the expected draws plus a margin (doubled if short).
    draws = -math.log1p(-n / space) * (1 << k)
    count = (2 if k > 32 else 1) * (int(draws * 1.1) + 64)
    while True:
        words = _mt_words(np, seed, count)
        if k > 32:
            pairs = words.astype(np.uint64).reshape(-1, 2)
            words = pairs[:, 0] | (pairs[:, 1] >> (64 - k) << 32)
        else:
            words >>= 32 - k
        drawn = words[words < space]
        first = np.unique(drawn, return_index=True)[1]
        if first.size >= n:
            first.sort()
            return drawn.take(first[:n]).tolist()
        count *= 2


def huge_ids(n: int, bits: int = 128, seed: int = 0) -> List[int]:
    """``n`` distinct identifiers of ~``bits`` binary digits.

    Exercises Algorithm 3's claim of O(log* n) dependence on the *id
    magnitude*: each Cole–Vishkin reduction roughly exponentially
    shrinks the bit length, so even 4096-bit ids converge in a handful
    of reductions.
    """
    if bits < 8:
        raise ValueError("bits must be >= 8")
    rng = random.Random(seed)
    seen = set()
    ids = []
    while len(ids) < n:
        x = rng.getrandbits(bits) | (1 << (bits - 1))
        if x not in seen:
            seen.add(x)
            ids.append(x)
    return ids


def proper_coloring_inputs(n: int, k: int = 3) -> List[int]:
    """Ring inputs that are a proper ``k``-coloring, not unique ids.

    Remark 3.10: Theorem 3.1 only needs ``X_p ≠ X_q`` for neighbors;
    with ``k`` initial values, monotone chains have length at most
    ``k`` and Algorithms 1–2 converge in O(k).  Pattern: ``0,1,0,1,…``
    with a trailing ``2`` when ``n`` is odd (needs ``k ≥ 3`` then).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if k < 2 or (n % 2 == 1 and k < 3):
        raise ValueError("k >= 2 needed; k >= 3 when n is odd")
    ids = [i % 2 for i in range(n)]
    if n % 2 == 1:
        ids[n - 1] = 2
    return ids
