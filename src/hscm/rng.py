"""Counter-based uniform streams built from chained splitmix64 finalizers.

Every random decision in the samplers is a pure function of
(seed, stream tag, indices), so results are reproducible independently of
evaluation order, chunking, or thread count.  Because the hash chains
_finalize(h ^ part), a stream whose leading parts are fixed can hash them
once into a prefix; each draw is then one finalizer of prefix ^ counter.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

# Stream tags (domain separation between independent uses of one seed).
# Tag 2 is the per-pair stream of the quadratic reference sampler in tests/oracles.py.
TAG_COORD = 1
TAG_EDGE_FAST = 3
TAG_GROW_COORD = 4
TAG_GROW_EDGE = 5
TAG_REPLICA = 6


def _finalize(z):
    """splitmix64 output function: a bijective 64-bit mixer."""
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN)
        z ^= z >> _S30
        z *= _M1
        z ^= z >> _S27
        z *= _M2
        z ^= z >> _S31
    return z


def _to_unit(h):
    """The top 53 bits of each uint64 as a float in [0, 1)."""
    return (h >> _S11).astype(np.float64) * (2.0 ** -53)


def draw(prefix, counter):
    """uniform(*parts, counter) for prefix = hash_u64(*parts), by one finalizer.

    prefix and counter are uint64 arrays.
    """
    return _to_unit(_finalize(prefix ^ counter))


def _as_u64(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return np.uint64(int(x) & _MASK)


def hash_u64(*parts):
    """Chain-hash the parts into one uint64 per broadcast element."""
    h = np.asarray(_finalize(_as_u64(parts[0])))
    for part in parts[1:]:
        with np.errstate(over="ignore"):
            h = _finalize(h ^ _as_u64(part))
    return h


def uniform(*parts):
    """Uniform [0, 1) floats keyed by the given parts (broadcasting)."""
    return _to_unit(hash_u64(*parts))


def subseed(seed, tag, index) -> int:
    """Derive a child seed, e.g. one per replica."""
    return int(hash_u64(seed, tag, index))
