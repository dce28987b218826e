"""Counter-based SplitMix64 streams for reproducible Monte Carlo.

Substream i of a 64-bit root seed has base finalize(root + (i+1) * GOLDEN);
value j of a substream is finalize(base + (j+1) * GOLDEN), where finalize is
the SplitMix64 avalanche (xor-shift 30 / multiply 0xBF58476D1CE4E5B9 /
xor-shift 27 / multiply 0x94D049BB133111EB / xor-shift 31) and GOLDEN is
0x9E3779B97F4A7C15. Every draw is a pure function of (root, stream, counter),
so results are independent of evaluation order and parallelism. Stream 0 is
reserved for setup (e.g. mesh directions); trial i uses stream i + 1.

Uniforms map the top 53 bits, the key m = x >> 11, to fl(m + 0.5) * 2^-53
in (0, 1] (m = 2^53 - 1 rounds to 1.0, ties to even). The map is
nondecreasing, so discrete draws compare keys with key_levels and never
form u. Normals use one Box-Muller cosine per pair of uniforms (u = 1 gives
0). Draws are made in tiles of at most TILE uniforms of the flattened
(substream, counter) space, in place in two tile buffers owned by the call:
memory is the output plus a few tiles, and the tiling changes no bit.
"""

from __future__ import annotations

import itertools

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
TILE = 1 << 14  # uniforms per tile: two 128 KiB uint64 buffers


def finalize(z, tmp=None):
    """SplitMix64 avalanche (wrapping arithmetic) of a uint64 scalar or array,
    or, given scratch tmp of its shape, of the uint64 array z in place."""
    if tmp is None:
        z = np.array(z, dtype=np.uint64)
        tmp = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if mix is not None:
            np.multiply(z, mix, out=z)
    return z[()]


def substream_seed(root_seed: int, index):
    """Base state of substream `index` (scalar or integer array)."""
    root = np.uint64(root_seed & 0xFFFFFFFFFFFFFFFF)
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return finalize(root + (idx + np.uint64(1)) * GOLDEN)


def _draw(seeds, count: int, form: str) -> np.ndarray:
    """Values 0..count-1 of each substream as form "keys" (int64), "uniforms"
    or "normals" (of uniforms 2j, 2j+1). A tile is whole substreams while
    count <= TILE, else TILE counters of one, so no pair straddles two tiles."""
    pairs = form == "normals"
    per = 2 if pairs else 1
    shape = np.shape(seeds) + (count // per,)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    out = np.empty((seeds.shape[0], count // per), dtype=np.int64 if form == "keys" else float)
    width = max(1, min(count, TILE))
    step = TILE // width
    counters = (np.arange(width, dtype=np.uint64) + np.uint64(1)) * GOLDEN
    bits, tmp = np.empty(step * width, np.uint64), np.empty(step * width, np.uint64)
    with np.errstate(over="ignore"):
        for r0, c0 in itertools.product(range(0, seeds.shape[0], step), range(0, count, width)):
            seg = out[r0 : r0 + step, c0 // per : (c0 + width) // per]
            z = bits[: seg.size * per].reshape(seg.shape[0], -1)
            np.add(seeds[r0 : r0 + step] + np.uint64(c0) * GOLDEN, counters[: z.shape[1]], out=z)
            finalize(z, tmp[: z.size].reshape(z.shape))
            np.right_shift(z, np.uint64(11), out=seg.view(np.uint64) if form == "keys" else z)
            if form == "keys":
                continue
            u = tmp[: z.size].view(np.float64).reshape(z.shape) if pairs else seg
            np.add(z, 0.5, out=u)
            np.multiply(u, _U53, out=u)
            if pairs:  # sqrt(-2 log u_2j) cos(2 pi u_2j+1), the operations of the untiled formula
                angle = bits[: seg.size].view(np.float64).reshape(seg.shape)
                np.cos(np.multiply(u[:, 1::2], 2.0 * np.pi, out=angle), out=angle)
                np.sqrt(np.multiply(np.log(u[:, 0::2], out=seg), -2.0, out=seg), out=seg)
                np.multiply(seg, angle, out=seg)
    return out.reshape(shape)


def keys(seeds, count: int) -> np.ndarray:
    """The int64 keys m in [0, 2^53) behind uniforms(seeds, count)."""
    return _draw(seeds, count, "keys")


def key_levels(levels: np.ndarray) -> np.ndarray:
    """Per float level c >= 0, the largest key m whose uniform fl(m + 0.5)
    2^-53 is at most c, or -1: u <= c exactly when m <= it."""
    m = np.minimum(np.floor(levels * 2.0**53), 2.0**53 - 1).astype(np.int64)
    return m - ((m + 0.5) * _U53 > levels)  # key m - 1 maps at or below c whenever m <= c 2^53


def uniforms(seeds, count: int) -> np.ndarray:
    """Uniform(0, 1] draws, shape seeds.shape + (count,), stateless: column j
    holds the j-th value of each substream base in seeds (from substream_seed)."""
    return _draw(seeds, count, "uniforms")


def normals(seeds, count: int) -> np.ndarray:
    """Standard normal draws, shape seeds.shape + (count,), stateless. Normal j
    consumes uniforms (2j, 2j+1), so extending count preserves earlier values."""
    return _draw(seeds, 2 * count, "normals")
