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
nondecreasing, so a discrete draw never forms u: u <= c exactly when m <=
key_levels(c), and, for a level M >= 0, m <= M exactly when x <= M 2^11 +
2047. Normals use one Box-Muller cosine per pair of uniforms (u = 1 gives
0); sketch_normals keeps each radius and angle and takes a float32 cosine
in place of the float64 one. Values are made in tiles of at most TILE of
the flattened (substream, counter) space, in place in two tile buffers
owned by the call (tiles): memory is the output plus a few tiles, and the
tiling changes no bit.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
TILE = 1 << 15  # values per tile: two 256 KiB uint64 buffers
COS_ERROR = 2.0**-11  # assumed bound on |sketch cosine - np.cos|; about 2000 times the largest seen


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


def tiles(seeds, count: int, order: str = "C", start: int = 0):
    """Values start..start+count-1 of each substream base in seeds, one tile
    at a time: yields (rows, c0, z, tmp), where z (uint64, one row per
    substream of seeds.ravel()[rows]) holds the finalized values start + c0,
    start + c0 + 1, ... and tmp is scratch of z's shape, both in memory order
    `order` ("F" puts a tile's substreams next to each other, for reductions
    over counters). A tile is
    whole substreams while count <= TILE, else TILE counters of one
    substream; both buffers are reused by the next tile."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    width = max(1, min(count, TILE))
    step = TILE // width
    counters = (np.arange(width, dtype=np.uint64) + np.uint64(1)) * GOLDEN
    bits, tmp = np.empty(step * width, np.uint64), np.empty(step * width, np.uint64)
    for r0 in range(0, seeds.shape[0], step):
        rows = seeds[r0 : r0 + step]
        for c0 in range(0, count, width):
            shape = (rows.shape[0], min(width, count - c0))
            z, t = (buf[: shape[0] * shape[1]].reshape(shape, order=order) for buf in (bits, tmp))
            first = np.uint64((start + c0) * int(GOLDEN) & 0xFFFFFFFFFFFFFFFF)
            finalize(np.add(rows + first, counters[: shape[1]], out=z), t)
            yield slice(r0, r0 + shape[0]), c0, z, t


def _draw(seeds, count: int, form: str, start: int = 0):
    """Values start..start+count-1 of each substream as form "uniforms", or,
    of uniforms (2j, 2j+1), as "normals" or as the "sketch" of
    sketch_normals. TILE, count and start are even for pairs, so no pair
    straddles two tiles."""
    per = 1 if form == "uniforms" else 2
    shape = np.shape(seeds) + (count // per,)
    out = np.empty((np.size(seeds), count // per))
    if form == "sketch":
        angles, cosines = np.empty(out.shape), np.empty(out.shape, np.float32)
    for rows, c0, z, tmp in tiles(seeds, count, start=start):
        cols = slice(c0 // per, (c0 + z.shape[1]) // per)
        seg = out[rows, cols]
        u = tmp.view(np.float64) if per == 2 else seg
        np.add(np.right_shift(z, np.uint64(11), out=z), 0.5, out=u)
        np.multiply(u, _U53, out=u)
        if per == 2:  # sqrt(-2 log u_2j) cos(2 pi u_2j+1), the operations of the untiled formula
            if form == "sketch":
                angle = angles[rows, cols]
            else:
                angle = z.reshape(-1)[: seg.size].view(np.float64).reshape(seg.shape)
            np.multiply(u[:, 1::2], 2.0 * np.pi, out=angle)
            np.sqrt(np.multiply(np.log(u[:, 0::2], out=seg), -2.0, out=seg), out=seg)
            if form == "normals":
                np.multiply(seg, np.cos(angle, out=angle), out=seg)
            else:
                np.cos(angle, out=cosines[rows, cols], dtype=np.float32, casting="same_kind")
    if form != "sketch":
        return out.reshape(shape)
    return out.reshape(shape), angles.reshape(shape), cosines.reshape(shape)


def key_levels(levels: np.ndarray) -> np.ndarray:
    """Per float level c >= 0, the largest key m whose uniform fl(m + 0.5)
    2^-53 is at most c, or -1: u <= c exactly when m <= it."""
    m = np.minimum(np.floor(levels * 2.0**53), 2.0**53 - 1).astype(np.int64)
    return m - ((m + 0.5) * _U53 > levels)  # key m - 1 maps at or below c whenever m <= c 2^53


def uniforms(seeds, count: int) -> np.ndarray:
    """Uniform(0, 1] draws, shape seeds.shape + (count,), stateless: column j
    holds the j-th value of each substream base in seeds (from substream_seed)."""
    return _draw(seeds, count, "uniforms")


def normals(seeds, count: int, start: int = 0) -> np.ndarray:
    """Standard normal draws start..start+count-1, shape seeds.shape +
    (count,), stateless. Normal j consumes uniforms (2j, 2j+1), so extending
    count preserves earlier values, and a draw from start is those columns of
    a draw from 0, bit for bit."""
    return _draw(seeds, 2 * count, "normals", 2 * start)


def sketch_normals(seeds, count: int):
    """(radii, angles, cosines), each of shape seeds.shape + (count,): the
    Box-Muller radii and angles of normals(seeds, count), which is radii *
    np.cos(angles) bit for bit, elementwise (of any rows of them too), and
    the float32 np.cos of each angle rounded to float32, assumed to lie
    within COS_ERROR of np.cos(angles). So radii * cosines is within radii
    (COS_ERROR + 2^-52) of the normals (2^-52 covers both products'
    rounding). A float32 cosine costs about 1 ns, against about 20 ns in
    float64."""
    return _draw(seeds, 2 * count, "sketch")
