"""Seeded rough forcings: spectral white noise and Wiener increments.

Every increment is drawn one way: independent N(0, dt) normals, the
first ones the coefficients of the leading modes in the orthonormal sine
basis.  A run measured against another basis gets the same Brownian path
through that basis's exact cross Gram with the sines
(``spde.tent_sine_cross_gram`` for fem1d tents), so the kernel run and the
spectral reference are driven by one path.  Where the reference steps only
the leading modes (heat), the pipelines draw just those and then one normal
per tent: the remaining modes' measurement on the tents is those normals
times a triangular factor of its covariance
(``experiments._compressed_cross``), so a default heat step takes 259 + 64
normals, not 2048.

Streams are addressed by (seed, step) through the counter-based Philox
generator: step k of a path is drawn from Philox keyed [k, seed] at counter
0, so any step can be regenerated without replaying the ones before it and
coarse/fine runs can share one Brownian path.  The pipelines stream a
path's increments in blocks (``increment_blocks``) from one bit generator
re-keyed per step, so they hold one block of the fine path at a time.
As the blocks pass, ``aggregating`` sums groups of fine increments into
coarse ones and measures a few coarse ones at a time against another
basis, so the coarse path is held only as measured there (64 tents, not
the sine modes).  ``build_path`` and ``aggregate_increments`` give the
same bits for a whole materialized ``NoisePath``; they are the oracles the
streamed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import MeasurementVector, TestSpace, build_test_space

__all__ = ["NoisePath", "sample_white_noise_spectral",
           "sample_wiener_increment", "build_path", "increment_blocks",
           "aggregate_increments", "aggregating", "stream", "rekey"]


def _stream_key(seed: int, step: int) -> tuple:
    """(seed, step) as integers that each fit one 64-bit word of the key.

    Outside [0, 2**64) a step would spill into the seed word and alias
    another seed's stream, so both are rejected there."""
    seed, step = int(seed), int(step)
    if not (0 <= seed < 2 ** 64 and 0 <= step < 2 ** 64):
        raise ValueError(
            f"seed and step must lie in [0, 2**64), got {seed} and {step}")
    return seed, step


def stream(seed: int, step: int = 0) -> np.random.Generator:
    """Independent generator addressed by (seed, step)."""
    seed, step = _stream_key(seed, step)
    return np.random.Generator(np.random.Philox(key=(seed << 64) | step))


def rekey(bitgen: np.random.Philox, seed: int, step: int) -> None:
    """Point ``bitgen`` at the start of the (seed, step) stream.

    Sets key [step, seed] and counter 0 and drops any buffered output, so
    the draws that follow equal those of ``stream(seed, step)`` bit for bit,
    whatever was drawn before.  A new ``Philox`` costs several times as
    much: it seeds a ``SeedSequence`` from OS entropy that the key then
    replaces.
    """
    seed, step = _stream_key(seed, step)
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": (0, 0, 0, 0), "key": (step, seed)},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}


def sample_white_noise_spectral(L: int, seed: int) -> MeasurementVector:
    """i.i.d. standard normal coefficients in the orthonormal sine basis."""
    if L < 1:
        raise ValueError("need at least one mode")
    space = build_test_space("sine1d", L)
    return MeasurementVector(stream(seed).standard_normal(L), space)


def sample_wiener_increment(L: int, dt: float,
                            rng: np.random.Generator) -> MeasurementVector:
    """One Wiener increment: L independent N(0, dt) sine coefficients."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    space = build_test_space("sine1d", int(L))
    out = rng.standard_normal(space.size)
    out *= np.sqrt(dt)
    return MeasurementVector(out, space)


@dataclass(frozen=True)
class NoisePath:
    """A full set of per-step increment coefficient vectors."""

    dt: float
    space: TestSpace
    records: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.records.ndim != 2 or \
                self.records.shape[1] != self.space.size:
            raise ValueError("records must be (n_steps, space.size)")

    @property
    def n_steps(self) -> int:
        return self.records.shape[0]

    def increment(self, step: int) -> MeasurementVector:
        return MeasurementVector(self.records[step], self.space)


def increment_blocks(seed: int, dt: float, n_steps: int, size: int,
                     block: int = 1):
    """Iterator over the increments of a path, ``block`` steps at a time.

    Yields consecutive ``(block, size)`` arrays (the last may be shorter)
    whose rows are the ``n_steps`` increments of ``build_path`` with the
    same arguments, bit for bit.  One Philox bit generator is re-keyed to
    (seed, k) before step k, so only the block being drawn is held.
    Arguments are checked here, before the first block is drawn.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1 or block < 1 or size < 1:
        raise ValueError("need at least one step, mode and step per block")
    seed = _stream_key(seed, n_steps - 1)[0]
    return _draw_blocks(seed, dt, n_steps, size, block)


def _draw_blocks(seed, dt, n_steps, size, block):
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    for start in range(0, n_steps, block):
        rows = np.empty((min(block, n_steps - start), size))
        for i, row in enumerate(rows):
            rekey(bitgen, seed, start + i)
            rng.standard_normal(out=row)
            row *= np.sqrt(dt)
        yield rows


def build_path(seed: int, dt: float, n_steps: int, size: int) -> NoisePath:
    """Materialize a path of ``n_steps`` increments with ``size`` modes.

    Step k is drawn from the (seed, k) stream, so a fine path at dt/m over
    m*n_steps steps and the paths aggregated from it are reproducible from
    the seed alone.  This is ``increment_blocks`` drawn as one block.
    """
    records, = increment_blocks(seed, dt, n_steps, size, n_steps)
    return NoisePath(dt, build_test_space("sine1d", size), records)


# coarse increments summed before each product with the cross Gram: 64
# rows of 2048 modes are 1 MiB, the full Gram's own size.  Each product reads
# the whole Gram, so smaller buffers cost time: with 16 rows a default
# heat call ran about 4% slower than with one product over the path
_COARSE_ROWS = 64


def _group_sums(records: np.ndarray, factor: int) -> np.ndarray:
    """Sums of consecutive groups of ``factor`` rows, each accumulated row
    by row in order; the coarse increments are these bits wherever the
    groups are summed."""
    n, size = records.shape
    if factor < 1 or n % factor:
        raise ValueError("step count must be divisible by the factor")
    return records.reshape(n // factor, factor, size).sum(axis=1)


def aggregate_increments(path: NoisePath, factor: int) -> NoisePath:
    """Sum blocks of ``factor`` consecutive fine increments."""
    if factor == 1:
        return path
    return NoisePath(path.dt * factor, path.space,
                     _group_sums(path.records, factor))


def aggregating(blocks, factor: int, cross: np.ndarray, out: np.ndarray):
    """Pass ``blocks`` of fine increments through unchanged, measuring the
    coarse path they make up against the rows of ``cross`` as they pass.

    Each block's groups of ``factor`` rows are summed into a buffer of
    ``_COARSE_ROWS`` coarse increments, and each full buffer, then the
    last part-filled one, is multiplied by ``cross.T`` into the next rows
    of ``out``.  Every block must hold whole groups.  Once the blocks are
    consumed, ``out`` holds ``aggregate_increments(path, factor).records @
    cross.T`` for the whole path, without the fine or the coarse path ever
    being held.  Every product has the buffer's rows, so all round alike.
    OpenBLAS rounds a GEMM's rows the same whatever their count once the
    product is large enough (small ones take other kernels), so at the
    pipelines' sizes (323 columns for heat, 2048 for Allen-Cahn, 64 tents,
    8 coarse steps or more) ``out`` has the bits of the one product over
    the whole path.
    """
    buf = np.zeros((_COARSE_ROWS, cross.shape[1]))
    row = 0
    for rows in blocks:
        for sums in _group_sums(rows, factor):
            buf[row % _COARSE_ROWS] = sums
            row += 1
            if row % _COARSE_ROWS == 0:
                np.matmul(buf, cross.T, out=out[row - _COARSE_ROWS:row])
        yield rows
    held = row % _COARSE_ROWS
    if held:
        # the whole buffer, so that this product rounds like the others
        out[row - held:row] = (buf @ cross.T)[:held]
