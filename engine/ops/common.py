"""Shared helpers for the ops layer.

Rounding: the driver hash-compares values between the Ray pipelines and
their DuckDB oracles.  Python's ``round`` is banker's rounding while
DuckDB's ``round`` is half-away-from-zero, so both sides instead use the
same explicit half-up formula ``floor(x*10^d + 0.5) / 10^d`` — identical
IEEE ops on both sides give identical doubles even at boundaries.
"""

import os

import numpy as np

__all__ = ['round_half_up', 'table_path', 'read_table']


def round_half_up(x, digits):
    """Vectorized half-up rounding; the oracles' SQL spells the same
    formula as ``floor(x * 10^d + 0.5) / 10^d``."""
    scale = 10.0 ** digits
    return np.floor(np.asarray(x, dtype=np.float64) * scale + 0.5) / scale


def table_path(sf_dir, name):
    return os.path.join(sf_dir, name + '.parquet')


_TARGET_READ_BLOCK_BYTES = 32 << 20


def read_table(sf_dir, name, columns=None):
    """Distributed read of a fact table with BYTE-SIZED blocks.

    Ray's default read parallelism targets ~2×cpus blocks regardless of
    input size, so a 10 MB table splits into 64 near-empty blocks — and
    every downstream sort/groupby exchange then pays per-BLOCK task
    overhead (~200 scheduled sort subtasks per exchange; measured 7.4 s →
    0.8 s on a three-table join at sf0.1 by fixing this).  Sizing blocks
    by bytes (≈32 MB of file, ≈100–200 MB decoded) is the scale-correct
    rule: at 100 TB it yields ~3M blocks (≫ any cluster width, streaming
    executor backpressures), at test scale it yields a handful, and
    exchange task counts track DATA, not the host's cpu count."""
    path = table_path(sf_dir, name)
    try:
        blocks = max(1, os.path.getsize(path) // _TARGET_READ_BLOCK_BYTES)
    except OSError:
        blocks = None
    import ray.data
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=blocks)

