"""Reference float sums: the per-term loops that ``lattice._left_sum``,
``lattice._matmul`` and the float branch of ``lattice._partition_sums``
must match bit for bit.

Every sum starts from 0.0 and adds one numpy float64 scalar at a time,
left to right, as Python adds floats; numpy scalars round as Python floats
do and, unlike them, obey ``np.errstate``, so an overflow raises here
exactly when it raises in the array kernels.  Nothing here calls the code
under test.
"""

import numpy as np


def left_sum(terms) -> np.float64:
    """0.0 + terms[0] + terms[1] + ..., one scalar add at a time."""
    total = np.float64(0.0)
    for term in terms:
        total = total + term
    return total


def sums_along(terms: np.ndarray, axis: int) -> np.ndarray:
    """``left_sum`` of every lane of ``terms`` along ``axis``."""
    moved = np.moveaxis(terms, axis, -1)
    out = np.empty(moved.shape[:-1])
    for index in np.ndindex(out.shape):
        out[index] = left_sum(moved[index])
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, broadcast over the others, each entry
    the ``left_sum`` of its products a[i, k] * b[k, j]."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + b.shape[-2:])
    (rows, inner), cols = a.shape[-2:], b.shape[-1]
    out = np.empty(batch + (rows, cols))
    for index in np.ndindex(batch):
        for i in range(rows):
            for j in range(cols):
                out[index + (i, j)] = left_sum(
                    a[index + (i, k)] * b[index + (k, j)] for k in range(inner)
                )
    return out


def partition_sums(images: np.ndarray, runs) -> np.ndarray:
    """Per partition, the ``left_sum`` of the images of its pieces: the
    partitions own consecutive rows of ``images``, ``runs[p]`` of them."""
    out = np.empty((len(runs),) + images.shape[1:])
    start = 0
    for p, run in enumerate(runs):
        for index in np.ndindex(images.shape[1:]):
            out[(p,) + index] = left_sum(images[start + r][index] for r in range(run))
        start += run
    return out
