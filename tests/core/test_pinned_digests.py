"""Pinned digests of the Eq. 2 metrics, the row normaliser, the dense bridge
and the csr product.

Each paper equation has one implementation in ``repro.core``; these digests
pin its floats bit-for-bit across commits, so a refactor that moves the
arithmetic around cannot shift a last bit unnoticed.  The constants were
produced by running :func:`similarity_digest` and :func:`matrix_digest` at
the commit before the Eq. 2 vector forms, the Eq. 3/5/6 normaliser and the
dense bridge were de-duplicated, and printing their hex digests.  A change
that alters them on purpose must recompute them the same way and say why.

The matrices fed to ``DenseNumpyBackend.power`` hold dyadic entries (k/8)
so every product and partial sum is exact in binary64: BLAS kernels sum in
a CPU-dependent order, and exact operands keep that order out of the digest.

The csr product adds each entry's terms in a fixed order, so its digest
runs on non-dyadic entries spanning twelve orders of magnitude.
``PRODUCT_DIGEST`` was computed with the dict-of-dicts product that the csr
backend replaced (``SparseDictBackend``, since deleted), and the csr
backend gave the same digest at that commit.
"""

import hashlib
import random
import struct

import numpy as np

from repro.core import TrustMatrix, get_similarity
from repro.core.matrix_backend import CSR_BACKEND, DENSE_BACKEND

SIMILARITY_DIGEST = (
    "7387e13eba256c20a76c3c779de19036f0d23cbe111b78131694476359a67f28")
MATRIX_DIGEST = (
    "bac6352ae6cfe946b8f594dbd3a4ba66afc03952afe8c338a29f8c743fc32a20")
PRODUCT_DIGEST = (
    "be4aa07584fab061b082436df844045d87d173d17d8f242aade0cd9d3c0b95ea")


def _unit_value(rng):
    roll = rng.random()
    if roll < 0.15:
        return 0.0
    if roll < 0.3:
        return 1.0
    if roll < 0.4:
        return rng.randint(0, 8) / 8
    return rng.random()


def similarity_digest(seed=20240521, pairs=1000):
    """sha256 over ``get_similarity(name)(a, b)`` for a seeded batch."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(pairs):
        m = rng.randint(1, 24)
        a = [_unit_value(rng) for _ in range(m)]
        b = [_unit_value(rng) for _ in range(m)]
        for name in ("l1", "euclidean", "kl"):
            digest.update(struct.pack("<d", get_similarity(name)(a, b)))
    return digest.hexdigest()


def _random_matrix(rng, dyadic):
    ids = [f"p{index:02d}" for index in range(rng.randint(1, 14))]
    matrix = TrustMatrix()
    density = rng.choice((0.1, 0.3, 0.7, 1.0))
    for i in ids:
        for j in ids:
            if rng.random() < density:
                value = rng.randint(1, 8) / 8 if dyadic else rng.random()
                matrix.set(i, j, value)
    return matrix


def matrix_digest(seed=1903, matrices=60):
    """sha256 over row-normalised, dense-power and from-dense checksums."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(matrices):
        raw = _random_matrix(rng, dyadic=False)
        digest.update(raw.row_normalized().checksum().encode())
        dense, ids = raw.to_dense()
        digest.update(TrustMatrix.from_dense(dense, ids).checksum().encode())
        dyadic = _random_matrix(rng, dyadic=True)
        for n in (2, 3):
            digest.update(DENSE_BACKEND.power(dyadic, n).checksum().encode())
        noisy = np.array([[rng.choice((0.0, 0.0, -0.5, rng.random()))
                           for _ in ids] for _ in ids]
                         ).reshape(len(ids), len(ids))
        digest.update(TrustMatrix.from_dense(noisy, ids).checksum().encode())
    return digest.hexdigest()


def _stochastic(rng, nodes, density):
    ids = [f"q{index:02d}" for index in range(nodes)]
    matrix = TrustMatrix()
    for i in ids:
        for j in ids:
            if rng.random() < density:
                matrix.set(i, j, rng.random() * 10.0 ** -rng.randint(0, 12))
    return matrix.row_normalized()


def product_digest(backend=CSR_BACKEND, seed=2609, matrices=40):
    """sha256 over ``matmul`` and ``power`` (n = 2..4) checksums on seeded
    row-stochastic matrices of 2 to 40 nodes at densities 0.03 to 0.8."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(matrices):
        nodes = rng.randint(2, 40)
        density = rng.choice((0.03, 0.1, 0.3, 0.8))
        left = _stochastic(rng, nodes, density)
        right = _stochastic(rng, nodes, density)
        digest.update(backend.matmul(left, right).checksum().encode())
        for n in (2, 3, 4):
            digest.update(backend.power(left, n).checksum().encode())
    return digest.hexdigest()


def test_similarity_metrics_match_pinned_digest():
    assert similarity_digest() == SIMILARITY_DIGEST


def test_row_normaliser_and_dense_bridge_match_pinned_digest():
    assert matrix_digest() == MATRIX_DIGEST


def test_csr_product_matches_pinned_digest(csr_kernels_taken):
    assert product_digest() == PRODUCT_DIGEST
    # The batch must reach both of the csr backend's kernels.
    assert set(csr_kernels_taken) == {"_csr_csr_kernel", "_csr_dense_kernel"}
