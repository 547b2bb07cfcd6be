"""Pinned digests of the Eq. 2 metrics, the row normaliser, the dense bridge,
the csr product, its squaring ladder and Eq. 7's rows.

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

``LADDER_DIGEST`` pins ``CSR_BACKEND.power`` for n = 2..8 on 50- to
400-node matrices, some with rows that feed layers of sinks, so that in
some ladders a sparse × sparse product feeds a csr × dense one and in
others the reverse.  It was computed with :func:`ladder_digest` at the
commit before the ladder kept its intermediate powers in scipy's form,
when each of them was published as a ``CsrTrustMatrix`` and converted
back for the next product.  ``LADDER_KERNELS_DIGEST``, from the same
run, pins which kernel each product took: the kernel never changes a
bit, so only this digest holds the kernel rule in place.

``EQ7_DIGEST`` pins Eq. 7's rows, each row's keys in insertion order with
the IEEE bytes of its values, because the order of a published row is the
order later sums over it run in.  It was computed with
:func:`eq7_digest` at the commit before the pipeline stopped keeping
normalised FM/DM/UM, by ``TrustMatrix.weighted_sum`` over
``row_normalized()`` copies of the raw terms (the only path there was).
The fused path, :meth:`TrustMatrix.weighted_row` over raw rows and their
``math.fsum`` totals, must land on the same digest; one that kept the
keys of quotients that underflow to 0.0 gives the same values but not
the same digest, because those keys take earlier places.  The raw rows mix
subnormal entries with entries near 1e300, so some quotients underflow,
some of them in columns a later term adds; subnormal weights make
products underflow and flat rows under them come out empty; some rows
are absent from some terms; and the terms' column supports are disjoint
in some cases and overlapping in the rest.
"""

import hashlib
import random
import struct
from math import fsum

import numpy as np

from repro.core import CsrTrustMatrix, TrustMatrix, get_similarity
from repro.core.matrix import normalize_rows
from repro.core.matrix_backend import CSR_BACKEND, DENSE_BACKEND

SIMILARITY_DIGEST = (
    "7387e13eba256c20a76c3c779de19036f0d23cbe111b78131694476359a67f28")
MATRIX_DIGEST = (
    "bac6352ae6cfe946b8f594dbd3a4ba66afc03952afe8c338a29f8c743fc32a20")
PRODUCT_DIGEST = (
    "be4aa07584fab061b082436df844045d87d173d17d8f242aade0cd9d3c0b95ea")
LADDER_DIGEST = (
    "b00fb2fa274647bb58dce6a36afb229bff2dab949a722a1a830d80ad8c4e8a30")
LADDER_KERNELS_DIGEST = (
    "ee1b3c12f2b265d51742644ae369f745c2bc71732fc490e1048e10099dd3c946")
EQ7_DIGEST = (
    "a8e3ed644e386279897cd836f267e26c9650553658c994e9a552388c012b9b20")


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
    rows = {}
    density = rng.choice((0.1, 0.3, 0.7, 1.0))
    for i in ids:
        for j in ids:
            if rng.random() < density:
                value = rng.randint(1, 8) / 8 if dyadic else rng.random()
                rows.setdefault(i, {})[j] = value
    return TrustMatrix(rows)


def matrix_digest(seed=1903, matrices=60):
    """sha256 over row-normalised, dense-power and from-dense checksums."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(matrices):
        raw = _random_matrix(rng, dyadic=False)
        digest.update(raw.row_normalized().checksum().encode())
        dense, ids = raw.to_dense()
        digest.update(CsrTrustMatrix.from_dense(dense, ids).checksum().encode())
        dyadic = _random_matrix(rng, dyadic=True)
        for n in (2, 3):
            digest.update(DENSE_BACKEND.power(dyadic, n).checksum().encode())
        noisy = np.array([[rng.choice((0.0, 0.0, -0.5, rng.random()))
                           for _ in ids] for _ in ids]
                         ).reshape(len(ids), len(ids))
        digest.update(CsrTrustMatrix.from_dense(noisy, ids).checksum().encode())
    return digest.hexdigest()


def _stochastic(rng, nodes, density):
    ids = [f"q{index:02d}" for index in range(nodes)]
    rows = {}
    for i in ids:
        for j in ids:
            if rng.random() < density:
                rows.setdefault(i, {})[j] = (rng.random()
                                             * 10.0 ** -rng.randint(0, 12))
    return normalize_rows(rows)


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


def _ladder_matrix(rng):
    """A row-stochastic matrix of 50 to 400 nodes: either random, or split
    into 3 to 5 layers that each point into the next, with the last
    pointing back into the first only now and then, so that powers thin
    out after filling."""
    nodes = rng.randint(50, 400)
    ids = [f"l{index:03d}" for index in range(nodes)]
    layers = rng.choice((1, 3, 4, 5))
    width = -(-nodes // layers)
    per_row = rng.choice((1, 2, 3, 6, 12, 40))
    sinks = rng.choice((0.0, 0.2, 0.5))
    rows = {}
    for a, i in enumerate(ids):
        if rng.random() < sinks:
            continue
        layer = a // width
        if layers == 1:
            targets = ids
        elif layer + 1 < layers:
            targets = ids[(layer + 1) * width:(layer + 2) * width]
        else:
            targets = ids[:width] if rng.random() < 0.1 else []
        for j in rng.sample(targets, min(per_row, len(targets))):
            rows.setdefault(i, {})[j] = (rng.random()
                                         * 10.0 ** -rng.randint(0, 12))
    return normalize_rows(rows)


def ladder_digest(taken=None, seed=3011, matrices=12):
    """sha256 over ``CSR_BACKEND.power`` (n = 2..8) checksums, and the
    kernels each power's products took if ``taken`` is the kernel spy."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    ladders = []
    for _ in range(matrices):
        matrix = _ladder_matrix(rng)
        for n in range(2, 9):
            start = len(taken) if taken is not None else 0
            digest.update(CSR_BACKEND.power(matrix, n).checksum().encode())
            if taken is not None:
                ladders.append(tuple(taken[start:]))
    return digest.hexdigest(), ladders


def _eq7_value(rng):
    roll = rng.random()
    if roll < 0.15:
        return 5e-324 * rng.randint(1, 1000)
    if roll < 0.3:
        return (1.0 + rng.random()) * 1e300
    return (1.0 - rng.random()) * 10.0 ** -rng.randint(0, 12)


def _eq7_weight(rng):
    roll = rng.random()
    if roll < 0.15:
        return 5e-324
    if roll < 0.3:
        return (1.0 - rng.random()) * 1e-300
    return 1.0 - rng.random()


def _eq7_terms(rng):
    """Row ids and 1 to 3 ``(weight, raw rows)`` terms."""
    ids = [f"r{index:02d}" for index in range(rng.randint(1, 10))]
    count = rng.randint(1, 3)
    disjoint = rng.random() < 0.3
    density = rng.choice((0.2, 0.5, 1.0))
    terms = []
    for k in range(count):
        raw = {}
        columns = [j for index, j in enumerate(ids)
                   if not disjoint or index % count == k]
        for i in ids:
            roll = rng.random()
            if roll < 0.15:
                continue
            for j in columns:
                if roll < 0.3:
                    raw.setdefault(i, {})[j] = 1.0 + rng.random()
                elif rng.random() < density:
                    raw.setdefault(i, {})[j] = _eq7_value(rng)
        terms.append((_eq7_weight(rng), raw))
    return ids, terms


def eq7_digest(publish, seed=707, cases=400):
    """sha256 over the rows ``publish(terms)`` returns for seeded terms,
    each row's keys in insertion order with its values' IEEE bytes."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(cases):
        ids, terms = _eq7_terms(rng)
        rows = publish(terms)
        for i in ids:
            row = rows.get(i, {})
            digest.update(i.encode("utf-8") + b"\x00")
            digest.update(struct.pack("<q", len(row)))
            for j, value in row.items():
                digest.update(j.encode("utf-8") + b"\x00")
                digest.update(struct.pack("<d", value))
    return digest.hexdigest()


def _normalised_then_summed(terms):
    tm = TrustMatrix.weighted_sum(
        [(weight, normalize_rows(raw)) for weight, raw in terms])
    return {i: dict(tm.row_view(i)) for i in tm.row_ids()}


def _fused_from_raw_rows(terms):
    fused = [(weight, raw, {i: fsum(row.values()) for i, row in raw.items()})
             for weight, raw in terms]
    return {i: TrustMatrix.weighted_row(fused, i)
            for _, raw in terms for i in raw}


def test_similarity_metrics_match_pinned_digest():
    assert similarity_digest() == SIMILARITY_DIGEST


def test_row_normaliser_and_dense_bridge_match_pinned_digest():
    assert matrix_digest() == MATRIX_DIGEST


def test_csr_product_matches_pinned_digest(csr_kernels_taken):
    assert product_digest() == PRODUCT_DIGEST
    # The batch must reach both of the csr backend's kernels.
    assert set(csr_kernels_taken) == {"_csr_csr_kernel", "_csr_dense_kernel"}


def test_squaring_ladder_matches_pinned_digest(csr_kernels_taken):
    digest, ladders = ladder_digest(csr_kernels_taken)
    assert digest == LADDER_DIGEST
    assert (hashlib.sha256(repr(ladders).encode()).hexdigest()
            == LADDER_KERNELS_DIGEST)
    # Each kernel follows the other, and itself, within some ladder.
    kernels = ("_csr_csr_kernel", "_csr_dense_kernel")
    steps = {pair for ladder in ladders for pair in zip(ladder, ladder[1:])}
    assert steps == {(a, b) for a in kernels for b in kernels}


def test_eq7_rows_match_pinned_digest():
    assert eq7_digest(_normalised_then_summed) == EQ7_DIGEST
    assert eq7_digest(_fused_from_raw_rows) == EQ7_DIGEST
