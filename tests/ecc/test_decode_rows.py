"""Row-wise decoding: ``Code.decode_rows`` is many one-row decodes at once.

Every code's ``decode`` is (or behaves as) the one-row case of
``decode_rows``; the stacked form must return the same bits per row and
attribute each row its own ``ecc.*`` counters, in the order the one-row
decode emits them.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import BlockLengthError
from repro.verify.oracles import _code_catalog

CODES = sorted(_code_catalog())


def _noisy_rows(code, n_rows, blocks, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n_rows, blocks * code.k)).astype(np.uint8)
    words = np.stack([code.encode(row) for row in data])
    flips = rng.random(words.shape) < 0.05
    return words ^ flips.astype(np.uint8)


def _one_row(code, word):
    with telemetry.trace("test.row", force=True) as span:
        bits = code.decode(word)
    return bits, dict(span.counters)


@pytest.mark.parametrize("name", CODES)
def test_rows_equal_one_row_decodes(name):
    code = _code_catalog()[name]()
    words = _noisy_rows(code, 5, 3, seed=len(name))
    bits, counts = code.decode_rows(words)
    assert bits.shape == (5, 3 * code.k)
    for i, word in enumerate(words):
        want_bits, want_counters = _one_row(code, word)
        assert np.array_equal(bits[i], want_bits)
        got = {}
        for counter, values in counts:
            got[counter] = got.get(counter, 0) + int(values[i])
        assert got == want_counters


def test_concatenated_counts_keep_emission_order():
    """A composite reports its inner stage's counters before its outer
    stage's, repeats included — the order its one-row decode emits."""
    from repro.ecc import ConcatenatedCode, RepetitionCode, hamming_7_4

    code = ConcatenatedCode(
        ConcatenatedCode(hamming_7_4(), RepetitionCode(3)), RepetitionCode(5)
    )
    _, counts = code.decode_rows(_noisy_rows(code, 2, 1, seed=3))
    assert [name for name, _ in counts] == [
        "ecc.repetition.overruled",
        "ecc.repetition.corrections",
        "ecc.repetition.bits",
    ] * 2 + ["ecc.hamming.corrections", "ecc.hamming.blocks"]


def test_decode_rows_emits_nothing():
    from repro.ecc import hamming_7_4

    code = hamming_7_4()
    with telemetry.trace("test.rows", force=True) as span:
        code.decode_rows(_noisy_rows(code, 3, 2, seed=1))
    assert span.counters == {}


@pytest.mark.parametrize("name", CODES)
def test_decode_rows_validates_shape_and_values(name):
    code = _code_catalog()[name]()
    widths = [0] + ([code.n + 1] if code.n > 1 else [])
    for width in widths:
        with pytest.raises(BlockLengthError, match="positive multiple"):
            code.decode_rows(np.zeros((2, width), dtype=np.uint8))
    with pytest.raises(BlockLengthError, match="rows, bits"):
        code.decode_rows(np.zeros(code.n, dtype=np.uint8))
    with pytest.raises(BlockLengthError, match="other than 0/1"):
        code.decode_rows(np.full((1, code.n), 2, dtype=np.uint8))
