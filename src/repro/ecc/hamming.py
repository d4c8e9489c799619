"""Hamming codes (paper §5.2, Figure 10).

A general Hamming(2^r - 1, 2^r - 1 - r) implementation with vectorized
syndrome decoding, plus the two instances the paper uses: Hamming(7,4) and
the degenerate Hamming(3,1) it points out is a 3-copy repetition code.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import Code


def _parity_check_matrix(r: int) -> np.ndarray:
    """H (r x n): column j is the binary expansion of j+1.

    With this layout the syndrome of a single-bit error at position j is the
    number j+1, so correction is a direct index.
    """
    n = 2**r - 1
    cols = np.arange(1, n + 1, dtype=np.uint32)
    return ((cols[None, :] >> np.arange(r)[:, None]) & 1).astype(np.uint8)


class HammingCode(Code):
    """A binary Hamming code correcting one error per block.

    Data bits occupy the non-power-of-two codeword positions (the classic
    systematic-ish layout); parity bits sit at positions 1, 2, 4, ... as in
    every textbook construction, so interoperability tests against
    hand-worked examples are straightforward.
    """

    def __init__(self, r: int):
        if r < 2:
            raise ConfigurationError(f"Hamming parameter r must be >= 2, got {r}")
        self.r = r
        self._n = 2**r - 1
        self._k = self._n - r
        self._h = _parity_check_matrix(r)

        positions = np.arange(1, self._n + 1)
        self._parity_positions = np.array(
            [p for p in positions if (p & (p - 1)) == 0]
        )
        self._data_positions = np.array(
            [p for p in positions if (p & (p - 1)) != 0]
        )
        self._data_columns = self._data_positions - 1
        #: Syndrome bit i weighs 2**i: the syndrome's value is the 1-based
        #: position of a single error (column j of H is j + 1 in binary).
        self._syndrome_weights = np.int64(1) << np.arange(r, dtype=np.int64)
        self.name = f"hamming({self._n},{self._k})"

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._n

    def encode(self, data) -> np.ndarray:
        bits = self._check_encode_input(data)
        blocks = bits.reshape(-1, self._k)
        n_blocks = blocks.shape[0]
        code = np.zeros((n_blocks, self._n), dtype=np.uint8)
        code[:, self._data_positions - 1] = blocks
        # Parity bit at position 2^i covers codeword positions with bit i set.
        syndrome = (code @ self._h.T) % 2  # (n_blocks, r)
        code[:, self._parity_positions - 1] = syndrome
        return code.ravel()

    def decode(self, code) -> np.ndarray:
        return self._decode_one_row(code)

    def _decode_rows(self, rows) -> "tuple[np.ndarray, list]":
        n_rows, per_row = rows.shape[0], rows.shape[1] // self._n
        blocks = rows.reshape(-1, self._n).copy()
        error_pos = ((blocks @ self._h.T) % 2) @ self._syndrome_weights
        has_error = error_pos > 0
        fixed = np.flatnonzero(has_error)
        blocks[fixed, error_pos[fixed] - 1] ^= 1
        counts = [
            ("ecc.hamming.corrections", has_error.reshape(n_rows, per_row).sum(axis=1)),
            ("ecc.hamming.blocks", [per_row] * n_rows),
        ]
        data = blocks[:, self._data_columns]
        return data.reshape(n_rows, per_row * self._k), counts


def hamming_7_4() -> HammingCode:
    """The paper's workhorse Hamming(7,4) code."""
    return HammingCode(3)


def hamming_3_1() -> HammingCode:
    """Hamming(3,1): exactly a 3-copy repetition code with valid codewords
    000 and 111, as the paper notes in §5.2."""
    return HammingCode(2)
