"""The code interface all ECC schemes implement."""

from __future__ import annotations

import abc

import numpy as np

from .. import telemetry
from ..bitutils import as_bit_array
from ..errors import BlockLengthError


def emit_counts(counts) -> None:
    """Bump each ``(name, value)`` counter of one decode on the current
    span, in order (a no-op while telemetry is inactive)."""
    if telemetry.active():
        for name, value in counts:
            telemetry.count(name, int(value))


class Code(abc.ABC):
    """A block error-correcting code over bit arrays.

    ``encode`` maps each ``k``-bit data block to an ``n``-bit codeword;
    ``decode`` inverts it, correcting what the code can, and
    :meth:`decode_rows` does the same for many equal-length words at once.
    Inputs whose length is not a multiple of the block size are rejected —
    padding policy belongs to the caller (the pipeline frames messages
    explicitly).
    """

    #: Human-readable name used in experiment tables.
    name: str = "code"

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Data bits per block."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Code bits per block."""

    @property
    def rate(self) -> float:
        """Information rate k/n (the capacity cost the paper trades, §5.3)."""
        return self.k / self.n

    def encoded_length(self, data_bits: int) -> int:
        """Code bits produced for ``data_bits`` input bits."""
        if data_bits < 0:
            raise BlockLengthError(f"{self.name}: negative length {data_bits}")
        if data_bits % self.k:
            raise BlockLengthError(
                f"{self.name}: data length {data_bits} is not a multiple of k={self.k}"
            )
        return data_bits // self.k * self.n

    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a bit array whose length is a multiple of ``k``."""

    @abc.abstractmethod
    def decode(self, code: np.ndarray) -> np.ndarray:
        """Decode a bit array whose length is a multiple of ``n``."""

    def decode_rows(self, rows) -> "tuple[np.ndarray, list]":
        """Decode every row of a ``(rows, m * n)`` bit array.

        Returns ``(bits, counts)``: the ``(rows, m * k)`` data bits, and the
        ``ecc.*`` telemetry counters as ``(name, per-row values)`` pairs in
        the order the one-row :meth:`decode` emits them (a name may
        repeat).  Nothing is emitted here, so a caller can credit each
        row's counters to its own span.
        """
        return self._decode_rows(self._check_decode_rows(rows))

    def _decode_rows(self, rows: np.ndarray) -> "tuple[np.ndarray, list]":
        """:meth:`decode_rows` on validated rows.

        This base version decodes row by row and counts nothing; a code
        that counts implements it natively and makes :meth:`decode` its
        one-row case (:meth:`_decode_one_row`).
        """
        bits = [self.decode(row) for row in rows]
        width = rows.shape[1] // self.n * self.k
        return np.array(bits, dtype=np.uint8).reshape(len(bits), width), []

    def _decode_one_row(self, code) -> np.ndarray:
        """:meth:`decode` as the one-row case of :meth:`decode_rows`."""
        bits, counts = self._decode_rows(self._check_decode_input(code)[None, :])
        emit_counts((name, values[0]) for name, values in counts)
        return bits[0]

    # -- shared validation helpers ------------------------------------------------

    def _check_encode_input(self, data) -> np.ndarray:
        bits = as_bit_array(data)
        if bits.size == 0 or bits.size % self.k:
            raise BlockLengthError(
                f"{self.name}: encode input of {bits.size} bits is not a "
                f"positive multiple of k={self.k}"
            )
        return bits

    def _check_decode_input(self, code) -> np.ndarray:
        bits = as_bit_array(code)
        if bits.size == 0 or bits.size % self.n:
            raise BlockLengthError(
                f"{self.name}: decode input of {bits.size} bits is not a "
                f"positive multiple of n={self.n}"
            )
        return bits

    def _check_decode_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise BlockLengthError(
                f"{self.name}: expected a (rows, bits) array, got shape "
                f"{rows.shape}"
            )
        if rows.shape[1] == 0 or rows.shape[1] % self.n:
            raise BlockLengthError(
                f"{self.name}: decode input of {rows.shape[1]} bits is not a "
                f"positive multiple of n={self.n}"
            )
        if rows.size and rows.max() > 1:
            raise BlockLengthError("bit array contains values other than 0/1")
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name}, rate={self.rate:.3f})"


class IdentityCode(Code):
    """The no-coding baseline (rate 1)."""

    name = "identity"

    @property
    def k(self) -> int:
        return 1

    @property
    def n(self) -> int:
        return 1

    def encode(self, data) -> np.ndarray:
        return self._check_encode_input(data).copy()

    def decode(self, code) -> np.ndarray:
        return self._decode_one_row(code)

    def _decode_rows(self, rows) -> "tuple[np.ndarray, list]":
        return rows.copy(), []
