"""The end-to-end Invisible Bits pipeline (paper §4, Figure 13).

``InvisibleBits`` binds a coding scheme (ECC + optional AES-CTR) to the
control-board automation:

- :meth:`InvisibleBits.send` — Algorithm 1: ECC, encrypt, generate the
  payload-writer firmware, stress at the device's recipe;
- :meth:`InvisibleBits.receive` — Algorithm 2: capture N power-on states,
  majority vote, invert, decrypt, ECC-decode;
- :func:`decode_states` — the post-capture half of Algorithm 2 for many
  already-voted states at once (the service's receive groups): one
  stacked header decode and one stacked ECC pass per message length.

Both ends must construct the scheme from the same pre-shared parameters —
exactly the paper's assumption (footnote 3).  The pre-shared bundle is a
:class:`~repro.core.scheme.CodingScheme`; the loose ``key=``/``ecc=``/
``frame=``/``n_captures=`` keyword arguments survive as deprecated
aliases.

Every ``send``/``receive`` runs inside a (forced) telemetry span, so
decode provenance — per-capture BER, vote-margin histogram, ECC
correction counts — is collected whether or not a sink is attached; with
a sink (e.g. ``repro --trace out.jsonl``) the same spans are emitted as
records.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .. import metrics, telemetry
from ..api import (
    ReceiveRequest,
    ReceiveResult,
    SendRequest,
    SendResult,
    receive_result,
    send_result,
)
from ..bitutils import (
    Captures,
    bit_error_rate,
    invert_bits,
    majority_vote,
    most_marginal_row,
)
from ..crypto.ctr import AesCtr
from ..ecc.base import Code, emit_counts
from ..ecc.soft import estimate_p_flip, votes_to_llrs
from ..errors import (
    CodecError,
    ConfigurationError,
    ExtractionError,
    RetryExhaustedError,
)
from ..harness.controlboard import ControlBoard
from .message import (
    FrameFormat,
    build_payload,
    extract_message_soft,
    extract_messages,
)
from .scheme import CodingScheme

_UNSET = object()

#: Direct hot-path instrument: one attribute test while metrics stay
#: disabled (same contract as the telemetry null-span, docs/metrics.md).
_MESSAGES_TOTAL = metrics.counter(
    "repro_messages_total",
    "Messages pushed through the channel, by phase and device",
    labelnames=("phase", "device"),
)


@dataclass(frozen=True)
class EncodeResult:
    """What the sender knows after encoding."""

    payload_bits: np.ndarray
    message_bytes: int
    coded_bits: int
    stress_hours: float
    encrypted: bool

    @property
    def capacity_used(self) -> float:
        return self.coded_bits / self.payload_bits.size


@dataclass(frozen=True)
class DecodeResult:
    """What the receiver recovers, with channel diagnostics.

    The diagnostic fields are populated on every :meth:`InvisibleBits.receive`
    — no caller-side BER recomputation needed:

    - ``per_capture_flip_rate``: each capture's disagreement with the
      majority-voted state (the noise floor the vote suppresses);
    - ``vote_margin_hist``: histogram of per-bit vote margins
      ``|2 * ones - n_captures|`` (index = margin) for the final vote;
      ``round_margin_hists`` keeps one such histogram per vote round when
      adaptive escalation re-voted (last entry == ``vote_margin_hist``);
    - ``ecc_corrections``: data bits/blocks the decode repaired (Hamming
      blocks corrected + repetition data bits with at least one copy
      outvoted), from telemetry; per-copy overrules are the separate
      ``ecc.repetition.overruled`` counter;
    - ``decision`` / ``p_flip_estimate``: whether the decode consumed
      hard bits or soft vote-margin LLRs, and — in soft mode — the
      channel flip rate the LLR scale was derived from;
    - ``raw_error_vs`` / ``per_capture_error_vs``: channel BER against the
      true payload, filled when ``receive(expected_payload=...)`` knows it.

    The self-healing fields record what adaptive capture escalation did
    (docs/faults.md).  On a healthy channel they are all zeros/empty:

    - ``total_captures``: power-on captures actually taken (>=
      ``n_captures`` when escalation fired);
    - ``suspect_captures``: indices of captures excluded from the final
      vote as faulted (flip rate above the scheme's threshold);
    - ``escalation_rounds``: extra capture rounds taken;
    - ``retry_attempts``: transient capture-read failures that were
      retried away;
    - ``faults_injected``: faults the board's injector fired during this
      receive (0 without an injector);
    - ``degraded``: the ceiling was reached and the result was accepted
      with fewer clean captures than the scheme asked for.
    """

    message: bytes
    power_on_state: np.ndarray
    recovered_payload: np.ndarray
    n_captures: int
    raw_error_vs: "float | None" = None  # filled when the truth is known
    captures: "Captures | None" = None
    per_capture_flip_rate: "tuple[float, ...] | None" = None
    per_capture_error_vs: "tuple[float, ...] | None" = None
    vote_margin_hist: "tuple[int, ...] | None" = None
    round_margin_hists: "tuple[tuple[int, ...], ...]" = ()
    ecc_corrections: "int | None" = None
    decision: str = "hard"
    p_flip_estimate: "float | None" = None
    total_captures: int = 0
    suspect_captures: "tuple[int, ...]" = ()
    escalation_rounds: int = 0
    retry_attempts: int = 0
    faults_injected: int = 0
    degraded: bool = False

    def provenance(self) -> dict:
        """The per-receive provenance record (JSON-ready)."""
        return {
            "n_captures": self.n_captures,
            "message_bytes": len(self.message),
            "raw_error_vs": self.raw_error_vs,
            "per_capture_error_vs": (
                list(self.per_capture_error_vs)
                if self.per_capture_error_vs is not None
                else None
            ),
            "per_capture_flip_rate": (
                list(self.per_capture_flip_rate)
                if self.per_capture_flip_rate is not None
                else None
            ),
            "vote_margin_hist": (
                list(self.vote_margin_hist)
                if self.vote_margin_hist is not None
                else None
            ),
            "round_margin_hists": [list(h) for h in self.round_margin_hists],
            "ecc_corrections": self.ecc_corrections,
            "decision": self.decision,
            "p_flip_estimate": self.p_flip_estimate,
            "escalation": {
                "total_captures": self.total_captures,
                "suspect_captures": list(self.suspect_captures),
                "escalation_rounds": self.escalation_rounds,
                "retry_attempts": self.retry_attempts,
                "faults_injected": self.faults_injected,
                "degraded": self.degraded,
            },
        }


class InvisibleBits:
    """One party's view of the covert channel for a specific device.

    ``InvisibleBits(board, scheme=CodingScheme(...))`` is the primary
    constructor; both ends build the same scheme from the pre-shared
    parameters.  The legacy ``key=``/``ecc=``/``frame=``/``n_captures=``
    keywords still work but emit :class:`DeprecationWarning` — they
    produce bit-identical results to the equivalent scheme.
    """

    def __init__(
        self,
        board: ControlBoard,
        *,
        scheme: "CodingScheme | None" = None,
        key=_UNSET,
        ecc=_UNSET,
        frame=_UNSET,
        n_captures=_UNSET,
        use_firmware: bool = True,
    ):
        legacy = {
            name: value
            for name, value in (
                ("key", key),
                ("ecc", ecc),
                ("frame", frame),
                ("n_captures", n_captures),
            )
            if value is not _UNSET
        }
        if legacy and scheme is not None:
            raise ConfigurationError(
                "pass either scheme=CodingScheme(...) or the legacy keyword "
                f"arguments, not both (got scheme and {sorted(legacy)})"
            )
        if legacy:
            warnings.warn(
                "InvisibleBits(key=, ecc=, frame=, n_captures=) is deprecated "
                "and will be removed in repro 2.0; build a repro.CodingScheme "
                "once and pass scheme=... on both ends",
                DeprecationWarning,
                stacklevel=2,
            )
            frame_value = legacy.get("frame")
            scheme = CodingScheme(
                key=legacy.get("key"),
                ecc=legacy.get("ecc"),
                frame=frame_value if frame_value is not None else FrameFormat(),
                n_captures=legacy.get("n_captures", 5),
            )
        elif scheme is None:
            scheme = CodingScheme()
        self.board = board
        self.scheme = scheme
        self.use_firmware = use_firmware

    # -- scheme views (kept for backward compatibility) ---------------------------

    @property
    def key(self) -> "bytes | None":
        return self.scheme.key

    @property
    def ecc(self) -> "Code | None":
        return self.scheme.ecc

    @property
    def frame(self) -> FrameFormat:
        return self.scheme.frame

    @property
    def n_captures(self) -> int:
        return self.scheme.n_captures

    # -- crypto envelope ----------------------------------------------------------

    def _cipher(self) -> "AesCtr | None":
        return self.scheme.cipher(self.board.device.device_id)

    def _span_attrs(self) -> dict:
        device = self.board.device
        return {
            "device": device.spec.name,
            "device_id": device.device_id.hex(),
            "scheme": self.scheme.describe(),
        }

    # -- Algorithm 1 -----------------------------------------------------------------

    def prepare_payload(self, message: bytes) -> np.ndarray:
        """Message pre-processing only (ECC then encryption, §4.1)."""
        with telemetry.trace("channel.prepare", message_bytes=len(message)):
            plain = build_payload(
                message,
                self.board.device.sram.n_bits,
                ecc=self.ecc,
                frame=self.frame,
            )
            cipher = self._cipher()
            return cipher.process_bits(plain) if cipher else plain

    def send(
        self,
        message: bytes,
        *,
        stress_hours: "float | None" = None,
        camouflage: bool = True,
    ) -> EncodeResult:
        """Run the full sender side against the bound device."""
        recipe = self.board.device.spec.recipe
        stress_hours = recipe.stress_hours if stress_hours is None else stress_hours
        with telemetry.trace(
            "channel.send",
            force=True,
            message_bytes=len(message),
            stress_hours=stress_hours,
            recipe={
                "vdd_stress": recipe.vdd_stress,
                "temp_stress_c": recipe.temp_stress_c,
                "stress_hours": recipe.stress_hours,
            },
            **self._span_attrs(),
        ) as span:
            payload = self.prepare_payload(message)
            self.board.encode_message(
                payload,
                stress_hours=stress_hours,
                use_firmware=self.use_firmware,
                camouflage=camouflage,
            )
            coded_bits = self.frame.header_bits + (
                len(message) * 8 if self.ecc is None
                else -(-len(message) * 8 // self.ecc.k) * self.ecc.n
            )
            span.set(coded_bits=coded_bits)
            _MESSAGES_TOTAL.inc(
                phase="send", device=self.board.device.spec.name
            )
            return EncodeResult(
                payload_bits=payload,
                message_bytes=len(message),
                coded_bits=coded_bits,
                stress_hours=stress_hours,
                encrypted=self.scheme.encrypted,
            )

    def handle_send(self, request: SendRequest) -> SendResult:
        """Serve one typed :class:`~repro.api.SendRequest`.

        The request's ``device_id`` is an opaque routing key echoed onto
        the result — this channel is already bound to its board, so no
        lookup happens here.  This is the same entry point
        ``repro.service`` shards call for queued jobs.
        """
        encode = self.send(
            request.message,
            stress_hours=request.stress_hours,
            camouflage=request.camouflage,
        )
        return send_result(request.device_id, encode)

    def handle_receive(
        self,
        request: ReceiveRequest,
        *,
        expected_payload: "np.ndarray | None" = None,
    ) -> ReceiveResult:
        """Serve one typed :class:`~repro.api.ReceiveRequest`.

        ``expected_payload`` has the same truth-diagnostics role as in
        :meth:`receive`; the service passes the payload it staged earlier
        for the same ``device_id`` so raw-BER SLOs see real numbers.
        """
        decode = self.receive(
            message_len=request.message_len, expected_payload=expected_payload
        )
        return receive_result(request.device_id, decode)

    # -- Algorithm 2 -----------------------------------------------------------------

    def recover_payload(self) -> tuple[np.ndarray, np.ndarray]:
        """Capture, vote and invert: returns (power_on_state, payload_bits).

        The power-on state is the *complement* of the written payload
        (§4.3's photographic-negative property), so the recovered payload is
        the inverted majority state.
        """
        state = self.board.majority_power_on_state(self.n_captures)
        return state, invert_bits(state)

    def _vote_rows(
        self, samples: np.ndarray, excluded: "list[int]"
    ) -> "tuple[list[int], np.ndarray]":
        """Majority-vote the non-excluded rows over an odd-sized set.

        With an even number of usable rows, the most marginal one (highest
        disagreement with the provisional vote; ties break to the newest
        capture) sits the vote out — a deterministic rule, so escalated
        receives replay identically.
        """
        good = [i for i in range(samples.shape[0]) if i not in excluded]
        if len(good) % 2 == 0 and len(good) > 1:
            # Shared rule from bitutils (= majority_vote(on_tie="drop")).
            good.pop(most_marginal_row(samples[good]))
        return good, majority_vote(samples[good])

    def _classify_captures(
        self, samples: np.ndarray, suspects: "list[int]"
    ) -> "tuple[list[int], np.ndarray, list[int]]":
        """Peel faulted captures (flip rate above the scheme threshold)
        until the vote is stable; never peels the entire set."""
        threshold = self.scheme.suspect_flip_rate
        suspects = list(suspects)
        while True:
            vote_idx, state = self._vote_rows(samples, suspects)
            fresh = [
                i
                for i in vote_idx
                if np.count_nonzero(samples[i] != state) / state.size > threshold
            ]
            if not fresh or len(fresh) >= len(vote_idx):
                return vote_idx, state, suspects
            suspects.extend(fresh)

    def _attempt_decode(
        self, state: np.ndarray, message_len: "int | None"
    ) -> "tuple[bytes, np.ndarray, int]":
        """Invert, decrypt and ECC-decode one voted state."""
        return _decode_rows([self], [state], [message_len])[0].replay(self.ecc)

    def _attempt_decode_soft(
        self,
        state: np.ndarray,
        ones: np.ndarray,
        n_votes: int,
        p_flip: float,
        message_len: "int | None",
    ) -> "tuple[bytes, np.ndarray, int]":
        """Soft-decision twin of :meth:`_attempt_decode`.

        Works on per-cell LLRs derived from the vote counts instead of the
        voted bits.  The stages map cleanly into the LLR domain:

        - **invert** (§4.3's photographic negative) negates every LLR;
        - **decrypt**: AES-CTR XORs a keystream bit into each payload bit,
          which in the LLR domain flips the sign wherever the keystream
          bit is 1 — confidences pass through untouched (CTR never mixes
          bits, the same property that makes it error-neutral);
        - **ECC-decode** runs the soft-combining stack
          (:func:`repro.ecc.soft.soft_decode`) over the payload LLRs.

        ``recovered`` stays the *hard* inverted state so raw-BER
        diagnostics are mode-independent.
        """
        recovered = invert_bits(state)
        payload_llrs = -votes_to_llrs(ones, n_votes, p_flip)
        cipher = self._cipher()
        with telemetry.trace("channel.decrypt", encrypted=cipher is not None):
            if cipher is not None:
                ks_bits = np.unpackbits(cipher.keystream(payload_llrs.size // 8))
                payload_llrs = payload_llrs * (1.0 - 2.0 * ks_bits)
        with telemetry.trace(
            "channel.ecc_decode",
            code=self.ecc.name if self.ecc is not None else "identity",
            decision="soft",
        ) as ecc_span:
            message = extract_message_soft(
                payload_llrs,
                ecc=self.ecc,
                frame=self.frame,
                message_len=message_len,
            )
            corrections = int(
                sum(
                    count
                    for name, count in ecc_span.counters.items()
                    if name.endswith(".corrections")
                )
            )
        return message, recovered, corrections

    def decode_state(
        self,
        state: np.ndarray,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
        n_captures: "int | None" = None,
        ones: "np.ndarray | None" = None,
        p_flip: "float | None" = None,
    ) -> DecodeResult:
        """Decode an already-voted power-on state (no new captures).

        The batched-service fast path: a fleet-stacked capture burst
        (:func:`repro.core.fleetcapture.capture_fleet`) measures a whole
        tray in one kernel call and hands each slot's majority state
        here for the post-processing half of Algorithm 2 — invert,
        decrypt, ECC-decode.  ``n_captures`` records how many captures
        produced ``state`` (defaults to the scheme's count); adaptive
        escalation never fires on this path, so an undecodable state
        raises :class:`~repro.errors.CodecError` /
        :class:`~repro.errors.ExtractionError` for the caller to fall
        back to the full :meth:`receive`.

        On a ``decision="soft"`` scheme, pass ``ones`` (the per-cell
        count of captures that read 1, as the vote computed it) to decode
        from vote-margin LLRs; ``p_flip`` sets the LLR scale (decode
        decisions are scale-invariant, so omitting it is safe — a
        conservative floor is used).  Without ``ones`` the margins are
        unknowable from a voted state alone, so the decode falls back to
        hard decisions — exactly the soft decode of saturated LLRs.
        """
        if self.scheme.decision != "soft" or ones is None:
            (finish,) = decode_states(
                [self],
                [state],
                message_lens=[message_len],
                expected_payloads=[expected_payload],
                n_captures=n_captures,
            )
            return finish()
        votes = self.n_captures if n_captures is None else int(n_captures)
        p_flip_est = estimate_p_flip(() if p_flip is None else (p_flip,))
        with telemetry.trace(
            "channel.decode_state", force=True, **self._span_attrs()
        ) as span:
            decoded = self._attempt_decode_soft(
                state, ones, votes, p_flip_est, message_len
            )
            raw_error = (
                None
                if expected_payload is None
                else bit_error_rate(expected_payload, decoded[1])
            )
            return self._decoded_state(
                span, state, decoded, votes=votes, raw_error=raw_error,
                p_flip_est=p_flip_est,
            )

    def _finish_decode_state(
        self, state: np.ndarray, row: "_RowDecode", votes: int, raw_error
    ) -> DecodeResult:
        """One row of :func:`decode_states`: its forced span and result."""
        with telemetry.trace(
            "channel.decode_state", force=True, **self._span_attrs()
        ) as span:
            return self._decoded_state(
                span, state, row.replay(self.ecc), votes=votes, raw_error=raw_error
            )

    def _decoded_state(
        self,
        span,
        state: np.ndarray,
        decoded: "tuple[bytes, np.ndarray, int]",
        *,
        votes: int,
        raw_error: "float | None",
        p_flip_est: "float | None" = None,
    ) -> DecodeResult:
        """Stamp a ``channel.decode_state`` span with the decode of
        ``state`` — ``(message, recovered payload, corrections)``, soft
        when ``p_flip_est`` is set — and build its result."""
        message, recovered, corrections = decoded
        decision = "hard" if p_flip_est is None else "soft"
        span.set(
            n_captures=votes,
            raw_error_vs=raw_error,
            ecc_corrections=corrections,
            message_bytes=len(message),
            decision=decision,
        )
        _MESSAGES_TOTAL.inc(phase="receive", device=self.board.device.spec.name)
        return DecodeResult(
            message=message,
            power_on_state=state,
            recovered_payload=recovered,
            n_captures=votes,
            raw_error_vs=raw_error,
            ecc_corrections=corrections,
            decision=decision,
            p_flip_estimate=p_flip_est,
            total_captures=votes,
        )

    def decode_captures(
        self,
        samples: Captures,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
    ) -> DecodeResult:
        """Vote and decode an existing capture stack (no new captures).

        The offline half of Algorithm 2 for captures obtained elsewhere
        (:func:`repro.io.load_captures`, a fleet burst, a stored
        experiment): majority-votes the stack with the receive path's
        even-count drop rule, then decodes per the scheme's ``decision``
        mode — in soft mode the vote margins become LLRs with the scale
        estimated from the stack's own flip rates.  The same stack can be
        decoded under both modes by swapping
        ``scheme.with_decision(...)``.  No escalation fires (there is no
        board to ask for more captures); an undecodable stack raises
        :class:`~repro.errors.CodecError` /
        :class:`~repro.errors.ExtractionError`.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise ConfigurationError(
                f"expected a (n_captures, n_bits) stack, got shape "
                f"{samples.shape}"
            )
        with telemetry.trace(
            "channel.decode_captures", force=True, **self._span_attrs()
        ) as span:
            vote_idx, state = self._vote_rows(samples, [])
            voting = samples[vote_idx]
            ones = voting.sum(axis=0, dtype=np.int64)
            margins = np.abs(2 * ones - len(vote_idx))
            margin_hist = tuple(
                int(v)
                for v in np.bincount(margins, minlength=len(vote_idx) + 1)
            )
            flip_rate = tuple(
                float(np.count_nonzero(row != state)) / state.size
                for row in samples
            )
            soft = self.scheme.decision == "soft"
            p_flip_est = (
                estimate_p_flip([flip_rate[i] for i in vote_idx])
                if soft
                else None
            )
            if soft:
                message, recovered, corrections = self._attempt_decode_soft(
                    state, ones, len(vote_idx), p_flip_est, message_len
                )
            else:
                message, recovered, corrections = self._attempt_decode(
                    state, message_len
                )
            raw_error = None
            if expected_payload is not None:
                raw_error = bit_error_rate(expected_payload, recovered)
            span.set(
                n_captures=len(vote_idx),
                raw_error_vs=raw_error,
                ecc_corrections=corrections,
                message_bytes=len(message),
                decision=self.scheme.decision,
                vote_margin_hist=list(margin_hist),
            )
            _MESSAGES_TOTAL.inc(
                phase="receive", device=self.board.device.spec.name
            )
            return DecodeResult(
                message=message,
                power_on_state=state,
                recovered_payload=recovered,
                n_captures=len(vote_idx),
                raw_error_vs=raw_error,
                captures=samples,
                per_capture_flip_rate=flip_rate,
                vote_margin_hist=margin_hist,
                round_margin_hists=(margin_hist,),
                ecc_corrections=corrections,
                decision=self.scheme.decision,
                p_flip_estimate=p_flip_est,
                total_captures=int(samples.shape[0]),
            )

    def receive(
        self,
        *,
        message_len: "int | None" = None,
        expected_payload: "np.ndarray | None" = None,
    ) -> DecodeResult:
        """Run the full receiver side against the bound device.

        Passing ``expected_payload`` (the sender's ``EncodeResult
        .payload_bits``) additionally fills the truth-referenced channel
        diagnostics: ``raw_error_vs`` and ``per_capture_error_vs``.

        The receive path **self-heals** (docs/faults.md): transient
        capture-read failures are retried under the board's
        :class:`~repro.faults.RetryPolicy`, captures that disagree with
        the majority vote beyond ``scheme.suspect_flip_rate`` are treated
        as faulted and replaced with fresh power-on samples, and an
        undecodable vote escalates by ``scheme.escalation_step`` extra
        captures per round — up to ``scheme.max_total_captures`` total,
        after which :class:`~repro.errors.RetryExhaustedError` is raised.
        On a healthy channel none of this fires and results are
        bit-identical to a plain ``n_captures`` receive; whatever
        happened is recorded in :meth:`DecodeResult.provenance`.
        """
        scheme = self.scheme
        ceiling = scheme.max_total_captures
        with telemetry.trace(
            "channel.receive", force=True, **self._span_attrs()
        ) as span:
            samples = self.board.capture_power_on_states(self.n_captures)
            suspects: "list[int]" = []
            escalation_rounds = 0
            degraded = False
            soft = scheme.decision == "soft"
            p_flip_est: "float | None" = None
            round_hists: "list[tuple[int, ...]]" = []

            while True:
                vote_idx, state, suspects = self._classify_captures(
                    samples, suspects
                )
                with telemetry.trace("channel.vote", n_captures=len(vote_idx)):
                    voting = samples[vote_idx]
                    # Escalation accumulates: every round re-votes (and, in
                    # soft mode, re-counts margins) over *all* clean rows
                    # captured so far, not just the newest batch.
                    ones = voting.sum(axis=0, dtype=np.int64)
                    margins = np.abs(2 * ones - len(vote_idx))
                    margin_hist = tuple(
                        int(v)
                        for v in np.bincount(margins, minlength=len(vote_idx) + 1)
                    )
                    round_hists.append(margin_hist)
                    flip_rate = tuple(
                        float(np.count_nonzero(row != state)) / state.size
                        for row in samples
                    )

                decode_error: "Exception | None" = None
                try:
                    if soft:
                        p_flip_est = estimate_p_flip(
                            [flip_rate[i] for i in vote_idx]
                        )
                        message, recovered, corrections = (
                            self._attempt_decode_soft(
                                state,
                                ones,
                                len(vote_idx),
                                p_flip_est,
                                message_len,
                            )
                        )
                    else:
                        message, recovered, corrections = self._attempt_decode(
                            state, message_len
                        )
                except (CodecError, ExtractionError) as exc:
                    decode_error = exc

                good_count = samples.shape[0] - len(suspects)
                if decode_error is None and good_count >= scheme.n_captures:
                    break  # healthy exit (the only path on a clean channel)

                room = ceiling - samples.shape[0]
                if room <= 0:
                    if decode_error is None:
                        degraded = True  # decodable, just short on clean votes
                        break
                    raise RetryExhaustedError(
                        f"capture ceiling {ceiling} reached with the payload "
                        f"still undecodable: {decode_error}",
                        attempts=int(samples.shape[0]),
                    ) from decode_error

                need = scheme.n_captures - good_count
                extra = min(room, need if need > 0 else scheme.escalation_step)
                telemetry.count("escalation.captures", extra)
                samples = np.vstack(
                    [samples, self.board.capture_power_on_states(extra)]
                )
                escalation_rounds += 1

            raw_error = None
            per_capture_error = None
            if expected_payload is not None:
                raw_error = bit_error_rate(expected_payload, recovered)
                expected_state = invert_bits(expected_payload)
                per_capture_error = tuple(
                    float(np.count_nonzero(row != expected_state))
                    / expected_state.size
                    for row in samples
                )
            retry_attempts = int(span.counters.get("retry.attempts", 0))
            faults_injected = int(span.counters.get("faults.injected", 0))
            span.set(
                n_captures=len(vote_idx),
                total_captures=int(samples.shape[0]),
                suspect_captures=sorted(suspects),
                escalation_rounds=escalation_rounds,
                degraded=degraded,
                vote_margin_hist=list(margin_hist),
                vote_margin_rounds=[list(h) for h in round_hists],
                decision=scheme.decision,
                p_flip_estimate=p_flip_est,
                per_capture_flip_rate=list(flip_rate),
                per_capture_ber=(
                    list(per_capture_error) if per_capture_error else None
                ),
                raw_error_vs=raw_error,
                ecc_corrections=corrections,
                message_bytes=len(message),
            )
            _MESSAGES_TOTAL.inc(
                phase="receive", device=self.board.device.spec.name
            )
            return DecodeResult(
                message=message,
                power_on_state=state,
                recovered_payload=recovered,
                n_captures=len(vote_idx),
                raw_error_vs=raw_error,
                captures=samples,
                per_capture_flip_rate=flip_rate,
                per_capture_error_vs=per_capture_error,
                vote_margin_hist=margin_hist,
                round_margin_hists=tuple(round_hists),
                ecc_corrections=corrections,
                decision=scheme.decision,
                p_flip_estimate=p_flip_est,
                total_captures=int(samples.shape[0]),
                suspect_captures=tuple(sorted(suspects)),
                escalation_rounds=escalation_rounds,
                retry_attempts=retry_attempts,
                faults_injected=faults_injected,
                degraded=degraded,
            )

    # -- diagnostics --------------------------------------------------------------------

    def capture_samples(self, n: "int | None" = None) -> Captures:
        """Raw power-on captures for steganalysis or channel measurement.

        Returns :data:`~repro.bitutils.Captures` — shape
        ``(n_captures, n_bits)``, dtype ``uint8`` — the same convention as
        :meth:`ControlBoard.capture_power_on_states` and
        :func:`repro.io.load_captures`.
        """
        return self.board.capture_power_on_states(n or self.n_captures)


class _RowDecode(NamedTuple):
    """One voted state's share of a stacked decode (:func:`_decode_rows`)."""

    recovered: np.ndarray
    encrypted: bool
    message: "bytes | ExtractionError"
    counts: "list[tuple[str, int]]"

    def replay(self, ecc: "Code | None") -> "tuple[bytes, np.ndarray, int]":
        """Emit the row's ``channel.decrypt`` and ``channel.ecc_decode``
        spans and ``ecc.*`` counters as a one-state decode would; return
        ``(message, recovered payload, ECC corrections)`` or raise the
        row's :class:`~repro.errors.ExtractionError`."""
        with telemetry.trace("channel.decrypt", encrypted=self.encrypted):
            pass
        with telemetry.trace(
            "channel.ecc_decode", code=ecc.name if ecc is not None else "identity"
        ):
            emit_counts(self.counts)
            if isinstance(self.message, ExtractionError):
                raise self.message
        corrections = int(
            sum(value for name, value in self.counts if name.endswith(".corrections"))
        )
        return self.message, self.recovered, corrections


def _decode_rows(
    channels: "list[InvisibleBits]",
    states: "list[np.ndarray]",
    message_lens: "list[int | None]",
    recovered: "list[np.ndarray] | None" = None,
) -> "list[_RowDecode]":
    """Invert (unless ``recovered`` already holds the inverted states) and
    decrypt each state with its own device's cipher, then extract every
    message in one stacked pass per coding scheme."""
    if recovered is None:
        recovered = [invert_bits(state) for state in states]
    ciphers = [channel._cipher() for channel in channels]
    plains = [
        cipher.process_bits(bits) if cipher is not None else bits
        for cipher, bits in zip(ciphers, recovered)
    ]
    groups: "dict[int, list[int]]" = {}
    for i, channel in enumerate(channels):
        groups.setdefault(id(channel.scheme), []).append(i)
    outcomes: list = [None] * len(channels)
    for members in groups.values():
        scheme = channels[members[0]].scheme
        messages, counts = extract_messages(
            [plains[i] for i in members],
            ecc=scheme.ecc,
            frame=scheme.frame,
            message_lens=[message_lens[i] for i in members],
        )
        for i, message, row_counts in zip(members, messages, counts):
            outcomes[i] = _RowDecode(
                recovered[i], ciphers[i] is not None, message, row_counts
            )
    return outcomes


def decode_states(
    channels: "list[InvisibleBits]",
    states: "list[np.ndarray]",
    *,
    message_lens: "list[int | None] | None" = None,
    expected_payloads: "list[np.ndarray | None] | None" = None,
    raw_errors: "list[float | None] | None" = None,
    recovered: "list[np.ndarray] | None" = None,
    n_captures: "int | None" = None,
) -> "list[Callable[[], DecodeResult]]":
    """Hard-decode many already-voted power-on states at once.

    ``states[i]`` is the majority state captured from ``channels[i]``'s
    board.  Each state is inverted and decrypted with its own device's
    cipher; then every message is extracted in one stacked pass —
    headers together, bodies in one ECC pass per message length — instead
    of one decode per state.  A fleet capture has already inverted the
    states and scored them against the staged payloads: pass
    ``recovered=fleet.recovered`` and ``raw_errors=fleet.errors`` (the
    same arrays and doubles) instead of recomputing them; otherwise the
    errors are computed against ``expected_payloads``.

    Returns one *finisher* per state.  Calling it — inside that request's
    own trace context — opens the state's forced ``channel.decode_state``
    span with its nested ``channel.decrypt``/``channel.ecc_decode`` spans
    and ``ecc.*`` counters, and returns the :class:`DecodeResult` or
    raises the :class:`~repro.errors.ExtractionError` that state alone
    failed with: exactly what :meth:`InvisibleBits.decode_state` (whose
    hard path is the one-state case) records and returns.
    """
    n = len(states)
    rows = _decode_rows(
        channels,
        states,
        [None] * n if message_lens is None else message_lens,
        recovered,
    )
    finishers = []
    for i, (channel, state, row) in enumerate(zip(channels, states, rows)):
        if raw_errors is not None:
            raw_error = raw_errors[i]
        elif expected_payloads is not None and expected_payloads[i] is not None:
            raw_error = bit_error_rate(expected_payloads[i], row.recovered)
        else:
            raw_error = None
        votes = channel.n_captures if n_captures is None else int(n_captures)
        finishers.append(
            functools.partial(
                channel._finish_decode_state, state, row, votes, raw_error
            )
        )
    return finishers
