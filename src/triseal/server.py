"""Honest-but-curious escrow server: record store, search pipeline, updates.

The server stores only encrypted material (three element layers plus the
AEAD payload), never sees a keyword, identity, or key, and answers two
kinds of request:

* search -- candidates are first confined to the declared data-set subset,
  then keyword-matched (cheap, one check per record), and only the keyword
  matches go through policy verification (per-attribute pairings).  The
  counters on the response expose that ordering.
* re-encryption -- an update is applied only if the supplied token proves
  ownership against the record's own search elements and the separate
  update-id tag:

      e(rtk, g^(r/sk)) = e(prod_{i in S} pk_i, g^r) * e(H(ID_RTk), g)^r.

  A search token cannot stand in for an update token because keyword and
  update-id hashes live in different domains.  Rejected updates leave the
  record byte-identical.

Reads are freely concurrent over immutable record snapshots; mutations
serialize behind one lock, so a search observes each record either before
or after an update, never in between.  The optional store file is an
append-only log of length-prefixed frames headed by the public parameters;
the latest frame per record id wins on reload.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

from . import wire
from .abe import AccessPolicyElements, AttributeCredential, BlindedIdentity, abe_verify
from .errors import (
    BadRecord,
    BadSetIndex,
    EmptySubset,
    IncompletePolicy,
    InvalidBlinding,
    InvalidElement,
    UpdateRejected,
)
from .pairing import GroupElement, PairingContext, Side, context_from_header
from .payload import PayloadCiphertext
from .recovery import KeyRecoveryElements
from .sse import SearchToken, SetPublicKeys, SseRecordElements, sse_match_any

logger = logging.getLogger("triseal.server")


@dataclass(frozen=True)
class DataRecord:
    """One stored object: three element layers plus the encrypted payload."""

    record_id: str
    set_index: int
    sse: SseRecordElements
    abe: AccessPolicyElements
    recovery: KeyRecoveryElements
    payload: PayloadCiphertext


def record_to_wire(ctx: PairingContext, rec: DataRecord) -> dict:
    return {
        "params": ctx.param_header(),
        "record_id": rec.record_id,
        "set_index": rec.set_index,
        "sse": wire.sse_to_wire(ctx, rec.sse),
        "abe": wire.abe_to_wire(ctx, rec.abe),
        "recovery": wire.recovery_to_wire(ctx, rec.recovery),
        "payload": wire.payload_to_wire(rec.payload),
    }


def record_from_wire(ctx: PairingContext, obj: Mapping) -> DataRecord:
    try:
        return DataRecord(
            record_id=obj["record_id"],
            set_index=int(obj["set_index"]),
            sse=wire.sse_from_wire(ctx, obj["sse"]),
            abe=wire.abe_from_wire(ctx, obj["abe"]),
            recovery=wire.recovery_from_wire(ctx, obj["recovery"]),
            payload=wire.payload_from_wire(obj["payload"]),
        )
    except (KeyError, ValueError, TypeError, AttributeError, InvalidElement) as exc:
        raise BadRecord(f"malformed record: {exc}") from exc


def record_bytes(ctx: PairingContext, rec: DataRecord) -> bytes:
    return wire.canonical_json(record_to_wire(ctx, rec))


def assign_record_id(ctx: PairingContext, rec: DataRecord) -> str:
    """Content-derived id over the record with the id field blanked."""
    blank = replace(rec, record_id="")
    return hashlib.sha256(record_bytes(ctx, blank)).hexdigest()[:32]


@dataclass(frozen=True)
class SearchRequest:
    """Wire request: the token, credentials, and the blinding they share.

    No keyword slot: the server tries every tagged keyword of a candidate.
    """

    token: SearchToken
    credentials: tuple[AttributeCredential, ...]
    blinded: BlindedIdentity


@dataclass(frozen=True)
class MatchedRecord:
    record_id: str
    payload: PayloadCiphertext
    recovery: KeyRecoveryElements
    policy: tuple[str, ...]


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    sse_checked: int
    sse_matched: int
    abe_verified: int
    matched: int


@dataclass(frozen=True)
class SearchResponse:
    subset: tuple[int, ...]
    matches: tuple[MatchedRecord, ...]
    incomplete_policy: tuple[str, ...]
    stats: SearchStats


@dataclass(frozen=True)
class UpdateRequest:
    """Owner re-encryption: replace whole layers of one record."""

    record_id: str
    rtk: GroupElement
    subset: tuple[int, ...]
    new_sse: SseRecordElements | None = None
    new_abe: AccessPolicyElements | None = None
    new_recovery: KeyRecoveryElements | None = None
    new_payload: PayloadCiphertext | None = None


# -- message wire envelopes -----------------------------------------------------


def search_request_to_wire(ctx: PairingContext, req: SearchRequest) -> dict:
    body = {
        "token": wire.token_to_wire(ctx, req.token),
        "credentials": [wire.credential_to_wire(ctx, c) for c in req.credentials],
        "blinded": wire.blinded_to_wire(ctx, req.blinded),
    }
    return wire.envelope("search-request", ctx, body)


def _search_request_body(ctx: PairingContext, obj: Mapping) -> SearchRequest:
    return SearchRequest(
        token=wire.token_from_wire(ctx, obj["token"]),
        credentials=tuple(wire.credential_from_wire(ctx, c) for c in obj["credentials"]),
        blinded=wire.blinded_from_wire(ctx, obj["blinded"]),
    )


def search_request_from_wire(ctx: PairingContext, obj: Mapping) -> SearchRequest:
    return wire.open_envelope(obj, "search-request", _search_request_body, ctx)


def search_response_to_wire(ctx: PairingContext, resp: SearchResponse) -> dict:
    body = {
        "subset": list(resp.subset),
        "matches": [
            {
                "record_id": m.record_id,
                "payload": wire.payload_to_wire(m.payload),
                "recovery": wire.recovery_to_wire(ctx, m.recovery),
                "policy": list(m.policy),
            }
            for m in resp.matches
        ],
        "incomplete_policy": list(resp.incomplete_policy),
        "stats": {
            "candidates": resp.stats.candidates,
            "sse_checked": resp.stats.sse_checked,
            "sse_matched": resp.stats.sse_matched,
            "abe_verified": resp.stats.abe_verified,
            "matched": resp.stats.matched,
        },
    }
    return wire.envelope("search-response", ctx, body)


def _search_response_body(ctx: PairingContext, obj: Mapping) -> SearchResponse:
    return SearchResponse(
        subset=tuple(int(i) for i in obj["subset"]),
        matches=tuple(
            MatchedRecord(
                record_id=m["record_id"],
                payload=wire.payload_from_wire(m["payload"]),
                recovery=wire.recovery_from_wire(ctx, m["recovery"]),
                policy=tuple(m["policy"]),
            )
            for m in obj["matches"]
        ),
        incomplete_policy=tuple(obj["incomplete_policy"]),
        stats=SearchStats(**obj["stats"]),
    )


def search_response_from_wire(ctx: PairingContext, obj: Mapping) -> SearchResponse:
    return wire.open_envelope(obj, "search-response", _search_response_body, ctx)


def update_request_to_wire(ctx: PairingContext, req: UpdateRequest) -> dict:
    body = {
        "record_id": req.record_id,
        "rtk": wire.enc_elem(ctx, req.rtk),
        "subset": list(req.subset),
        "new_sse": None if req.new_sse is None else wire.sse_to_wire(ctx, req.new_sse),
        "new_abe": None if req.new_abe is None else wire.abe_to_wire(ctx, req.new_abe),
        "new_recovery": (
            None if req.new_recovery is None else wire.recovery_to_wire(ctx, req.new_recovery)
        ),
        "new_payload": (
            None if req.new_payload is None else wire.payload_to_wire(req.new_payload)
        ),
    }
    return wire.envelope("update-request", ctx, body)


def _update_request_body(ctx: PairingContext, obj: Mapping) -> UpdateRequest:
    return UpdateRequest(
        record_id=obj["record_id"],
        rtk=wire.dec_elem(ctx, obj["rtk"], Side.LEFT),
        subset=tuple(int(i) for i in obj["subset"]),
        new_sse=None if obj["new_sse"] is None else wire.sse_from_wire(ctx, obj["new_sse"]),
        new_abe=None if obj["new_abe"] is None else wire.abe_from_wire(ctx, obj["new_abe"]),
        new_recovery=(
            None if obj["new_recovery"] is None else wire.recovery_from_wire(ctx, obj["new_recovery"])
        ),
        new_payload=(
            None if obj["new_payload"] is None else wire.payload_from_wire(obj["new_payload"])
        ),
    )


def update_request_from_wire(ctx: PairingContext, obj: Mapping) -> UpdateRequest:
    return wire.open_envelope(obj, "update-request", _update_request_body, ctx)


class EscrowServer:
    """Record store plus the search / re-encryption request handlers."""

    def __init__(
        self,
        ctx: PairingContext,
        pks: SetPublicKeys,
        store_path: str | Path | None = None,
    ):
        self.ctx = ctx
        self.pks = pks
        self._records: dict[str, DataRecord] = {}
        self._lock = threading.Lock()
        self._store: BinaryIO | None = None
        if store_path is not None:
            path = Path(store_path)
            if path.exists() and path.stat().st_size > 0:
                raise ValueError(f"store file {path} already exists; use EscrowServer.open")
            self._store = path.open("ab")
            self._append(
                {
                    "kind": "header",
                    "params": ctx.param_header(),
                    "pks": wire.pks_to_wire(ctx, pks),
                }
            )

    @classmethod
    def open(cls, store_path: str | Path) -> "EscrowServer":
        """Reload a server from its store log (last frame per id wins)."""
        path = Path(store_path)
        if not path.is_file():
            raise BadRecord(f"no store file at {path}")
        # frames are streamed, so superseded ones are never all held at once
        with closing(_read_frames(path)) as frames:
            header = next(frames, None)
            if header is None or header.get("kind") != "header":
                raise BadRecord(f"store file {path} has no parameter header")
            try:
                ctx = context_from_header(header["params"])
                pks = wire.pks_from_wire(ctx, header["pks"])
            except (KeyError, TypeError, ValueError, AttributeError, InvalidElement) as exc:
                raise BadRecord(f"malformed store header: {exc!r}") from exc
            server = cls(ctx, pks, store_path=None)
            for frame in frames:
                if frame.get("kind") != "record":
                    raise BadRecord(f"unexpected frame kind {frame.get('kind')!r}")
                rec = record_from_wire(ctx, frame.get("record"))
                server._validate(rec)
                server._records[rec.record_id] = rec
        server._store = path.open("ab")
        return server

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None

    # -- storage ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return len(self._records)

    def record_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._records)

    def store_record(self, rec: DataRecord) -> str:
        if not rec.record_id:
            rec = replace(rec, record_id=assign_record_id(self.ctx, rec))
        self._validate(rec)
        with self._lock:
            existing = self._records.get(rec.record_id)
            if existing is not None:
                if existing == rec:
                    return rec.record_id
                raise BadRecord(f"record id {rec.record_id} already stored")
            self._records[rec.record_id] = rec
            self._persist(rec)
        logger.info("stored record %s (set %d)", rec.record_id, rec.set_index)
        return rec.record_id

    def fetch(self, record_id: str) -> DataRecord:
        with self._lock:
            try:
                return self._records[record_id]
            except KeyError:
                raise BadRecord(f"no record {record_id}") from None

    def _validate(self, rec: DataRecord) -> None:
        if not 1 <= rec.set_index <= self.pks.n:
            raise BadRecord(f"set index {rec.set_index} outside 1..{self.pks.n}")
        if not rec.sse.tagged_keywords:
            raise BadRecord("record carries no tagged keywords")
        if not rec.abe.attrs:
            raise BadRecord("record carries an empty policy")
        if set(rec.abe.attrs) != set(rec.recovery.attrs):
            raise BadRecord("key-recovery policy does not match the access policy")

    def _persist(self, rec: DataRecord) -> None:
        if self._store is not None:
            self._append({"kind": "record", "record": record_to_wire(self.ctx, rec)})

    def _append(self, frame: dict) -> None:
        assert self._store is not None
        data = wire.canonical_json(frame)
        self._store.write(len(data).to_bytes(4, "big") + data)
        self._store.flush()

    # -- search ------------------------------------------------------------------

    def search(self, req: SearchRequest, *, workers: int = 1) -> SearchResponse:
        if req.blinded is None or req.blinded.element.is_identity:
            raise InvalidBlinding("search request carries no blinded identity")
        subset = self.pks.check_subset(req.token.subset)
        with self._lock:
            snapshot = list(self._records.values())
        candidates = [rec for rec in snapshot if rec.set_index in subset]

        if workers <= 1 or len(candidates) < 2:
            parts = [self._search_chunk(candidates, req)]
        else:
            step = (len(candidates) + workers - 1) // workers
            chunks = [candidates[i : i + step] for i in range(0, len(candidates), step)]
            from concurrent.futures import ThreadPoolExecutor  # deferred: only pools need it
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(lambda c: self._search_chunk(c, req), chunks))

        matches: list[MatchedRecord] = []
        incomplete: list[str] = []
        sse_checked = sse_matched = abe_verified = 0
        for part_matches, part_incomplete, checked, matched_kw, verified in parts:
            matches.extend(part_matches)
            incomplete.extend(part_incomplete)
            sse_checked += checked
            sse_matched += matched_kw
            abe_verified += verified

        stats = SearchStats(
            candidates=len(candidates),
            sse_checked=sse_checked,
            sse_matched=sse_matched,
            abe_verified=abe_verified,
            matched=len(matches),
        )
        logger.info(
            "search over %d candidates: %d keyword matches, %d policy checks, %d returned",
            stats.candidates,
            stats.sse_matched,
            stats.abe_verified,
            stats.matched,
        )
        return SearchResponse(
            subset=subset,
            matches=tuple(matches),
            incomplete_policy=tuple(incomplete),
            stats=stats,
        )

    def _search_chunk(
        self, candidates: Sequence[DataRecord], req: SearchRequest
    ) -> tuple[list[MatchedRecord], list[str], int, int, int]:
        matches: list[MatchedRecord] = []
        incomplete: list[str] = []
        checked = matched_kw = verified = 0
        for rec in candidates:
            checked += 1
            if not sse_match_any(self.ctx, rec.sse, req.token, self.pks):
                continue
            matched_kw += 1
            try:
                ok = abe_verify(self.ctx, rec.abe, req.credentials, req.blinded)
            except IncompletePolicy:
                incomplete.append(rec.record_id)
                continue
            verified += 1
            if ok:
                matches.append(
                    MatchedRecord(
                        record_id=rec.record_id,
                        payload=rec.payload,
                        recovery=rec.recovery,
                        policy=rec.abe.attrs,
                    )
                )
        return matches, incomplete, checked, matched_kw, verified

    # -- re-encryption (update) --------------------------------------------------

    def reencrypt(self, req: UpdateRequest) -> str:
        if not any((req.new_sse, req.new_abe, req.new_recovery, req.new_payload)):
            raise BadRecord("update replaces nothing")
        try:
            subset = self.pks.check_subset(req.subset)
        except (EmptySubset, BadSetIndex) as exc:
            raise UpdateRejected(str(exc)) from exc
        with self._lock:
            rec = self._records.get(req.record_id)
            if rec is None:
                raise BadRecord(f"no record {req.record_id}")
            if rec.set_index not in subset:
                raise UpdateRejected("record lies outside the declared subset")
            lhs = self.ctx.pair(req.rtk, rec.sse.stk_transferor)
            rhs = (
                self.ctx.pair(self.pks.left_product(subset), rec.sse.kw_modifier)
                * rec.sse.update_keyword
            )
            if lhs != rhs:
                logger.info("update rejected for record %s", rec.record_id)
                raise UpdateRejected("re-encryption token failed verification")
            updated = DataRecord(
                record_id=rec.record_id,
                set_index=rec.set_index,
                sse=req.new_sse or rec.sse,
                abe=req.new_abe or rec.abe,
                recovery=req.new_recovery or rec.recovery,
                payload=req.new_payload or rec.payload,
            )
            self._validate(updated)
            self._records[rec.record_id] = updated
            self._persist(updated)
        logger.info("updated record %s", rec.record_id)
        return rec.record_id


def _read_frames(path: Path):
    with path.open("rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                return
            if len(head) != 4:
                raise BadRecord("truncated store frame header")
            size = int.from_bytes(head, "big")
            data = fh.read(size)
            if len(data) != size:
                raise BadRecord("truncated store frame")
            try:
                frame = json.loads(data.decode("utf-8"))
            except ValueError as exc:  # also UnicodeDecodeError
                raise BadRecord(f"store frame is not UTF-8 JSON: {exc}") from exc
            if not isinstance(frame, dict):
                raise BadRecord("store frame is not a JSON object")
            yield frame
