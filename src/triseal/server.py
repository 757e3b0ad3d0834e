"""Honest-but-curious escrow server: record store, search pipeline, updates.

The server stores only encrypted material (three element layers plus the
AEAD payload), never sees a keyword, identity, or key, and answers two
kinds of request:

* search -- candidates are first confined to the declared data-set subset,
  then keyword-matched (cheap, one check per record), and only the keyword
  matches go through policy verification (per-attribute pairings).  The
  counters on the response expose that ordering.  The consent's token and
  the subset product repeat across requests, so they come prepared from the
  table of kept points (``PairingContext.kept``), before the fork.  A keyword
  check is one pairing times the record's subset term, kept per (layer 1,
  subset) from the first check that needs it.  A policy check pairs the
  request's credentials and blinding, never prepared, over the record side's
  lines (``abe.prepare_policy``), kept per current layer 2 for the last
  ``KEPT_POINTS`` records policy-checked on this server, least recently
  checked evicted: about 49 KB per prepared point, k + 1 per record, so at
  most ``KEPT_POINTS`` (k + 1) such points; a policy rotation frees a record's.
  A record met again after its eviction walks its k + 1 lines again.  A forked
  child sends the terms and policies it prepared back with its outcomes; each
  is installed only while its layer is current.  An update's ``rtk`` is
  prepared per request.
* re-encryption -- an update is applied only if the supplied token proves
  ownership against the record's own search elements and the separate
  update-id tag:

      e(rtk, g^(r/sk)) = e(prod_{i in S} pk_i, g^r) * e(H(ID_RTk), g)^r.

  A search token cannot stand in for an update token because keyword and
  update-id hashes live in different domains.  Rejected updates leave the
  record byte-identical.

Searches read immutable record snapshots; mutations serialize behind one
lock, so a search sees each record before or after an update, never in
between.  Search and reopen share one fork helper, ``_forked``: a shard per
usable core, dealt round-robin, each but the first in a forked child, merged
in serial order.  A child only computes, pickles its result down a pipe (safe:
only its parent reads it; the context goes by persistent id) and
``os._exit``s, flushing no shared buffer; a failed child's shard is redone
here.  Without ``os.fork`` or beside other threads (a child would inherit
their held locks) the work is serial.  The store file is an append-only log: a
header frame (``params``, the set keys), then one bare record per frame;
the last frame per id wins.  A frame is a 4-byte payload length, a 32-byte
HMAC-SHA256 tag and the payload, canonical JSON (after LevelDB's log format),
keyed by 32 bytes in ``<log>.key`` (mode 0600, never in the log).
Trust rule: this server checked every element of a frame it tagged, so a frame
whose tag verifies decodes only layer 1, without the two order-q checks, and
holds layers 2 and 3 as wire form (``Held``): layer 2 is decoded, again
without them, only by ``_check``, after the IncompletePolicy check, at a keyword
hit that finds no kept policy for it (its first on this server, or one after its
eviction), and layer 3 never.  A failed tag, a missing key and all outside
input, held forms included, get every check.  A user's layer 3 (a response's,
or an in-process held form) is decoded with every check, outside any trusted
decode, once per process: ``kept_recovery`` keeps the last ``KEPT_POINTS`` by
(context, canonical wire bytes).  Reopen reads the log once: it parses every
frame and holds the bytes of each id's last frame (an earlier one is
dropped when a later frame of its id is read), so an open holds about one
frame per live id; each shard verifies and decodes only its ids' frames.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import json
import logging
import os
import pickle
import secrets
import signal
import threading
import weakref
from contextlib import closing, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping

from . import wire
from .abe import AccessPolicyElements, AttributeCredential, BlindedIdentity, PreparedPolicy
from .abe import abe_verify, prepare_policy
from .errors import (
    BadRecord,
    BadSetIndex,
    EmptySubset,
    InvalidBlinding,
    InvalidElement,
    UpdateRejected,
)
from .pairing import GroupElement, GtElement, PairingContext, context_from_header
from .pairing.base import _TRUSTED, KEPT_POINTS, _trusted_decode
from .payload import PayloadCiphertext
from .recovery import KeyRecoveryElements
from .sse import SearchToken, SetPublicKeys, SseRecordElements
from .sse import sse_match_any, subset_product, subset_term

logger = logging.getLogger("triseal.server")
_MISS, _INCOMPLETE, _DENIED, _MATCH = range(4)  # search outcomes
KEY_BYTES = TAG_BYTES = 32  # store key and frame tag
_MALFORMED = (KeyError, ValueError, TypeError, AttributeError, OverflowError, InvalidElement)


@dataclass(frozen=True)
class Held:
    """Layer 2 or 3 as the server holds it: attribute names, checked canonical wire
    form (sent and logged as is: never mutate; alone compared), the layer's dataclass,
    and layer 2's elements (None: a tagged frame's)."""

    attrs: tuple[str, ...] = field(compare=False)
    wire: dict
    kind: type = field(compare=False)
    elements: AccessPolicyElements | KeyRecoveryElements | None = field(default=None, compare=False)


_LAYERS = {AccessPolicyElements: wire.ABE, KeyRecoveryElements: wire.RECOVERY}


def held(ctx: PairingContext, layer: Any) -> Held:
    """``layer`` as a server holds it: elements encoded once, a held form with them as it
    is, one without (never trusted: maybe another server's) decoded with every check."""
    if isinstance(layer, Held):
        if layer.elements is not None:
            return layer
        layer = _layer_from_wire(ctx, layer.wire, layer.kind)
    kept = layer if isinstance(layer, AccessPolicyElements) else None  # layer 3: never read
    return Held(layer.attrs, _layer_wire(ctx, layer), type(layer), kept)


def _layer_wire(ctx: PairingContext, layer: Any) -> dict:
    return layer.wire if isinstance(layer, Held) else _LAYERS[type(layer)].encode(ctx, layer)


def _layer_from_wire(ctx: PairingContext, obj: Any, kind: type, trusted: bool = False):
    """The ``kind`` layer of wire form ``obj``, without the order checks only if ``trusted``."""
    try:
        return _trusted_decode(trusted, _LAYERS[kind].decode, ctx, obj)
    except _MALFORMED as exc:
        raise BadRecord(f"malformed record: {exc}") from exc


def _held_layer(kind: type) -> wire.Shape:
    """A record's layer 2 or 3: a tagged frame's held as written, any other's checked and
    re-encoded."""

    def decode(ctx: PairingContext, obj: Mapping) -> Held:
        layer = Held(wire.NAMES.decode(ctx, obj["attrs"]), obj, kind)
        return layer if _TRUSTED.get() else held(ctx, layer)

    return wire.Shape(_layer_wire, decode)


@dataclass(frozen=True)
class DataRecord:
    """One stored object: three element layers (2 and 3 held once stored) plus the payload."""

    record_id: str
    set_index: int
    sse: SseRecordElements
    abe: AccessPolicyElements | Held
    recovery: KeyRecoveryElements | Held
    payload: PayloadCiphertext


_RECORD = wire.Form(
    DataRecord,
    record_id=wire.NAME,
    set_index=wire.INDEX,
    sse=wire.SSE,
    abe=_held_layer(AccessPolicyElements),
    recovery=_held_layer(KeyRecoveryElements),
    payload=wire.PAYLOAD,
)


def record_to_wire(ctx: PairingContext, rec: DataRecord) -> dict:
    return _RECORD.encode(ctx, rec)


def _record_id(obj: Mapping) -> str:
    record_id = obj.get("record_id") if isinstance(obj, Mapping) else None
    if not isinstance(record_id, str):
        raise BadRecord(f"malformed record: record_id {record_id!r} is not a string")
    return record_id


def record_from_wire(ctx: PairingContext, obj: Mapping) -> DataRecord:
    try:
        return _RECORD.decode(ctx, obj)
    except _MALFORMED as exc:
        raise BadRecord(f"malformed record: {exc}") from exc


def record_bytes(ctx: PairingContext, rec: DataRecord) -> bytes:
    """The record under the parameter header: what a record id hashes."""
    return wire.canonical_json({"params": ctx.param_header(), **record_to_wire(ctx, rec)})


def assign_record_id(ctx: PairingContext, rec: DataRecord) -> str:
    """Content-derived id over the record bytes with the id field blanked."""
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
    recovery: KeyRecoveryElements | Held
    policy: tuple[str, ...]


@dataclass(frozen=True)
class SearchStats:
    candidates: int
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


@functools.lru_cache(maxsize=KEPT_POINTS)  # one table per process
def kept_recovery(ctx: PairingContext, raw: bytes) -> KeyRecoveryElements:
    """Layer 3 of canonical wire bytes ``raw`` from the table of the last ``KEPT_POINTS``
    such layers: decoded with every check, even in a trusted decode; never kept if refused."""
    return _trusted_decode(False, wire.RECOVERY.decode, ctx, json.loads(raw))


# a user's layer 3, from a response or an in-process held form: checked once per process
USER_RECOVERY = wire.Shape(_layer_wire, lambda ctx, o: kept_recovery(ctx, wire.canonical_json(o)))


# -- message wire envelopes -----------------------------------------------------

_SEARCH_REQUEST = wire.Form(
    SearchRequest, token=wire.TOKEN, credentials=wire.listed(wire.CREDENTIAL), blinded=wire.BLINDED
)
_SEARCH_RESPONSE = wire.Form(
    SearchResponse,
    subset=wire.INDICES,
    matches=wire.listed(
        wire.Form(
            MatchedRecord,
            record_id=wire.NAME,
            payload=wire.PAYLOAD,
            recovery=USER_RECOVERY,
            policy=wire.NAMES,
        )
    ),
    incomplete_policy=wire.NAMES,
    stats=wire.Form(SearchStats, **{f.name: wire.INDEX for f in fields(SearchStats)}),
)
_UPDATE_REQUEST = wire.Form(
    UpdateRequest,
    record_id=wire.NAME,
    rtk=wire.PREPARED,
    subset=wire.INDICES,
    new_sse=wire.optional(wire.SSE),
    new_abe=wire.optional(wire.ABE),
    new_recovery=wire.optional(wire.RECOVERY),
    new_payload=wire.optional(wire.PAYLOAD),
)


def search_request_to_wire(ctx: PairingContext, req: SearchRequest) -> dict:
    return wire.envelope("search-request", ctx, _SEARCH_REQUEST.encode(ctx, req))


def search_request_from_wire(ctx: PairingContext, obj: Mapping) -> SearchRequest:
    return wire.open_envelope(obj, "search-request", _SEARCH_REQUEST.decode, ctx)


def search_response_to_wire(ctx: PairingContext, resp: SearchResponse) -> dict:
    return wire.envelope("search-response", ctx, _SEARCH_RESPONSE.encode(ctx, resp))


def search_response_from_wire(ctx: PairingContext, obj: Mapping) -> SearchResponse:
    return wire.open_envelope(obj, "search-response", _SEARCH_RESPONSE.decode, ctx)


def update_request_to_wire(ctx: PairingContext, req: UpdateRequest) -> dict:
    return wire.envelope("update-request", ctx, _UPDATE_REQUEST.encode(ctx, req))


def update_request_from_wire(ctx: PairingContext, obj: Mapping) -> UpdateRequest:
    return wire.open_envelope(obj, "update-request", _UPDATE_REQUEST.decode, ctx)


class EscrowServer:
    """Record store plus the search / re-encryption request handlers."""

    def __init__(
        self,
        ctx: PairingContext,
        pks: SetPublicKeys,
        store_path: str | Path | None = None,
        store_key: bytes | None = None,
    ):
        self.ctx = ctx
        self.pks = pks
        self._records: dict[str, DataRecord] = {}
        # a layer 1's kw_modifier -> {subset: its subset_term}, dropped with that layer 1
        self._terms = weakref.WeakKeyDictionary()
        # a record id -> (its layer 2 as held, that layer's prepare_policy), dropped with
        # that layer: the last KEPT_POINTS records policy-checked, least recent first
        self._policies: dict[str, tuple[Held, PreparedPolicy]] = {}
        self._lock = threading.Lock()
        self._store: BinaryIO | None = None
        if store_key is not None and len(store_key) != KEY_BYTES:
            raise ValueError(f"store key must be {KEY_BYTES} bytes, got {len(store_key)}")
        self._key = None if store_path is None else store_key or secrets.token_bytes(KEY_BYTES)
        if store_path is not None:
            path = Path(store_path)
            if path.exists() and path.stat().st_size > 0:
                raise ValueError(f"store file {path} already exists; use EscrowServer.open")
            key_path = path.with_name(path.name + ".key")
            key_path.unlink(missing_ok=True)  # so that O_CREAT sets the mode
            with open(os.open(key_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "wb") as fh:
                fh.write(self._key)
            self._store = path.open("ab")
            self._append(
                {
                    "kind": "header",
                    "params": ctx.param_header(),
                    "pks": wire.PKS.encode(ctx, pks),
                }
            )

    @classmethod
    def open(cls, store_path: str | Path) -> "EscrowServer":
        """Reload a server from its store log.  The last frame per id wins and is
        the only one decoded: with every check, or, if its tag verifies, only
        its layer 1 and without the order checks (the trust rule above); an
        earlier frame of the id need only parse as a record frame with a string id.
        The log is read once; each live id's last frame is held in memory until
        the shards have decoded it."""
        path = Path(store_path)
        if not path.is_file():
            raise BadRecord(f"no store file at {path}")
        key = None  # a missing key file, or one not KEY_BYTES long: every frame gets
        with suppress(OSError):  # every check, and new frames are written untagged
            key = path.with_name(path.name + ".key").read_bytes()
        key = key if key and len(key) == KEY_BYTES else None
        with closing(_read_frames(path)) as frames:
            first = next(frames, None)
            header = first and _frame_obj(first[1])
            if header is None or header.get("kind") != "header":
                raise BadRecord(f"store file {path} has no parameter header")
            try:
                ctx = context_from_header(header["params"])
                pks = _decoded(key, *first, lambda frame: wire.PKS.decode(ctx, frame["pks"]))
            except (KeyError, TypeError, ValueError, AttributeError, InvalidElement) as exc:
                raise BadRecord(f"malformed store header: {exc!r}") from exc
            server = cls(ctx, pks, store_path=None)
            last = {}  # per id, in first-seen order: its last frame's (tag, data)
            for tag, data in frames:  # a superseded frame is parsed, never decoded
                frame = _frame_obj(data)
                if frame.get("kind") != "record":
                    raise BadRecord(f"unexpected frame kind {frame.get('kind')!r}")
                last[_record_id(frame.get("record"))] = tag, data

        def decode(tag: bytes, data: bytes) -> DataRecord:
            rec = _decoded(key, tag, data, lambda f: record_from_wire(ctx, f["record"]))
            server._validate(rec)
            return rec

        decoded = _forked(ctx, list(last.values()), lambda shard: [decode(*f) for f in shard])
        server._records = dict(zip(last, decoded))
        server._key, server._store = key, path.open("ab")
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
        rec = replace(rec, abe=held(self.ctx, rec.abe), recovery=held(self.ctx, rec.recovery))
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
        tag = hmac.digest(self._key, data, "sha256") if self._key else bytes(TAG_BYTES)
        self._store.write(len(data).to_bytes(4, "big") + tag + data)
        self._store.flush()

    # -- search ------------------------------------------------------------------

    def search(self, req: SearchRequest) -> SearchResponse:
        """Check the declared subset's records, a shard per usable core."""
        if req.blinded is None or req.blinded.element.is_identity:
            raise InvalidBlinding("search request carries no blinded identity")
        ctx, subset = self.ctx, self.pks.check_subset(req.token.subset)
        # both kept across requests, and prepared before the fork so every child inherits them
        product = subset_product(ctx, self.pks, subset)
        token = SearchToken(ctx.kept(ctx.element_to_bytes(req.token.token)), subset)
        req = replace(req, token=token)
        with self._lock:
            snapshot = list(self._records.values())
        candidates = [rec for rec in snapshot if rec.set_index in subset]

        checked = _forked(ctx, candidates, lambda shard: self._check(shard, req, product))
        with self._lock:  # each term and policy a shard prepared, for a layer still current
            for rec, (out, term, policy) in zip(candidates, checked):
                current = self._records[rec.record_id]
                if term is not None and current.sse is rec.sse:
                    self._terms.setdefault(rec.sse.kw_modifier, {})[subset] = term
                if out >= _DENIED:  # policy-checked: its entry moves to the most recent
                    entry = self._policies.pop(rec.record_id, None)
                    if policy is not None and current.abe is rec.abe:
                        entry = rec.abe, policy
                    if entry is not None:
                        self._policies[rec.record_id] = entry
            while len(self._policies) > KEPT_POINTS:
                del self._policies[next(iter(self._policies))]
        outcomes = [out for out, *_ in checked]

        matches = [  # each policy in wire order, as a reopened server holds it
            MatchedRecord(rec.record_id, rec.payload, rec.recovery, tuple(rec.abe.wire["attrs"]))
            for rec, out in zip(candidates, outcomes) if out == _MATCH
        ]
        incomplete = [rec.record_id for rec, out in zip(candidates, outcomes) if out == _INCOMPLETE]
        stats = SearchStats(
            candidates=len(candidates),
            sse_matched=sum(out != _MISS for out in outcomes),
            abe_verified=sum(out >= _DENIED for out in outcomes),
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

    def _check(
        self, candidates: list[DataRecord], req: SearchRequest, product: GroupElement
    ) -> list[tuple[int, GtElement | None, PreparedPolicy | None]]:
        """(outcome, the subset term and the prepared policy if computed here, else
        None) per candidate."""
        covered, checked = {c.attribute_id for c in req.credentials}, []
        for rec in candidates:
            kept = self._terms.get(rec.sse.kw_modifier, {}).get(req.token.subset)
            term = subset_term(self.ctx, rec.sse, product) if kept is None else kept
            fresh = None
            if not sse_match_any(self.ctx, rec.sse, req.token, term):
                outcome = _MISS
            elif not covered.issuperset(rec.abe.attrs):  # IncompletePolicy, before any decode
                outcome = _INCOMPLETE
            else:
                layer, policy = self._policies.get(rec.record_id, (None, None))
                if layer is not rec.abe:  # not kept for this layer 2 on this server; held
                    # without elements, it is a frame this server tagged: no order check
                    elements = rec.abe.elements or _layer_from_wire(
                        self.ctx, rec.abe.wire, AccessPolicyElements, trusted=True
                    )
                    policy = fresh = prepare_policy(self.ctx, elements)
                ok = abe_verify(self.ctx, policy, req.credentials, req.blinded)
                outcome = _MATCH if ok else _DENIED
            checked.append((outcome, None if kept is not None else term, fresh))
        return checked

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
            product = subset_product(self.ctx, self.pks, subset)  # kept, as for a search
            rhs = self.ctx.pair(product, rec.sse.kw_modifier) * rec.sse.update_keyword
            if lhs != rhs:
                logger.info("update rejected for record %s", rec.record_id)
                raise UpdateRejected("re-encryption token failed verification")
            updated = replace(
                rec,
                sse=req.new_sse or rec.sse,
                abe=held(self.ctx, req.new_abe) if req.new_abe else rec.abe,
                recovery=held(self.ctx, req.new_recovery) if req.new_recovery else rec.recovery,
                payload=req.new_payload or rec.payload,
            )
            self._validate(updated)
            self._records[rec.record_id] = updated
            if updated.abe is not rec.abe:
                self._policies.pop(rec.record_id, None)  # its prepared lines, with the layer
            self._persist(updated)
        logger.info("updated record %s", rec.record_id)
        return rec.record_id


def _forked(ctx: PairingContext, items: list, work: Callable[[list], list]) -> list:
    """``work(items)`` over a shard per usable core, dealt round-robin: a query's
    hits are often adjacent, and a tagged frame's decode work is nearly uniform.
    A forked child's shard is redone here if it fails or sends a cut or wrong-length result."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = max(1, min(cores, len(items))) if forkable else 1
    shards = [items[k::n] for k in range(n)]
    children: dict[int, tuple[int, BinaryIO]] = {}
    done: dict[int, list] = {}
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # an unforked shard is redone below
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                try:
                    with os.fdopen(w, "wb") as pipe:
                        pickler = pickle.Pickler(pipe, pickle.HIGHEST_PROTOCOL)
                        pickler.persistent_id = lambda obj: "ctx" if obj is ctx else None
                        pickler.dump(work(shards[k]))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[k] = pid, os.fdopen(r, "rb")
        done[0] = work(shards[0])
        for k in list(children):
            with children[k][1] as pipe:  # unpickled as it arrives, never held as bytes
                unpickler = pickle.Unpickler(pipe)
                unpickler.persistent_load = lambda _: ctx
                with suppress(EOFError, pickle.UnpicklingError):  # cut short: redone below
                    done[k] = unpickler.load()
            if os.waitpid(children.pop(k)[0], 0)[1] != 0:
                done.pop(k, None)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    parts = [done[k] if len(done.get(k, ())) == len(s) else work(s) for k, s in enumerate(shards)]
    return [parts[i % n][i // n] for i in range(len(items))]


def _decoded(key: bytes | None, tag: bytes, data: bytes, decode: Callable[[dict], Any]) -> Any:
    """``decode`` of frame ``data``, with no order check only if ``tag`` verifies."""
    ok = key is not None and hmac.compare_digest(tag, hmac.digest(key, data, "sha256"))
    return _trusted_decode(ok, decode, _frame_obj(data))


def _read_frames(path: Path):
    """(tag, payload) of each frame, unparsed (see ``_frame_obj``)."""
    with path.open("rb") as fh:
        while head := fh.read(4):
            size = int.from_bytes(head, "big")
            tag, data = fh.read(TAG_BYTES), fh.read(size)
            if len(head) != 4 or len(tag) != TAG_BYTES or len(data) != size:
                raise BadRecord("truncated store frame")
            yield tag, data


def _frame_obj(data: bytes) -> dict:
    frame = wire.parse_json(data, "store frame")
    if not isinstance(frame, dict):
        raise BadRecord("store frame is not a JSON object")
    return frame
