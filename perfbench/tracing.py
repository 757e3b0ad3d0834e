"""In-memory spans around triseal's public functions, recorded from outside.

While a :class:`Tracer` is installed, each function or method listed in
``TARGETS`` is replaced by a wrapper that records a span (name, start, end,
parent span, operation id); the originals are restored on exit.  Nothing in
``src/`` changes.  Spans hold names, times, ids and the booleans the server
already learns, never arguments or return values.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from triseal import abe, payload, recovery, sse, wire
from triseal import server as server_mod
from triseal.actors import Owner, User
from triseal.pairing import PairingContext

EscrowServer = server_mod.EscrowServer

# (object holding the attribute, attribute, span name).  The pairing methods
# are patched on the base class, so contexts built by EscrowServer.open are
# covered too.  server.py imports sse_match_any and abe_verify by name, so
# those are patched where the server looks them up.
TARGETS = (
    (PairingContext, "pair", "pairing.pair"),
    (PairingContext, "hash_to_group", "pairing.hash_to_group"),
    (PairingContext, "group_exp", "pairing.group_exp"),
    (PairingContext, "gt_exp", "pairing.gt_exp"),
    (PairingContext, "element_from_bytes", "pairing.element_from_bytes"),
    (PairingContext, "gt_from_bytes", "pairing.gt_from_bytes"),
    (PairingContext, "gt_generator", "pairing.gt_generator"),
    (server_mod, "sse_match_any", "sse.sse_match_any"),
    (sse, "sse_encrypt", "sse.sse_encrypt"),
    (sse, "consent_search_token", "sse.consent_search_token"),
    (server_mod, "abe_verify", "abe.abe_verify"),
    (abe, "abe_policy_encrypt", "abe.abe_policy_encrypt"),
    (abe, "issue_credential", "abe.issue_credential"),
    (abe, "blind_identity", "abe.blind_identity"),
    (recovery, "recover_key", "recovery.recover_key"),
    (recovery, "wrap_key", "recovery.wrap_key"),
    (recovery, "issue_decrypt_token", "recovery.issue_decrypt_token"),
    (payload, "encrypt_payload", "payload.encrypt_payload"),
    (payload, "decrypt_payload", "payload.decrypt_payload"),
    (wire, "canonical_json", "wire.canonical_json"),
    (server_mod, "record_from_wire", "server.record_from_wire"),
    (server_mod, "search_request_to_wire", "server.search_request_to_wire"),
    (server_mod, "search_request_from_wire", "server.search_request_from_wire"),
    (server_mod, "search_response_to_wire", "server.search_response_to_wire"),
    (server_mod, "search_response_from_wire", "server.search_response_from_wire"),
    (server_mod, "update_request_to_wire", "server.update_request_to_wire"),
    (server_mod, "update_request_from_wire", "server.update_request_from_wire"),
    (EscrowServer, "search", "server.search"),
    (EscrowServer, "store_record", "server.store_record"),
    (EscrowServer, "reencrypt", "server.reencrypt"),
    (EscrowServer, "open", "server.open"),
    (Owner, "publish", "actors.publish"),
    (Owner, "update_request", "actors.update_request"),
    (User, "collect", "actors.collect"),
    (User, "decrypt_matches", "actors.decrypt_matches"),
)

# spans whose boolean result is kept, for the useful-outcome ratios
OUTCOME_SPANS = frozenset({"sse.sse_match_any", "abe.abe_verify"})

NAME, START, END, PARENT, REQ, OUTCOME = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, outcome]
        self.req = 0  # id of the operation now running
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in OUTCOME_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.req, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                span[OUTCOME] = bool(result)
            return result

        return traced

    def _replacement(self, raw, name):
        if isinstance(raw, property):
            return property(self._wrap(name, raw.fget))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for holder, attr, name in TARGETS:
                raw = vars(holder)[attr]
                saved.append((holder, attr, raw))
                setattr(holder, attr, self._replacement(raw, name))
            yield self
        finally:
            for holder, attr, raw in reversed(saved):
                setattr(holder, attr, raw)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, true outcomes,
        and pairing calls per operation id."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        true: Counter = Counter()
        pairs_by_req: Counter = Counter()
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child[i]
            true[name] += span[OUTCOME] is True
            if name == "pairing.pair":
                pairs_by_req[span[REQ]] += 1
        return {
            "calls": calls,
            "total": total,
            "self": own,
            "true": true,
            "pairs_by_req": pairs_by_req,
        }

    def write(self, path: Path) -> None:
        """Write every span as JSON, times in ms from the tracer's creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._origin
        spans = [
            {
                "id": i,
                "parent": s[PARENT],
                "req": s[REQ],
                "name": s[NAME],
                "start_ms": round((s[START] - origin) * 1000.0, 4),
                "end_ms": round((s[END] - origin) * 1000.0, 4),
                "outcome": s[OUTCOME],
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n")
