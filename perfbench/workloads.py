"""The three benchmark workloads, their input generators and ground truth.

Every workload runs on the ``curve`` backend and builds all of its inputs
from the seed, so the same seed gives the same corpus, requests and updates.
The generator keeps the ground truth (owner, keywords, data set and policy
of every record, and the planned outcome of every update), and each
operation's output is checked against it exactly.

A workload is driven in cycles.  ``cycle(i)`` yields the operations of cycle
``i`` as callables; each returns an :class:`OpResult`.  Inputs depend only
on the seed and the cycle index, so a fixed number of cycles always performs
the same protocol operations.

All protocol calls go through module and class attributes (``wire.x``,
``server_mod.x``, ``Owner.publish`` ...) so that the tracer's wrappers see
them.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator

from triseal import sse, wire
from triseal import server as server_mod
from triseal.actors import Authority, Owner, User
from triseal.errors import UpdateRejected
from triseal.pairing import make_context

N_SETS = 3
ALL_SETS = tuple(range(1, N_SETS + 1))
ATTRS = ("DOCTOR", "NURSE", "RESEARCHER")


@dataclass
class OpResult:
    kind: str
    ms: float = 0.0
    ok: bool = True
    units: int = 1  # search: candidates examined; request: matches decrypted
    part_ms: float = 0.0  # request: time spent in decrypt_matches
    stats: dict = field(default_factory=dict)  # SearchStats of a search response
    req: int = 0  # operation id shared by the operation's trace spans


def _label(rng: random.Random, prefix: str) -> str:
    return f"{prefix}-{rng.getrandbits(64):016x}"


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _subsets_containing(set_index: int) -> list[tuple[int, ...]]:
    return [
        s for k in ALL_SETS for s in combinations(ALL_SETS, k) if set_index in s
    ]


def serve_search(server: server_mod.EscrowServer, raw: bytes) -> bytes:
    """The server's side of one search: request bytes in, response bytes out."""
    ctx = server.ctx
    request = server_mod.search_request_from_wire(ctx, json.loads(raw))
    response = server.search(request)
    return wire.canonical_json(server_mod.search_response_to_wire(ctx, response))


@dataclass
class Row:
    """Ground truth for one stored record."""

    owner: int
    keywords: tuple[str, ...]
    set_index: int
    policy: tuple[str, ...]
    plaintext: bytes


class Workload:
    """Context, actors, corpus and operation schedule of one workload."""

    name = ""
    op_kind = ""  # the operation whose latency is op_ms_p50 / op_ms_tail
    trace_cycles = 1  # cycles per phase of a traced run

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.keywords: list[str] = []
        self.user: User | None = None

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.seed, self.name, *tag)))

    def build_world(self, n_owners: int, attrs=ATTRS, store_path: Path | None = None) -> None:
        rng = self.rng("world")
        self.ctx = make_context("curve")
        self.pks = sse.server_setup(self.ctx, N_SETS, rng)
        self.authorities = {a: Authority.create(self.ctx, a, rng) for a in attrs}
        self.publics = {a: auth.public() for a, auth in self.authorities.items()}
        self.owners = [
            Owner.create(self.ctx, _label(rng, "owner"), self.rng("owner", i))
            for i in range(n_owners)
        ]
        self.server = server_mod.EscrowServer(self.ctx, self.pks, store_path)
        self.rows: dict[str, Row] = {}

    def new_keyword(self, rng: random.Random) -> str:
        kw = _label(rng, "kw")
        self.keywords.append(kw)
        return kw

    def publish(self, owner: int, keywords, policy, set_index: int, plaintext: bytes) -> str:
        record = self.owners[owner].publish(
            plaintext, list(keywords), list(policy), set_index, self.publics
        )
        record_id = self.server.store_record(record)
        self.rows[record_id] = Row(owner, tuple(keywords), set_index, tuple(policy), plaintext)
        return record_id

    def expected_matches(self, owner: int, keyword: str, subset) -> list[str]:
        return sorted(
            rid
            for rid, row in self.rows.items()
            if row.owner == owner and keyword in row.keywords and row.set_index in subset
        )

    def candidates(self, subset) -> int:
        return sum(1 for row in self.rows.values() if row.set_index in subset)

    def secrets(self) -> list[str]:
        """Every generated name and retained secret the outputs must not show."""
        values: list[str] = list(self.keywords)
        if self.user is not None:
            values.append(self.user.gid)
        for owner in self.owners:
            values += [owner.owner_id, owner.update_id]
            values += _scalar_forms(owner.sse_key.sk) + _scalar_forms(owner.recovery_key.sk_dtk)
        for auth in self.authorities.values():
            values += _scalar_forms(auth.kp.ask) + _scalar_forms(auth.kp_dtk.ask_dtk)
        return values

    def close(self) -> None:
        self.server.close()

    # -- per-workload hooks -------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> Iterator[Callable[[], OpResult]]:
        raise NotImplementedError

    def finish(self) -> list[OpResult]:
        """Measurements made once after the last cycle (traced in a traced run)."""
        return []

    def verify(self, final: list[OpResult]) -> list[OpResult]:
        """Untimed checks after ``finish``, made with the tracer removed.  May
        mark results of ``final`` failed; returns the checks' own results."""
        return []

    def pair_units(self, res: OpResult) -> int:
        """Units that pairing.pair.per_op divides by: one per operation."""
        return 1

    def record_ms(self, results: list[OpResult], final: list[OpResult]) -> float:
        raise NotImplementedError

    def report(self, results: list[OpResult], final: list[OpResult]) -> dict:
        """The workload's metrics under their descriptive names."""
        raise NotImplementedError


def _scalar_forms(value: int) -> list[str]:
    return [str(value), format(value, "x"), format(value, "X")]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class SearchScan(Workload):
    """Many candidates per request, mostly keyword misses.

    Each data set holds ``per_set`` records.  Query ``j`` (an owner and a
    keyword) has exactly one target record in every set, and the targets of
    one query carry 1-, 2- and 3-attribute policies, so every full-scope
    request does the same work.  The other records carry fresh keywords or
    other owners' query keywords, which must not match.  Requests declare
    1, 2 or 3 sets; full-scope requests are the common case.
    """

    name = "search-scan"
    op_kind = "search"
    trace_cycles = 1
    # subset size of each request in a cycle; with 5 in 7 requests covering
    # all sets, the median and tail fall among full-scope requests at any
    # sample count, never on the boundary between request sizes
    scopes = (3, 1, 3, 3, 2, 3, 3)
    per_set = 6

    def setup(self) -> None:
        rng = self.rng("corpus")
        self.build_world(n_owners=3)
        self.user = User(self.ctx, _label(rng, "gid"), self.rng("user"))
        self.queries = [
            (j % len(self.owners), self.new_keyword(rng)) for j in range(self.per_set)
        ]
        for j, (owner, keyword) in enumerate(self.queries):
            sizes = [1, 2, 3]
            rng.shuffle(sizes)
            decoys = [kw for o, kw in self.queries if o != owner]
            for set_index, size in zip(ALL_SETS, sizes):
                extra = rng.randint(0, 3)
                n_decoys = rng.randint(0, min(extra, len(decoys)))
                keywords = [keyword, *rng.sample(decoys, n_decoys)]
                keywords += [self.new_keyword(rng) for _ in range(extra - n_decoys)]
                rng.shuffle(keywords)
                policy = rng.sample(ATTRS, size)
                plaintext = rng.randbytes(rng.randint(256, 2048))
                self.publish(owner, keywords, policy, set_index, plaintext)

    def cycle(self, index: int):
        for k, scope in enumerate(self.scopes):
            rng = self.rng("request", index, k)
            query = rng.randrange(len(self.queries))
            subset = tuple(sorted(rng.sample(ALL_SETS, scope)))
            yield lambda q=query, s=subset: self._search(q, s)

    def _search(self, query: int, subset: tuple[int, ...]) -> OpResult:
        owner, keyword = self.queries[query]
        ctx, user = self.ctx, self.user
        session = user.new_session()
        for authority in self.authorities.values():
            user.collect(session, authority)
        consent = self.owners[owner].consent(keyword, subset, self.pks)
        request = user.build_search_request(session, consent)
        raw = wire.canonical_json(server_mod.search_request_to_wire(ctx, request))
        t0 = time.perf_counter()
        out = serve_search(self.server, raw)
        ms = _ms_since(t0)
        # the client needs only the ids and counters to check the answer
        obj = json.loads(out)
        got = sorted(m["record_id"] for m in obj["matches"])
        n = self.candidates(subset)
        ok = (
            got == self.expected_matches(owner, keyword, subset)
            and obj["incomplete_policy"] == []
            and obj["stats"]["candidates"] == n
        )
        return OpResult("search", ms, ok, units=n, stats=obj["stats"])

    def pair_units(self, res: OpResult) -> int:
        return res.units

    def record_ms(self, results, final) -> float:
        return _p50([r.ms / r.units for r in results if r.kind == "search"])

    def report(self, results, final) -> dict:
        searches = [r for r in results if r.kind == "search"]
        ms = [r.ms for r in searches]
        scanned = sum(r.units for r in searches)
        return {
            "search_ms_p50": (_p50(ms), "ms"),
            "search_ms_tail": (tail(ms)[1], "ms"),
            "scan_records_per_s": (scanned / max(1e-9, sum(ms) / 1000.0), "1/s"),
        }


class RequestFlow(Workload):
    """The whole user request: session, credentials, search, local decrypt.

    Each data set holds four records.  Three belong to the set's main owner
    and carry the set's query keyword: two with policies the user can meet,
    one that also needs AUDITOR, which no user holds (IncompletePolicy).  The
    fourth belongs to the other owner and carries the same keyword, so it
    must not match.  Consents are granted once during set-up.
    """

    name = "request-flow"
    op_kind = "request"
    trace_cycles = 2
    held = ("DOCTOR", "NURSE")

    def setup(self) -> None:
        rng = self.rng("corpus")
        self.build_world(n_owners=2, attrs=ATTRS + ("AUDITOR",))
        self.user = User(self.ctx, _label(rng, "gid"), self.rng("user"))
        self.queries = {}
        for set_index in ALL_SETS:
            main, other = (set_index - 1) % 2, set_index % 2
            keyword = self.new_keyword(rng)
            policies = [
                (main, rng.sample(self.held, 1)),
                (main, rng.sample(self.held, 2)),
                (main, [rng.choice(self.held), "AUDITOR"]),
                (other, rng.sample(self.held, rng.randint(1, 2))),
            ]
            rng.shuffle(policies)
            for owner, policy in policies:
                keywords = [keyword] + [self.new_keyword(rng) for _ in range(rng.randint(0, 2))]
                rng.shuffle(keywords)
                plaintext = rng.randbytes(rng.randint(256, 4096))
                self.publish(owner, keywords, policy, set_index, plaintext)
            consent = self.owners[main].consent(keyword, [set_index], self.pks)
            self.queries[set_index] = (main, keyword, consent)

    def cycle(self, index: int):
        for k, set_index in enumerate(ALL_SETS):
            # every other request also collects from a third authority
            n_authorities = 2 + (index * len(ALL_SETS) + k) % 2
            yield lambda s=set_index, n=n_authorities: self._request(s, n)

    def _request(self, set_index: int, n_authorities: int) -> OpResult:
        owner, keyword, consent = self.queries[set_index]
        ctx, user = self.ctx, self.user
        t0 = time.perf_counter()
        session = user.new_session()
        for attr in ATTRS[:n_authorities]:
            user.collect(session, self.authorities[attr])
        request = user.build_search_request(session, consent)
        raw = wire.canonical_json(server_mod.search_request_to_wire(ctx, request))
        out = serve_search(self.server, raw)
        response = server_mod.search_response_from_wire(ctx, json.loads(out))
        t1 = time.perf_counter()
        plain = user.decrypt_matches(session, consent, response, self.pks)
        t2 = time.perf_counter()
        keyword_hits = self.expected_matches(owner, keyword, (set_index,))
        incomplete = [rid for rid in keyword_hits if "AUDITOR" in self.rows[rid].policy]
        granted = [rid for rid in keyword_hits if rid not in incomplete]
        ok = (
            sorted(m.record_id for m in response.matches) == granted
            and sorted(response.incomplete_policy) == incomplete
            and dict(plain) == {rid: self.rows[rid].plaintext for rid in granted}
        )
        return OpResult(
            "request", (t2 - t0) * 1000.0, ok, units=len(plain),
            part_ms=(t2 - t1) * 1000.0, stats=asdict(response.stats),
        )

    def record_ms(self, results, final) -> float:
        return _p50([r.part_ms / r.units for r in results if r.kind == "request" and r.units])

    def report(self, results, final) -> dict:
        ms = [r.ms for r in results if r.kind == "request"]
        return {
            "request_ms_p50": (_p50(ms), "ms"),
            "request_ms_tail": (tail(ms)[1], "ms"),
            "decrypt_ms_per_match": (self.record_ms(results, final), "ms"),
        }


class PublishUpdate(Workload):
    """The owner's write side on a file-backed store.

    Each cycle publishes two records (two keywords, two attributes, payloads
    of 256 B to 64 KB, spread evenly on a log scale) and sends four updates:
    a keyword rotation and a policy-plus-payload rotation, which must be
    applied, and a forged update whose ``rtk`` is a captured search token
    and an update declaring another subset than its token was made for,
    which must be rejected.  ``finish`` reopens the store log; ``verify``
    checks the reopened records against the server's and runs one user
    request per record, which must find it by a current keyword and decrypt
    it to its current plaintext.
    """

    name = "publish-update"
    op_kind = "publish"
    trace_cycles = 2
    corpus = 4  # records published during set-up
    open_repeats = 2

    def setup(self) -> None:
        rng = self.rng("corpus")
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.work_dir / f"store-{id(self):x}.log"
        self.build_world(n_owners=2, store_path=self.store_path)
        self.user = User(self.ctx, _label(rng, "gid"), self.rng("user"))
        for i in range(self.corpus):
            keywords = [self.new_keyword(rng) for _ in range(rng.randint(1, 4))]
            policy = rng.sample(ATTRS, rng.randint(1, 3))
            self.publish(i % 2, keywords, policy, rng.choice(ALL_SETS), rng.randbytes(256))

    def close(self) -> None:
        super().close()
        self.store_path.unlink(missing_ok=True)

    def cycle(self, index: int):
        rng = self.rng("cycle", index)
        ids = []

        def publish(owner):
            keywords = [self.new_keyword(rng) for _ in range(2)]
            policy = rng.sample(ATTRS, 2)
            set_index = rng.choice(ALL_SETS)
            plaintext = rng.randbytes(int(256 * 256 ** rng.random()))
            t0 = time.perf_counter()
            rid = self.publish(owner, keywords, policy, set_index, plaintext)
            ms = _ms_since(t0)
            ids.append(rid)
            stored = self.server.fetch(rid)
            ok = (
                stored.set_index == set_index
                and stored.abe.attrs == tuple(policy)
                and len(stored.sse.tagged_keywords) == len(keywords) + 1
            )
            return OpResult("publish", ms, ok)

        yield lambda: publish(index % 2)
        yield lambda: publish((index + 1) % 2)
        yield lambda: self._update("update-keywords", ids[0], rng)
        yield lambda: self._update("update-policy", ids[1], rng)
        yield lambda: self._update("update-forged", ids[0], rng)
        yield lambda: self._update("update-subset", ids[1], rng)

    def _update(self, kind: str, record_id: str, rng: random.Random) -> OpResult:
        ctx, row = self.ctx, self.rows[record_id]
        owner = self.owners[row.owner]
        subset = rng.choice(_subsets_containing(row.set_index))
        before = self.server.fetch(record_id)
        new_keywords = [self.new_keyword(rng) for _ in range(2)]
        new_policy = rng.sample(ATTRS, 2)
        new_plaintext = rng.randbytes(len(row.plaintext))
        t0 = time.perf_counter()
        if kind == "update-policy":
            request = owner.update_request(
                record_id, subset, self.pks, policy=new_policy,
                plaintext=new_plaintext, authorities=self.publics,
            )
        else:
            request = owner.update_request(record_id, subset, self.pks, keywords=new_keywords)
        if kind == "update-forged":
            captured = owner.consent(row.keywords[0], subset, self.pks).search_token
            request = replace(request, rtk=captured.token, subset=captured.subset)
        elif kind == "update-subset":
            other = [s for s in _subsets_containing(row.set_index) if s != subset]
            request = replace(request, subset=rng.choice(other))
        raw = wire.canonical_json(server_mod.update_request_to_wire(ctx, request))
        try:
            self.server.reencrypt(server_mod.update_request_from_wire(ctx, json.loads(raw)))
            applied = True
        except UpdateRejected:
            applied = False
        ms = _ms_since(t0)
        # compare wire forms (elements are not normalised, so == can differ
        # for equal points); record_to_wire calls nothing the tracer wraps,
        # while record_bytes would add to wire.canonical_json
        after = server_mod.record_to_wire(ctx, self.server.fetch(record_id))
        if kind in ("update-forged", "update-subset"):
            ok = not applied and after == server_mod.record_to_wire(ctx, before)
        else:
            expected = replace(
                before,
                sse=request.new_sse or before.sse,
                abe=request.new_abe or before.abe,
                recovery=request.new_recovery or before.recovery,
                payload=request.new_payload or before.payload,
            )
            ok = applied and after == server_mod.record_to_wire(ctx, expected)
            if ok and kind == "update-keywords":
                self.rows[record_id] = replace(row, keywords=tuple(new_keywords))
            elif ok:
                self.rows[record_id] = replace(
                    row, policy=tuple(new_policy), plaintext=new_plaintext
                )
        return OpResult(kind, ms, ok)

    def finish(self) -> list[OpResult]:
        """Reopen the store log ``open_repeats`` times; ``verify`` checks them."""
        results, self.reopened = [], []
        for _ in range(self.open_repeats):
            t0 = time.perf_counter()
            reopened = server_mod.EscrowServer.open(self.store_path)
            ms = _ms_since(t0)
            reopened.close()  # records stay readable in memory
            self.reopened.append(reopened)
            results.append(OpResult("open", ms, units=reopened.record_count))
        self.store_bytes = self.store_path.stat().st_size
        return results

    def verify(self, final: list[OpResult]) -> list[OpResult]:
        ctx = self.ctx
        expected = {
            rid: server_mod.record_bytes(ctx, self.server.fetch(rid))
            for rid in self.server.record_ids()
        }
        for res, reopened in zip(final, self.reopened):
            got = {
                rid: server_mod.record_bytes(reopened.ctx, reopened.fetch(rid))
                for rid in reopened.record_ids()
            }
            res.ok = got == expected
        checks = []
        for rid in sorted(self.rows):
            try:
                checks.append(self._read_back(self.reopened[-1], rid))
            except Exception:  # a failed check; keep checking the others
                traceback.print_exc()
                checks.append(OpResult("read-back", ok=False))
        return checks

    def _read_back(self, reopened: server_mod.EscrowServer, record_id: str) -> OpResult:
        """One user request for the record's first current keyword, served by
        a server holding only the reopened record, so it costs one candidate."""
        row, ctx, user = self.rows[record_id], self.ctx, self.user
        single = server_mod.EscrowServer(reopened.ctx, reopened.pks)
        single.store_record(reopened.fetch(record_id))
        session = user.new_session()
        for attr in row.policy:
            user.collect(session, self.authorities[attr])
        consent = self.owners[row.owner].consent(row.keywords[0], [row.set_index], self.pks)
        request = user.build_search_request(session, consent)
        raw = wire.canonical_json(server_mod.search_request_to_wire(ctx, request))
        out = serve_search(single, raw)
        response = server_mod.search_response_from_wire(ctx, json.loads(out))
        plain = user.decrypt_matches(session, consent, response, self.pks)
        return OpResult("read-back", ok=plain == [(record_id, row.plaintext)])

    def record_ms(self, results, final) -> float:
        return _p50([r.ms / r.units for r in final if r.kind == "open"])

    def report(self, results, final) -> dict:
        publish_ms = [r.ms for r in results if r.kind == "publish"]
        update_ms = [r.ms for r in results if r.kind.startswith("update-")]
        return {
            "publish_ms_p50": (_p50(publish_ms), "ms"),
            "publish_ms_tail": (tail(publish_ms)[1], "ms"),
            "update_ms_p50": (_p50(update_ms), "ms"),
            "open_ms_per_record": (self.record_ms(results, final), "ms"),
            "store_bytes_per_record": (
                self.store_bytes / max(1, self.server.record_count), "B"
            ),
        }


WORKLOADS = {w.name: w for w in (SearchScan, RequestFlow, PublishUpdate)}


def measure(workload: Workload, tracer=None, *, deadline=None, first=0, cycles=None):
    """Run operations cycle by cycle until ``deadline`` or for ``cycles``."""
    results = []
    index = first
    while cycles is None or index < first + cycles:
        for op in workload.cycle(index):
            if deadline is not None and time.perf_counter() >= deadline:
                return results
            if tracer is not None:
                tracer.req += 1
            try:
                res = op()
            except Exception:  # an unexpected error is a failed operation; keep going
                traceback.print_exc()
                res = OpResult("error", ok=False)
            res.req = tracer.req if tracer is not None else 0
            results.append(res)
        index += 1
    return results


def tail(values: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above it
    (nearest rank), as (percentile, value).  With too few samples for any
    such percentile it is the maximum, reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return 100, ordered[-1] if ordered else 0.0
