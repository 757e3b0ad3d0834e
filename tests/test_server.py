"""Escrow server: storage, search pipeline, re-encryption, hygiene."""

import functools
import hmac
import itertools
import json
import logging
import os
import random
import stat
import sys
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cores import cores
from curve_points import malformed_encodings, small_order_points
from json_mutations import JSON as _JSON, key_paths as _key_paths, parent as _parent
from triseal import abe, sse, wire
from triseal import server as server_mod
from triseal.actors import Authority, Owner, User
from triseal.errors import BadRecord, InvalidBlinding, InvalidElement, ProtocolError, UpdateRejected
from triseal.pairing import GroupElement, OracleContext, PairingContext, Side
from triseal.pairing import curve
from triseal.pairing.base import KEPT_POINTS, _trusted_decode
from triseal.recovery import DecryptionTokenSet, KeyRecoveryElements
from triseal.recovery import issue_decrypt_token, recover_key
from triseal.server import (
    DataRecord,
    EscrowServer,
    _read_frames,
    UpdateRequest,
    record_bytes,
    record_from_wire,
    record_to_wire,
    search_request_from_wire,
    search_request_to_wire,
    search_response_from_wire,
    search_response_to_wire,
    update_request_from_wire,
    update_request_to_wire,
)


class World:
    """A small in-memory deployment reused across server tests."""

    def __init__(self, seed=60, n_sets=3, attrs=("A1", "A2"), store_path=None, ctx=None):
        self.ctx = ctx or OracleContext()
        self.rng = random.Random(seed)
        self.pks = sse.server_setup(self.ctx, n_sets, self.rng)
        self.server = EscrowServer(self.ctx, self.pks, store_path=store_path)
        self.authorities = {
            a: Authority.create(self.ctx, a, random.Random(seed + i + 1))
            for i, a in enumerate(attrs)
        }
        self.publics = {a: auth.public() for a, auth in self.authorities.items()}
        self.owner = Owner.create(self.ctx, "owner-1", random.Random(seed + 50))
        self.user = User(self.ctx, "user-gid", random.Random(seed + 70))

    def publish(self, text, keywords, policy, set_index):
        rec = self.owner.publish(text, keywords, policy, set_index, self.publics)
        return self.server.store_record(rec)

    def request(self, keyword, subset, *, attrs=None):
        session = self.user.new_session()
        for a in attrs if attrs is not None else self.authorities:
            self.user.collect(session, self.authorities[a])
        consent = self.owner.consent(keyword, subset, self.pks)
        return session, consent, self.user.build_search_request(session, consent)


def test_store_fetch_round_trip():
    w = World()
    rid = w.publish(b"payload-a", ["bp"], ["A1"], 1)
    rec = w.server.fetch(rid)
    assert rec.record_id == rid
    assert record_bytes(w.ctx, w.server.fetch(rid)) == record_bytes(w.ctx, rec)
    with pytest.raises(BadRecord):
        w.server.fetch("missing")


def test_store_assigns_distinct_ids_for_fresh_nonces():
    w = World()
    r1 = w.owner.publish(b"same", ["bp"], ["A1"], 1, w.publics)
    r2 = w.owner.publish(b"same", ["bp"], ["A1"], 1, w.publics)
    id1, id2 = w.server.store_record(r1), w.server.store_record(r2)
    assert id1 != id2
    rec1, rec2 = w.server.fetch(id1), w.server.fetch(id2)
    shared = (
        {rec1.sse.stk_transferor, rec1.sse.kw_modifier}
        & {rec2.sse.stk_transferor, rec2.sse.kw_modifier}
    )
    assert not shared
    assert set(rec1.sse.tagged_keywords).isdisjoint(rec2.sse.tagged_keywords)


def test_store_rejects_bad_set_index():
    w = World(n_sets=2)
    rec = w.owner.publish(b"x", ["bp"], ["A1"], 1, w.publics)
    for bad_index in (0, 3):
        with pytest.raises(BadRecord):
            w.server.store_record(replace(rec, set_index=bad_index))


def test_store_rejects_mismatched_layers():
    w = World()
    a = w.owner.publish(b"x", ["bp"], ["A1"], 1, w.publics)
    b = w.owner.publish(b"y", ["bp"], ["A1", "A2"], 1, w.publics)
    with pytest.raises(BadRecord):
        w.server.store_record(replace(a, abe=b.abe))  # recovery policy disagrees


def test_store_rejects_a_record_without_tags_or_policy():
    w = World()
    rec = w.owner.publish(b"x", ["bp"], ["A1"], 1, w.publics)
    untagged = replace(rec, sse=replace(rec.sse, tagged_keywords=()))
    unguarded = replace(rec, abe=replace(rec.abe, attrs=(), ac_transferors=(), plcy_modifiers=()))
    for bad in (untagged, unguarded):
        with pytest.raises(BadRecord):
            w.server.store_record(bad)
    assert w.server.record_count == 0


def test_store_duplicate_id_conflict():
    w = World()
    rid = w.publish(b"x", ["bp"], ["A1"], 1)
    stored = w.server.fetch(rid)
    assert w.server.store_record(stored) == rid  # idempotent re-store
    other = w.owner.publish(b"y", ["hr"], ["A1"], 1, w.publics)
    with pytest.raises(BadRecord):
        w.server.store_record(replace(other, record_id=rid))


def test_search_returns_exactly_the_matching_record():
    w = World()
    rid = w.publish(b"match-me", ["bp"], ["A1", "A2"], 2)
    w.publish(b"other-keyword", ["hr"], ["A1", "A2"], 2)
    w.publish(b"other-set", ["bp"], ["A1", "A2"], 3)
    _, _, req = w.request("bp", [1, 2])
    resp = w.server.search(req)
    assert [m.record_id for m in resp.matches] == [rid]
    assert resp.subset == (1, 2)
    assert resp.stats.candidates == 2  # set-3 record filtered out up front
    assert resp.stats.sse_matched == 1
    assert resp.stats.abe_verified == 1


def test_search_subset_filter_skips_all_work():
    w = World()
    w.publish(b"x", ["bp"], ["A1"], 3)
    _, _, req = w.request("bp", [1, 2])
    resp = w.server.search(req)
    assert resp.matches == ()
    assert resp.stats.candidates == 0
    assert resp.stats.abe_verified == 0


def test_search_reports_incomplete_policy_per_record():
    w = World()
    rid_full = w.publish(b"both", ["bp"], ["A1", "A2"], 1)
    rid_one = w.publish(b"single", ["bp"], ["A1"], 1)
    _, _, req = w.request("bp", [1], attrs=["A1"])  # no A2 credential
    resp = w.server.search(req)
    assert [m.record_id for m in resp.matches] == [rid_one]
    assert resp.incomplete_policy == (rid_full,)
    assert resp.stats.sse_matched == 2
    assert resp.stats.abe_verified == 1  # the two-attribute record never verified


def test_search_accepts_only_blinded_requests():
    """A request without a blinding, or with the identity, is refused before
    any record is examined, and no authority signs either."""
    w = World()
    w.publish(b"x", ["bp"], ["A1"], 1)
    _, _, req = w.request("bp", [1])
    with pytest.raises(InvalidBlinding):
        w.server.search(replace(req, blinded=None))
    with pytest.raises(InvalidBlinding):
        w.server.search(replace(req, blinded=abe.BlindedIdentity(w.ctx.g_left**0)))
    a1 = w.authorities["A1"]
    for issue in (
        a1.issue_credential,
        a1.issue_decrypt_token,
        lambda b: abe.issue_credential(w.ctx, a1.kp, b),
        lambda b: issue_decrypt_token(w.ctx, a1.kp_dtk, b),
    ):
        with pytest.raises(InvalidBlinding):
            issue(None)
    blob = dict(search_request_to_wire(w.ctx, req), blinded=None)
    with pytest.raises(BadRecord):
        search_request_from_wire(w.ctx, blob)


def test_pipeline_orders_sse_before_abe():
    w = World()
    for i in range(30):
        w.publish(f"rec-{i}".encode(), [f"kw{i % 5}"], ["A1"], 1 + i % 3)
    for kw in ("kw0", "kw3", "nothing"):
        _, _, req = w.request(kw, [1, 2, 3])
        stats = w.server.search(req).stats
        assert stats.abe_verified <= stats.sse_matched <= stats.candidates


def test_parallel_search_equals_serial():
    w = World()
    for i in range(40):
        w.publish(f"rec-{i}".encode(), ["bp" if i % 4 == 0 else "hr"], ["A1", "A2"], 1 + i % 3)
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        serial = w.server.search(req)
    for n in (2, 4):
        with cores(n):
            assert w.server.search(req) == serial


@pytest.fixture(scope="module")
def curve_world(curve_ctx):
    w = World(ctx=curve_ctx)
    for i in range(6):
        w.publish(f"rec-{i}".encode(), ["bp" if i % 3 == 0 else "hr"], ["A1", "A2"], 1 + i % 3)
    return w


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def curve_store(curve_ctx, tmp_path_factory):
    """A curve store log of three records: one given new keywords, one a new
    policy and payload, one as published."""
    path = tmp_path_factory.mktemp("curve") / "store.log"
    w = World(ctx=curve_ctx, store_path=path)
    rids = [w.publish(f"rec-{i}".encode(), ["bp", "hr"], ["A1", "A2"], 1 + i) for i in range(3)]
    w.server.reencrypt(w.owner.update_request(rids[0], [1], w.pks, keywords=["bp", "x"]))
    w.server.reencrypt(
        w.owner.update_request(
            rids[1], [2], w.pks, policy=["A1"], plaintext=b"v2", authorities=w.publics
        )
    )
    w.server.close()
    return w, path


def test_parallel_curve_search_equals_serial(curve_world, monkeypatch):
    """Two cores fork one child, which checks the round-robin shard
    {1, 3, 5} over the Miller lines prepared before the fork; the parent
    checks {0, 2, 4} once and merges both in candidate order.  Each shard
    holds one hit."""
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        serial = w.server.search(req)
    assert serial.stats.candidates == 6 and serial.stats.matched == 2
    calls = Counter()
    for holder, name in ((os, "fork"), (EscrowServer, "_check")):
        original = getattr(holder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)
    with cores(2):
        assert w.server.search(req) == serial
    assert calls == {"fork": 1, "_check": 1}  # the child's shard was not rechecked
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["child raises", "child sends too few", "fork fails"])
def test_failed_search_child_shard_is_rechecked(curve_world, monkeypatch, failure):
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        serial = w.server.search(req)
    test_pid = os.getpid()
    original_check = EscrowServer._check

    def check(self, *args):
        outcomes = original_check(self, *args)
        if os.getpid() != test_pid:
            if failure == "child raises":
                raise RuntimeError("shard lost")
            return outcomes[:-1]
        return outcomes

    def no_fork():
        raise OSError("no processes left")

    if failure == "fork fails":
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.setattr(EscrowServer, "_check", check)
    with cores(2):
        assert w.server.search(req) == serial
    _assert_no_child_left()


def test_forked_open_equals_serial(curve_store, monkeypatch):
    """Two cores: the parent decodes its shard of the ids and one forked child
    the rest; the result equals an open whose fork fails (all redone here),
    byte for byte and in first-seen id order.  Of the log's 5 record frames
    only the 3 ids' last frames are decoded."""
    w, path = curve_store
    calls = Counter()
    for holder, name in ((os, "fork"), (server_mod, "record_from_wire")):
        original = getattr(holder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)
    with cores(2):
        forked = EscrowServer.open(path)
    _assert_no_child_left()
    assert calls["fork"] == 1 and 0 < calls["record_from_wire"] < 3  # of 3 last frames
    calls.clear()

    def no_fork():
        raise OSError("no processes left")

    monkeypatch.setattr(os, "fork", no_fork)
    with cores(2):
        serial = EscrowServer.open(path)
    assert calls == {"record_from_wire": 3}
    ids = w.server.record_ids()
    assert forked.record_ids() == serial.record_ids() == ids
    for rid in ids:
        assert forked.fetch(rid) == serial.fetch(rid) == w.server.fetch(rid)
        assert record_bytes(w.ctx, forked.fetch(rid)) == record_bytes(w.ctx, serial.fetch(rid))
    forked.close()
    serial.close()


def test_failed_open_child_shard_is_redone(curve_store, monkeypatch):
    w, path = curve_store
    test_pid = os.getpid()
    original = server_mod.record_from_wire

    def decode(*args):
        if os.getpid() != test_pid:
            raise RuntimeError("shard lost")
        return original(*args)

    forks = Counter()
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.update(["fork"]) or fork())
    monkeypatch.setattr(server_mod, "record_from_wire", decode)
    with cores(2):
        revived = EscrowServer.open(path)
    revived.close()
    _assert_no_child_left()
    assert forks == {"fork": 1}
    assert revived.record_ids() == w.server.record_ids()
    assert all(revived.fetch(rid) == w.server.fetch(rid) for rid in revived.record_ids())


@pytest.mark.parametrize("n", [1, 2])
def test_open_reads_the_log_once(curve_store, monkeypatch, n):
    """The first pass holds each id's last frame, and the shards decode those
    bytes: on one core or two, an open reads the log once in this process."""
    w, path = curve_store
    reads, read_frames = Counter(), server_mod._read_frames
    monkeypatch.setattr(server_mod, "_read_frames", lambda p: reads.update([p]) or read_frames(p))
    with cores(n), closing(EscrowServer.open(path)) as revived:
        pass
    _assert_no_child_left()
    assert reads == {path: 1}
    assert all(revived.fetch(rid) == w.server.fetch(rid) for rid in w.server.record_ids())


def test_search_error_surfaces_and_kills_children(curve_world, monkeypatch):
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])

    def broken_verify(*args):
        raise RuntimeError("policy check failed")

    monkeypatch.setattr("triseal.server.abe_verify", broken_verify)
    with cores(1), pytest.raises(RuntimeError):
        w.server.search(req)
    with pytest.raises(RuntimeError):
        w.server.search(req)
    _assert_no_child_left()


def test_search_beside_other_threads_does_not_fork(curve_world, curve_store, monkeypatch):
    """Forking a multi-threaded process could leave the child blocked on a
    lock another thread held, so a search or a store reopen then runs serially."""
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        serial = w.server.search(req)
    stored, path = curve_store

    def no_fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    results = []

    def serve():
        results.append(w.server.search(req))
        with closing(EscrowServer.open(path)) as revived:
            results.append(revived.record_ids())

    with cores(2):  # entered by this thread alone
        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert results == [serial, stored.server.record_ids()]


def test_curve_scan_and_recovery_operation_counts(curve_world, monkeypatch):
    """A keyword miss costs one pairing per candidate, e(token, stk), times the
    record's subset term kept from an earlier search over the subset; the
    subset product is formed once per request and kept too, and each left
    point of the request not kept is prepared once, before the scan.
    Recovering a key from a decoded response costs one product; a user's
    decrypt prepares its left points once per response, but for the
    consent's decryption token, which the owner prepared, and the kept
    subset product."""
    PairingContext.kept.cache_clear()
    w = curve_world
    _, _, miss = w.request("absent", [1, 2, 3])
    session, consent, hit = w.request("bp", [1, 2, 3])
    response = search_response_from_wire(
        w.ctx, search_response_to_wire(w.ctx, w.server.search(hit))
    )
    counts = Counter()
    for holder, name in (
        (PairingContext, "pair"),
        (PairingContext, "pairing_product"),
        (sse.SetPublicKeys, "left_product"),
        (curve, "_miller_lines"),
    ):
        original = getattr(holder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)
    with cores(1):
        stats = w.server.search(miss).stats  # counted in this process only
    assert stats.candidates == 6 and stats.sse_matched == 0
    # lines of the token, two credentials and the blinding: the hit's search kept the
    # product and the terms; each pair is a one-pairing product
    assert counts == {"pair": 6, "pairing_product": 6, "left_product": 1, "_miller_lines": 4}
    assert w.server.search(miss).stats == stats
    for match in response.matches:
        counts.clear()
        tokens = DecryptionTokenSet(
            owner_token=consent.owner_decrypt_token,
            subset=consent.subset,
            aa_tokens={a: session.decrypt_tokens[a] for a in match.policy},
            blinded_r=session.blinded_r,
        )
        recover_key(w.ctx, match.recovery, tokens, w.pks)
        lines = 1 + len(match.policy)  # the aa tokens' and the blinding's; the product is kept
        assert counts == {"pairing_product": 1, "left_product": 1, "_miller_lines": lines}
    counts.clear()
    assert len(w.user.decrypt_matches(session, consent, response, w.pks)) == 2
    # two aa tokens and the blinding; the kept product is formed and looked up per match
    assert counts == {"pairing_product": 2, "left_product": 2, "_miller_lines": 3}


def test_curve_request_prepares_each_left_point_once_at_k8(curve_ctx, tmp_path, monkeypatch):
    """At k = 8 a decoded request makes one line preparation per distinct
    left point: the token, 8 credentials and the blinding at decode, the
    subset product before the fork.  None is made per candidate or in the
    forked child.  An in-process request of the same consent is prepared by
    the search, but for the token and the subset product, which are kept.
    The user's decrypt prepares 8 aa tokens and the blinding once per
    response; the owner's decryption token comes prepared with the consent,
    and the subset product is kept."""
    PairingContext.kept.cache_clear()
    attrs = tuple(f"A{i}" for i in range(1, 9))
    w = World(seed=81, attrs=attrs, ctx=curve_ctx)
    for i, keyword in enumerate(("bp", "hr", "bp", "hr")):  # two hits, two misses in set 1
        w.publish(b"k8-%d" % i, [keyword], list(attrs), 1)
    session, consent, req = w.request("bp", [1])
    decoded_wire = search_request_to_wire(w.ctx, req)
    log = tmp_path / "lines.log"
    lines = curve._miller_lines

    def logged(pt):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return lines(pt)

    monkeypatch.setattr(curve, "_miller_lines", logged)
    forks = Counter()
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.update(["fork"]) or fork())

    def prepared_by(pids):
        counts = Counter(log.read_text().split())
        log.unlink()
        assert set(counts) == pids
        return counts[str(os.getpid())]

    decoded = search_request_from_wire(w.ctx, decoded_wire)
    assert prepared_by({str(os.getpid())}) == 1 + 8 + 1
    with cores(2):
        response = w.server.search(decoded)
    assert response.stats.candidates == 4 and response.stats.matched == 2
    assert prepared_by({str(os.getpid())}) == 1
    with cores(2):
        assert w.server.search(req) == response
    assert prepared_by({str(os.getpid())}) == 8 + 1
    assert forks["fork"] == 2
    _assert_no_child_left()
    assert len(w.user.decrypt_matches(session, consent, response, w.pks)) == 2
    assert prepared_by({str(os.getpid())}) == 8 + 1


def test_forked_children_send_their_subset_terms_to_the_parent(curve_ctx, monkeypatch):
    """A search keeps each candidate's subset term, and the terms a forked child
    computes reach the parent: a second search over the subset pays one pairing
    per candidate, e(token, stk), and computes no term."""
    w = World(seed=83, ctx=curve_ctx)
    for i, keyword in enumerate(("bp", "hr", "hr", "bp")):
        w.publish(b"t-%d" % i, [keyword], ["A1"], 1 + i % 2)
    _, _, req = w.request("bp", [2, 1])
    counts, pair, fork = Counter(), PairingContext.pair, os.fork
    monkeypatch.setattr(PairingContext, "pair", lambda *a: counts.update(["pair"]) or pair(*a))
    monkeypatch.setattr(os, "fork", lambda: counts.update(["fork"]) or fork())
    with cores(2):
        first = w.server.search(req)
    assert first.stats.candidates == 4 and first.stats.matched == 2
    # this process's shard of two: a term and a keyword pairing each
    assert counts == {"fork": 1, "pair": 2 * 2}
    _assert_no_child_left()
    counts.clear()
    with cores(1):
        assert w.server.search(req) == first
    assert counts == {"pair": 4}
    assert {s for terms in w.server._terms.values() for s in terms} == {(1, 2)}
    assert len(w.server._terms) == 4


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_rotated_keywords_never_meet_an_old_subset_term(backend, curve_ctx):
    """On one long-lived server a search keeps the record's subset term, an
    update gives the record a new layer 1, and the next searches match the new
    keyword and miss the old one: a term is kept per layer 1, not per record."""
    w = World(seed=84, ctx=curve_ctx if backend == "curve" else None)
    rid = w.publish(b"v1", ["old"], ["A1"], 1)
    (_, _, old), (_, _, new) = w.request("old", [1]), w.request("new", [1])
    assert [m.record_id for m in w.server.search(old).matches] == [rid]
    assert w.server.search(new).stats.sse_matched == 0
    w.server.reencrypt(w.owner.update_request(rid, [1], w.pks, keywords=["new"]))
    assert [m.record_id for m in w.server.search(new).matches] == [rid]
    assert w.server.search(old).stats.sse_matched == 0


def test_searches_racing_keyword_rotations_answer_as_serial_searches():
    """Two threads search while a third rotates one record's keywords v0 -> v1
    -> ... -> v8 beside a record that keeps v3: each response equals a serial
    search of the state before or after some rotation, and nothing raises."""
    w = World(seed=85)
    rid = w.publish(b"rotated", ["v0"], ["A1"], 1)
    w.publish(b"still", ["v3"], ["A1"], 1)
    updates = [w.owner.update_request(rid, [1], w.pks, keywords=[f"v{i}"]) for i in range(1, 9)]
    reqs = {f"v{i}": w.request(f"v{i}", [1])[2] for i in range(9)}
    replay, serial = EscrowServer(w.ctx, w.pks), {kw: [] for kw in reqs}
    for stored in w.server.record_ids():
        replay.store_record(w.server.fetch(stored))
    for update in [None, *updates]:
        if update is not None:
            replay.reencrypt(update)
        fresh = EscrowServer(w.ctx, w.pks)  # each state searched by a server that kept no term
        for stored in replay.record_ids():
            fresh.store_record(replay.fetch(stored))
        for kw, req in reqs.items():
            serial[kw].append(fresh.search(req))
    failures, searched, stop = [], Counter(), threading.Event()

    def searcher(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set() or searched[seed] < 20:
                kw = rng.choice(sorted(reqs))
                if w.server.search(reqs[kw]) not in serial[kw]:
                    failures.append(kw)
                searched[seed] += 1
        except Exception as exc:  # reported below
            failures.append(exc)

    def rotator():
        try:
            for update in updates:
                w.server.reencrypt(update)
                time.sleep(0.002)
        except Exception as exc:
            failures.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=searcher, args=(i,)) for i in range(2)]
    threads.append(threading.Thread(target=rotator))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert all(w.server.search(req) == serial[kw][-1] for kw, req in reqs.items())


def _walked_points(monkeypatch) -> list:
    """The points whose Miller lines are walked from now on, in order."""
    walked, lines = [], curve._miller_lines
    monkeypatch.setattr(curve, "_miller_lines", lambda pt: walked.append(pt) or lines(pt))
    return walked


def test_second_search_under_a_consent_prepares_only_the_session(curve_world, monkeypatch):
    """A consent's token and its subset product are kept across requests: a
    second request under the same consent, decoded from the wire, prepares
    only its session's credentials and blinding, and its search nothing."""
    PairingContext.kept.cache_clear()
    w = curve_world
    _, consent, first = w.request("bp", [1, 2, 3])
    with cores(1):
        expected = w.server.search(first)
    session = w.user.new_session()
    for authority in w.authorities.values():
        w.user.collect(session, authority)
    second = search_request_to_wire(w.ctx, w.user.build_search_request(session, consent))
    walked = _walked_points(monkeypatch)
    decoded = search_request_from_wire(w.ctx, second)
    assert walked == [*(c.credential.data for c in decoded.credentials), decoded.blinded.element.data]
    walked.clear()
    with cores(1):
        assert w.server.search(decoded) == expected
    assert walked == []


def test_decrypt_matches_prepares_the_subset_product_once(curve_world, monkeypatch):
    """Two responses under one consent, decrypted in a process whose table
    is empty: the subset product is prepared for the first and kept for the
    second; each response's aa tokens and blinding are prepared once."""
    w = curve_world
    sessions, responses = [], []
    for _ in range(2):
        session, consent, req = w.request("bp", [1, 2, 3])
        wired = search_response_to_wire(w.ctx, w.server.search(req))
        sessions.append(session)
        responses.append(search_response_from_wire(w.ctx, wired))
    PairingContext.kept.cache_clear()
    walked = _walked_points(monkeypatch)
    for session, response in zip(sessions, responses):
        assert len(w.user.decrypt_matches(session, consent, response, w.pks)) == 2
    assert walked.count(w.pks.left_product((1, 2, 3)).data) == 1
    assert len(walked) == 1 + 2 * (2 + 1)


def test_out_of_subgroup_token_is_refused_on_every_request_and_never_kept(
    curve_world, monkeypatch
):
    """A token outside the order-q subgroup fails its line walk on every
    request, decoded from the wire or handed in-process to the search, and
    never enters the table of kept points; the search keeps its subset
    product before it meets the token."""
    PairingContext.kept.cache_clear()
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    search = search_request_to_wire(w.ctx, req)
    points = small_order_points()
    walked = _walked_points(monkeypatch)
    for raw in points.values():
        bad = _replaced(search, ("token", "token"), wire.b64e(raw))
        point = GroupElement(w.ctx, Side.LEFT, w.ctx._g_from_bytes(raw, False))
        in_process = replace(req, token=replace(req.token, token=point))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="order-q subgroup"):
                search_request_from_wire(w.ctx, bad)
            with cores(1), pytest.raises(InvalidElement, match="order-q subgroup"):
                w.server.search(in_process)
    # each token on each request, and the subset product of the first in-process search
    assert len(walked) == 2 * 2 * len(points) + 1
    assert PairingContext.kept.cache_info().currsize == 1  # the product alone


def test_kept_token_equals_a_fresh_decode(curve_world):
    """A token decoded twice is prepared once: the second decode is the kept
    point, equal to a fresh decode in bytes, lines and pairing."""
    PairingContext.kept.cache_clear()
    w = curve_world
    token = w.owner.consent("bp", [1, 2], w.pks).search_token
    encoded = wire.TOKEN.encode(w.ctx, token)
    first = wire.TOKEN.decode(w.ctx, encoded)
    hit = wire.TOKEN.decode(w.ctx, encoded)
    assert PairingContext.kept.cache_info()[:2] == (1, 1)  # (hits, misses)
    fresh = w.ctx.prepared_from_bytes(w.ctx.element_to_bytes(token.token))
    assert hit == first == token and hit.token is first.token
    assert hit.token == fresh and hit.token.data.lines == fresh.data.lines
    assert w.ctx.element_to_bytes(hit.token) == w.ctx.element_to_bytes(fresh)
    right = w.ctx.g_right**12345
    assert w.ctx.pair(hit.token, right) == w.ctx.pair(fresh, right) == w.ctx.pair(token.token, right)


def _order_checks(monkeypatch) -> Counter:
    """The [q]P (``_pt_mul``) and GT x^q (``_unitary_pow``) checks run from now on."""
    checks = Counter()
    for name in ("_pt_mul", "_unitary_pow"):
        original = getattr(curve, name)

        def order_check(x, k, _name=name, _original=original):
            checks[_name] += k == curve.CURVE_Q
            return _original(x, k)

        monkeypatch.setattr(curve, name, order_check)
    return checks


def _checked(checks: Counter) -> tuple[int, int]:
    return checks["_pt_mul"], checks["_unitary_pow"]


def test_second_response_decode_meets_the_kept_layer_3(curve_world, monkeypatch):
    """A user's layer 3 is decoded with every check once per process: a second
    decode of the same response runs no [q]P and no GT x^q, returns the kept
    elements and decrypts to the same bytes, and an in-process response's held
    forms meet the same entries."""
    server_mod.kept_recovery.cache_clear()
    w = curve_world
    session, consent, req = w.request("bp", [1, 2, 3])
    with cores(1):
        response = w.server.search(req)
    wired = search_response_to_wire(w.ctx, response)
    checks = _order_checks(monkeypatch)
    first = search_response_from_wire(w.ctx, wired)
    assert [len(m.policy) for m in first.matches] == [2, 2]
    assert _checked(checks) == (2 * 6, 2)  # 2 + 2k G and one GT per layer 3
    checks.clear()
    second = search_response_from_wire(w.ctx, wired)
    assert _checked(checks) == (0, 0)
    assert second == first
    assert all(a.recovery is b.recovery for a, b in zip(first.matches, second.matches))
    plain = w.user.decrypt_matches(session, consent, first, w.pks)
    assert [p for _, p in plain] == [b"rec-0", b"rec-3"]
    assert w.user.decrypt_matches(session, consent, second, w.pks) == plain
    assert w.user.decrypt_matches(session, consent, response, w.pks) == plain
    assert _checked(checks) == (0, 0)
    assert server_mod.kept_recovery.cache_info()[:2] == (2 + 2, 2)  # (hits, misses)


def test_layer_3_decoded_inside_a_trusted_decode_takes_every_check(curve_world, monkeypatch):
    """The trusted flag of a store frame never reaches a user's layer 3: a
    response or a held form decoded inside ``_trusted_decode(True, ...)`` runs
    every order check of it, and a small-order point there is refused."""
    server_mod.kept_recovery.cache_clear()
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        response = w.server.search(req)
    wired = search_response_to_wire(w.ctx, response)
    checks = _order_checks(monkeypatch)
    held = response.matches[0].recovery
    assert _trusted_decode(True, server_mod.USER_RECOVERY.decode, w.ctx, held.wire)
    assert _checked(checks) == (6, 1)
    _trusted_decode(True, search_response_from_wire, w.ctx, wired)  # the first layer is kept
    assert _checked(checks) == (2 * 6, 2)
    server_mod.kept_recovery.cache_clear()
    order4 = wire.b64e(small_order_points()["order 4"])
    bad = _replaced(wired, ("matches", 0, "recovery", "dtk_transferor"), order4)
    with pytest.raises(ProtocolError, match="order-q subgroup"):
        _trusted_decode(True, search_response_from_wire, w.ctx, bad)
    assert server_mod.kept_recovery.cache_info().currsize == 0


def test_out_of_subgroup_layer_3_is_refused_on_every_decode_and_never_kept(curve_world):
    """A small-order point in ``dtk_transferor`` or an aa transferor, or a
    norm-1 GT value outside the order-q subgroup in ``wrapped_key``, is refused
    on each of two decodes, also after the honest layer was kept: the table of
    layers 3 gains no entry and meets no hit."""
    server_mod.kept_recovery.cache_clear()
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    with cores(1):
        wired = search_response_to_wire(w.ctx, w.server.search(req))
    honest = search_response_from_wire(w.ctx, wired)
    kept = server_mod.kept_recovery.cache_info().currsize
    inv5 = pow(5, -1, curve.CURVE_P)  # (2 - i)/(2 + i): norm 1, order not q
    gt = (3 * inv5 % curve.CURVE_P).to_bytes(64, "big") + (-4 * inv5 % curve.CURVE_P).to_bytes(
        64, "big"
    )
    faults = [(("wrapped_key",), gt)] + [
        (path, raw)
        for raw in small_order_points().values()
        for path in (("dtk_transferor",), ("dtk_aa_transferors", 0))
    ]
    for path, raw in faults:
        bad = _replaced(wired, ("matches", 0, "recovery", *path), wire.b64e(raw))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="order-q subgroup"):
                search_response_from_wire(w.ctx, bad)
    assert server_mod.kept_recovery.cache_info()[::3] == (0, kept)  # (hits, currsize)
    assert search_response_from_wire(w.ctx, wired) == honest


def test_policy_rotation_decodes_the_new_layer_3_afresh(curve_ctx, monkeypatch):
    """A record's layer 3 is kept by its bytes, not its id: after a policy
    rotation the new layer is decoded with every check and decrypts, from the
    wire and in-process, to the new plaintext."""
    server_mod.kept_recovery.cache_clear()
    w = World(ctx=curve_ctx)
    rid = w.publish(b"before", ["bp"], ["A1", "A2"], 1)

    def fetched():
        session, consent, req = w.request("bp", [1])
        response = w.server.search(req)
        decoded = search_response_from_wire(w.ctx, search_response_to_wire(w.ctx, response))
        return [w.user.decrypt_matches(session, consent, r, w.pks) for r in (decoded, response)]

    assert fetched() == [[(rid, b"before")]] * 2
    assert fetched() == [[(rid, b"before")]] * 2
    rotation = w.owner.update_request(
        rid, [1], w.pks, policy=["A1"], plaintext=b"after", authorities=w.publics
    )
    w.server.reencrypt(rotation)
    checks = _order_checks(monkeypatch)
    assert fetched() == [[(rid, b"after")]] * 2
    assert _checked(checks) == (2 + 2 * 1, 1)  # the new layer 3, checked once
    assert server_mod.kept_recovery.cache_info().currsize == 2


def test_threads_searching_more_consents_than_the_table_holds_match_serial(curve_world):
    """Two threads search through one context, each decoding its requests from
    the wire, under more distinct tokens and subset products than the table
    of kept points holds, so entries are evicted while others are read: every
    response equals the serial one and no thread raises."""
    w = curve_world
    consents = [(k, [s]) for k in ("bp", "hr", "a", "b", "c", "d") for s in (1, 2, 3)]
    assert len(consents) > KEPT_POINTS
    wired, serial = [], []
    for keyword, subset in consents:
        _, _, req = w.request(keyword, subset)
        wired.append(search_request_to_wire(w.ctx, req))
        with cores(1):
            serial.append(w.server.search(req))
    assert sum(r.stats.matched for r in serial) == 6
    PairingContext.kept.cache_clear()
    results, errors = {}, []

    def serve(order):
        try:
            for i in order:
                request = search_request_from_wire(w.ctx, wired[i])
                results.setdefault(i, []).append(w.server.search(request))
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            errors.append(exc)

    order = list(range(len(consents)))
    threads = [threading.Thread(target=serve, args=(o,)) for o in (order, order[::-1])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(results[i] == [serial[i], serial[i]] for i in order)
    assert PairingContext.kept.cache_info().currsize == KEPT_POINTS


def test_request_decoders_refuse_malformed_encodings(curve_world):
    """Bytes that encode no curve point (short, a bad tag, the identity tag
    with a payload, an x off the curve) in the token, a credential, the
    blinding or ``rtk`` of a message are refused as InvalidElement, a typed
    ProtocolError, never met with a traceback."""
    w = curve_world
    _, _, req = w.request("bp", [1, 2, 3])
    search = search_request_to_wire(w.ctx, req)
    rid = w.server.record_ids()[0]
    update = update_request_to_wire(w.ctx, w.owner.update_request(rid, [1], w.pks, keywords=["x"]))
    for raw in malformed_encodings(w.ctx.element_to_bytes(req.token.token)).values():
        bad = wire.b64e(raw)
        for path in (("token", "token"), ("credentials", 0, "credential"), ("blinded",)):
            with pytest.raises(InvalidElement):
                search_request_from_wire(w.ctx, _replaced(search, path, bad))
        with pytest.raises(InvalidElement):
            update_request_from_wire(w.ctx, _replaced(update, ("rtk",), bad))


def _replaced(obj, path, value):
    """A deep copy of the JSON object ``obj`` with the slot at ``path`` set."""
    obj = json.loads(json.dumps(obj))
    slot = obj
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    return obj


def test_curve_decoders_refuse_small_order_points(curve_world, tmp_path, monkeypatch):
    """Each G element of a message or of a record that reaches the server is
    checked for order q on its own: a point of order 2, 4, 1151 or h*q in
    any one slot is refused with a typed error, never accepted or met with a
    traceback, also where a sharded reopen deals the frame to a forked
    child.  Layer 3, which the server holds undecoded only from a frame whose
    tag verifies, is refused from every other frame, from an update request
    and by the user's response decoder.  A stored frame that a later frame of
    its id replaces never reaches the server, so its elements are not decoded."""
    w = curve_world
    ctx = w.ctx
    _, _, req = w.request("bp", [1, 2, 3])
    search = search_request_to_wire(ctx, req)
    response = search_response_to_wire(ctx, w.server.search(req))
    rid = w.server.record_ids()[0]
    upd = w.owner.update_request(
        rid, [1, 2, 3], w.pks, keywords=["x"], policy=["A1"], plaintext=b"v", authorities=w.publics
    )
    update = update_request_to_wire(ctx, upd)
    record = record_to_wire(ctx, w.server.fetch(rid))
    header = {"kind": "header", "params": ctx.param_header(), "pks": wire.PKS.encode(ctx, w.pks)}
    assert search_request_from_wire(ctx, search) == req
    assert search_response_to_wire(ctx, search_response_from_wire(ctx, response)) == response
    assert update_request_from_wire(ctx, update) == upd
    assert record_from_wire(ctx, record) == w.server.fetch(rid)
    store = tmp_path / "store.log"
    key = bytes(range(32))  # a store key next to the log: only a verified tag skips a check
    (tmp_path / "store.log.key").write_bytes(key)
    keyless = tmp_path / "keyless" / "store.log"
    keyless.parent.mkdir()
    valid_data = json.dumps({"kind": "record", "record": record}).encode()
    for name, raw in small_order_points().items():
        bad = wire.b64e(raw)
        for path in (("token", "token"), ("credentials", 0, "credential"), ("blinded",)):
            with pytest.raises(ProtocolError, match="order-q subgroup"):
                search_request_from_wire(ctx, _replaced(search, path, bad))
        for path in (("rtk",), ("new_sse", "stk_transferor"), ("new_recovery", "dtk_transferor")):
            with pytest.raises(ProtocolError, match="order-q subgroup"):
                update_request_from_wire(ctx, _replaced(update, path, bad))
        path = ("matches", 0, "recovery", "dtk_aa_transferors", 0)
        with pytest.raises(ProtocolError, match="order-q subgroup"):
            search_response_from_wire(ctx, _replaced(response, path, bad))
        for path in (("sse", "kw_modifier"), ("recovery", "dtk_transferor")):
            frame = {"kind": "record", "record": _replaced(record, path, bad)}
            with pytest.raises(BadRecord, match="order-q subgroup"):
                record_from_wire(ctx, frame["record"])
            data = json.dumps(frame).encode()
            own = hmac.digest(key, data, "sha256")  # verifies only if the key is found
            keyless.write_bytes(_frame(header) + _raw_frame(data, own))
            with pytest.raises(BadRecord, match="order-q subgroup"):
                EscrowServer.open(keyless)
            for tag in (  # zeroed, forged under another key, moved from a valid frame, flipped
                bytes(32),
                hmac.digest(bytes(32), data, "sha256"),
                hmac.digest(key, valid_data, "sha256"),
                own[:-1] + bytes([own[-1] ^ 1]),
            ):
                store.write_bytes(_frame(header) + _raw_frame(data, tag))
                with pytest.raises(BadRecord, match="order-q subgroup"):
                    EscrowServer.open(store)
        # the last frame of an id is checked, also where it supersedes a valid
        # one; a frame superseded by a valid one is never decoded
        valid = _frame({"kind": "record", "record": record})
        for path in (
            ("sse", "kw_modifier"),
            ("abe", "ac_transferors", 1),
            ("recovery", "dtk_transferor"),
        ):
            replaced = _frame({"kind": "record", "record": _replaced(record, path, bad)})
            store.write_bytes(_frame(header) + valid + replaced)
            with pytest.raises(BadRecord, match="order-q subgroup"):
                EscrowServer.open(store)
            store.write_bytes(_frame(header) + replaced + valid)
            with closing(EscrowServer.open(store)) as revived:
                assert revived.record_ids() == (rid,)
                assert revived.fetch(rid) == w.server.fetch(rid)
    # two ids on two cores, dealt round-robin: the second id is the child's
    other = record_to_wire(ctx, w.server.fetch(w.server.record_ids()[1]))
    forks = Counter()
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.update(["fork"]) or fork())
    for name, raw in small_order_points().items():
        bad = {"kind": "record", "record": _replaced(other, ("sse", "kw_modifier"), wire.b64e(raw))}
        store.write_bytes(_frame(header) + valid + _frame(bad))
        with cores(2), pytest.raises(BadRecord, match="order-q subgroup"):
            EscrowServer.open(store)
        _assert_no_child_left()
    assert forks["fork"] == len(small_order_points())


def test_update_accepts_owner_and_swaps_layers():
    w = World()
    rid = w.publish(b"v1", ["bp"], ["A1"], 1)
    before = w.server.fetch(rid)
    upd = w.owner.update_request(rid, [1], w.pks, keywords=["pulse"])
    assert w.server.reencrypt(upd) == rid
    after = w.server.fetch(rid)
    assert after.sse != before.sse
    assert after.abe == before.abe and after.payload == before.payload
    # old keyword gone, new one findable
    _, _, req = w.request("bp", [1])
    assert w.server.search(req).matches == ()
    _, _, req = w.request("pulse", [1])
    assert [m.record_id for m in w.server.search(req).matches] == [rid]


def test_update_rejections_leave_record_byte_identical():
    w = World()
    rid = w.publish(b"v1", ["bp"], ["A1"], 1)
    before = record_bytes(w.ctx, w.server.fetch(rid))
    stranger = Owner.create(w.ctx, "stranger", random.Random(99))
    honest = update_request_to_wire(w.ctx, w.owner.update_request(rid, [1], w.pks, keywords=["x"]))

    rejected = [
        # wrong owner secret
        stranger.update_request(rid, [1], w.pks, keywords=["x"]),
        # search token in place of the update token
        UpdateRequest(
            record_id=rid,
            rtk=w.owner.consent("bp", [1], w.pks).search_token.token,
            subset=(1,),
            new_sse=w.owner.update_request(rid, [1], w.pks, keywords=["x"]).new_sse,
        ),
        # rtk built for a different subset than declared
        UpdateRequest(
            record_id=rid,
            rtk=w.owner.reencryption_token([1, 2], w.pks),
            subset=(1,),
            new_sse=w.owner.update_request(rid, [1], w.pks, keywords=["x"]).new_sse,
        ),
        # record outside the declared subset
        w.owner.update_request(rid, [2], w.pks, keywords=["x"]),
        # an empty or unknown declared subset, as the wire can carry it
        update_request_from_wire(w.ctx, {**honest, "subset": []}),
        update_request_from_wire(w.ctx, {**honest, "subset": [99]}),
    ]
    for req in rejected:
        with pytest.raises(UpdateRejected):
            w.server.reencrypt(req)
        assert record_bytes(w.ctx, w.server.fetch(rid)) == before


def test_noop_refresh_changes_every_element():
    """Re-supplying the same keywords, policy, and plaintext under fresh
    nonces is accepted and rewrites the whole record."""
    w = World()
    rid = w.publish(b"same-plain", ["bp"], ["A1", "A2"], 1)
    before = w.server.fetch(rid)
    upd = w.owner.update_request(
        rid, [1], w.pks, keywords=["bp"], policy=["A1", "A2"],
        plaintext=b"same-plain", authorities=w.publics,
    )
    assert w.server.reencrypt(upd) == rid
    after = w.server.fetch(rid)
    assert record_bytes(w.ctx, after) != record_bytes(w.ctx, before)
    assert after.sse.stk_transferor != before.sse.stk_transferor
    assert set(after.sse.tagged_keywords).isdisjoint(before.sse.tagged_keywords)
    assert set(after.abe.wire["ac_transferors"]).isdisjoint(before.abe.wire["ac_transferors"])
    assert after.abe.wire["plcy"] != before.abe.wire["plcy"]
    assert after.recovery.wire["wrapped_key"] != before.recovery.wire["wrapped_key"]
    assert after.payload != before.payload
    # deterministic consent still finds the refreshed record
    _, _, req = w.request("bp", [1])
    assert [m.record_id for m in w.server.search(req).matches] == [rid]


def test_update_structural_errors():
    w = World()
    rid = w.publish(b"v1", ["bp"], ["A1"], 1)
    with pytest.raises(BadRecord):  # nothing to replace
        w.server.reencrypt(
            UpdateRequest(record_id=rid, rtk=w.owner.reencryption_token([1], w.pks), subset=(1,))
        )
    with pytest.raises(BadRecord):  # unknown record
        w.server.reencrypt(w.owner.update_request("nope", [1], w.pks, keywords=["x"]))
    # replacing only the policy layer leaves recovery inconsistent
    other = w.owner.publish(b"z", ["bp"], ["A1", "A2"], 1, w.publics)
    with pytest.raises(BadRecord):
        w.server.reencrypt(
            UpdateRequest(
                record_id=rid,
                rtk=w.owner.reencryption_token([1], w.pks),
                subset=(1,),
                new_abe=other.abe,
            )
        )


def test_store_file_round_trip(tmp_path):
    path = tmp_path / "store.log"
    w = World(store_path=path)
    rid1 = w.publish(b"a", ["bp"], ["A1"], 1)
    rid2 = w.publish(b"b", ["hr"], ["A1", "A2"], 2)
    w.server.reencrypt(w.owner.update_request(rid1, [1], w.pks, keywords=["bp2"]))
    w.server.close()

    revived = EscrowServer.open(path)
    assert revived.record_count == 2
    assert record_bytes(revived.ctx, revived.fetch(rid2)) == record_bytes(
        w.ctx, w.server.fetch(rid2)
    )
    # the update survived the reload (last frame wins)
    _, _, req = w.request("bp2", [1])
    assert [m.record_id for m in revived.search(req).matches] == [rid1]
    revived.close()
    with pytest.raises(ValueError):
        EscrowServer(w.ctx, w.pks, store_path=path)  # refuses to clobber


def _unsorted_policy_store(path):
    """A file-backed world holding one record whose policy is not in sorted order."""
    w = World(attrs=("RESEARCHER", "DOCTOR"), store_path=path)
    return w, w.publish(b"a", ["bp"], ["RESEARCHER", "DOCTOR"], 1)


def test_live_and_reopened_servers_answer_with_equal_wire(tmp_path):
    w, rid = _unsorted_policy_store(tmp_path / "store.log")
    _, _, req = w.request("bp", [1])
    with closing(w.server), closing(EscrowServer.open(tmp_path / "store.log")) as revived:
        live, reopened = (
            search_response_to_wire(w.ctx, server.search(req)) for server in (w.server, revived)
        )
    assert [m["record_id"] for m in live["matches"]] == [rid]
    assert live["matches"][0]["policy"] == ["DOCTOR", "RESEARCHER"]
    assert wire.canonical_json(live) == wire.canonical_json(reopened)


def test_restoring_a_reopened_copy_returns_its_id(tmp_path):
    w, rid = _unsorted_policy_store(tmp_path / "store.log")
    with closing(w.server), closing(EscrowServer.open(tmp_path / "store.log")) as revived:
        assert w.server.store_record(revived.fetch(rid)) == rid
        assert revived.store_record(w.server.fetch(rid)) == rid


def test_curve_reopen_decodes_only_last_frames(curve_ctx, tmp_path, monkeypatch):
    """An update logs the whole record again; reopening decodes only the
    record's last frame, and of its tagged frame only layer 1.  Header 3 G;
    last frame 2 G + 4 GT (2 keyword tags, the owner's and the update id's);
    its layers 2 and 3 and the two superseded frames add nothing."""
    path = tmp_path / "store.log"
    w = World(ctx=curve_ctx, store_path=path)
    rid = w.publish(b"v1", ["bp", "hr"], ["A1", "A2"], 1)
    w.server.reencrypt(w.owner.update_request(rid, [1], w.pks, keywords=["bp", "x"]))
    w.server.reencrypt(
        w.owner.update_request(
            rid, [1], w.pks, policy=["A1", "A2"], plaintext=b"v2", authorities=w.publics
        )
    )
    w.server.close()
    counts = Counter()
    for name in ("element_from_bytes", "gt_from_bytes"):
        original = getattr(PairingContext, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(PairingContext, name, counted)
    revived = EscrowServer.open(path)
    revived.close()
    assert counts == {"element_from_bytes": 5, "gt_from_bytes": 4}
    assert revived.fetch(rid) == w.server.fetch(rid)


def test_tagged_curve_reopen_runs_no_order_check(curve_store, tmp_path, monkeypatch):
    """Reopening a server-written curve store runs no [q]P and no GT x^q
    check, and decodes no layer 2 or 3: every frame decoded carries a tag that
    verifies under the store key.  The same log without its key decodes and
    checks every element of the header and of each id's last frame, and with
    one tag flipped every element of that frame alone; each yields the same
    records."""
    w, path = curve_store
    counts = Counter()
    for name in ("_pt_mul", "_unitary_pow"):
        original = getattr(curve, name)

        def order_check(x, k, _name=name, _original=original):
            counts[_name] += k == curve.CURVE_Q
            return _original(x, k)

        monkeypatch.setattr(curve, name, order_check)
    for name in ("element_from_bytes", "gt_from_bytes"):
        original = getattr(PairingContext, name)

        def decoded(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(PairingContext, name, decoded)
    with cores(1), closing(EscrowServer.open(path)) as trusted:  # no fork
        pass
    assert counts["_pt_mul"] == counts["_unitary_pow"] == 0
    # header 3 G; layer 1 of the last frames: 2 G, 4 GT each
    decodes = {"element_from_bytes": 3 + 3 * 2, "gt_from_bytes": 3 * 4}
    assert {k: counts[k] for k in decodes} == decodes
    copy = tmp_path / "store.log"
    copy.write_bytes(path.read_bytes())
    counts.clear()
    with cores(1), closing(EscrowServer.open(copy)) as checked:
        pass
    # layer 2 adds 4 G, 2 G (a one-attribute policy) and 4 G, 1 GT each;
    # layer 3 adds 6 G, 4 G and 6 G, 1 GT each
    full = {"element_from_bytes": 35, "gt_from_bytes": 18}
    assert counts == {**full, "_pt_mul": 35, "_unitary_pow": 18}
    for rid in w.server.record_ids():
        assert trusted.fetch(rid) == checked.fetch(rid) == w.server.fetch(rid)
    # with the key but one tag bit flipped, only that frame (8 G + 6 GT) is
    # checked, its layers 2 and 3 (2 G + 1 GT, 4 G + 1 GT) decoded
    log = bytearray(path.read_bytes())
    with closing(_read_frames(path)) as frames:
        *_, (_, data) = frames
    log[len(log) - len(data) - 1] ^= 1  # the last byte of the last frame's tag
    copy.write_bytes(log)
    copy.with_name("store.log.key").write_bytes(path.with_name("store.log.key").read_bytes())
    counts.clear()
    with cores(1), closing(EscrowServer.open(copy)) as flipped:
        pass
    flipped_decodes = {"element_from_bytes": 9 + 2 + 4, "gt_from_bytes": 12 + 1 + 1}
    assert counts == {**flipped_decodes, "_pt_mul": 8, "_unitary_pow": 6}
    assert all(flipped.fetch(rid) == w.server.fetch(rid) for rid in w.server.record_ids())


def test_tagged_reopen_decodes_layer_2_only_at_a_keyword_hit(curve_store, monkeypatch):
    """A reopened tagged store answers each search as the live server does: a
    match, a denial (credentials under another blinding), an IncompletePolicy
    and a miss.  Only a keyword hit that passes the IncompletePolicy check
    decodes its held layer 2, 2k G + 1 GT, with no order check; the live
    server, which holds the owner's elements, decodes nothing."""
    w, path = curve_store
    with closing(EscrowServer.open(path)) as revived:
        pass
    _, _, full = w.request("x", [1, 2, 3])  # the first record (k = 2) matches, the others miss
    _, _, other = w.request("x", [1, 2, 3])
    denied = replace(full, blinded=other.blinded)
    _, _, partial = w.request("bp", [1, 2, 3], attrs=["A1"])  # k = 1 matches, two lack A2
    _, _, miss = w.request("absent", [1, 2, 3])
    counts = Counter()
    for name in ("_pt_mul", "_unitary_pow"):
        original = getattr(curve, name)

        def order_check(x, k, _name=name, _original=original):
            if k == curve.CURVE_Q:
                counts[_name] += 1
            return _original(x, k)

        monkeypatch.setattr(curve, name, order_check)
    for name in ("element_from_bytes", "gt_from_bytes"):
        original = getattr(PairingContext, name)

        def decoded(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(PairingContext, name, decoded)
    for req, g, gt in ((miss, 0, 0), (full, 4, 1), (denied, 4, 1), (partial, 2, 1)):
        with cores(1):
            live = w.server.search(req)
        assert not counts
        with cores(1):
            assert revived.search(req) == live
        assert counts == ({"element_from_bytes": g, "gt_from_bytes": gt} if g else {})
        counts.clear()
    with cores(1):
        stats = {r: w.server.search(r).stats for r in (full, denied, partial, miss)}
    assert (stats[full].matched, stats[full].sse_matched) == (1, 1)
    assert (stats[denied].matched, stats[denied].abe_verified) == (0, 1)
    assert (stats[partial].matched, stats[partial].sse_matched) == (1, 3)
    assert stats[miss].sse_matched == 0


def test_held_layer_2_is_trusted_only_by_the_server_that_verified_its_tag(curve_store, tmp_path):
    """A reopened record's layer 2, held without elements, is decoded with
    every check by any other server's ``store_record``: a small-order point in
    it is refused.  A tagged frame whose layer 2 does not decode still opens,
    and a keyword hit on it is a typed BadRecord."""
    w, path = curve_store
    with closing(EscrowServer.open(path)) as revived:
        pass
    rid = w.server.record_ids()[0]
    rec = revived.fetch(rid)
    assert rec.abe.elements is None
    fresh = EscrowServer(w.ctx, w.pks)
    transferors = rec.abe.wire["ac_transferors"]
    for raw in small_order_points().values():
        bad = {**rec.abe.wire, "ac_transferors": [wire.b64e(raw), *transferors[1:]]}
        with pytest.raises(ProtocolError, match="order-q subgroup"):
            fresh.store_record(replace(rec, abe=replace(rec.abe, wire=bad)))
    assert fresh.record_count == 0
    assert fresh.store_record(rec) == rid and fresh.fetch(rid).abe.elements is not None
    # the frame of the first record, its layer 2 off the curve, tagged under the key
    key = path.with_name("store.log.key").read_bytes()
    with closing(_read_frames(path)) as frames:
        (_, header), *records = frames
    frame = [json.loads(d) for _, d in records if json.loads(d)["record"]["record_id"] == rid][-1]
    off_curve = malformed_encodings(wire.b64d(transferors[0]))["x off the curve"]
    frame["record"]["abe"]["ac_transferors"][0] = wire.b64e(off_curve)
    data = json.dumps(frame).encode()
    store = tmp_path / "store.log"
    store.write_bytes(
        b"".join(_raw_frame(d, hmac.digest(key, d, "sha256")) for d in (header, data))
    )
    store.with_name("store.log.key").write_bytes(key)
    with closing(EscrowServer.open(store)) as tampered:
        pass
    _, _, hit = w.request("x", [1])
    for n in (1, 2):
        with cores(n), pytest.raises(BadRecord):
            tampered.search(hit)
    _assert_no_child_left()


def test_flipped_bit_in_a_tagged_frame_takes_every_check(tmp_path, monkeypatch):
    """One bit flipped at each byte of a server-written record frame (its
    length, tag or payload): the reopen raises a ProtocolError or decodes
    that frame with every check, never an element without its order check.
    Only the header, whose tag still verifies, decodes without them."""
    path = tmp_path / "store.log"
    w = World(store_path=path)
    rid = w.publish(b"a", ["bp"], ["A1"], 1)
    w.server.close()
    log = path.read_bytes()
    start = 36 + int.from_bytes(log[:4], "big")  # the record frame follows the header
    unchecked = []
    for name in ("_g_from_bytes", "_gt_from_bytes"):
        original = getattr(OracleContext, name)

        def hook(self, raw, check_order=True, _original=original):
            if not check_order:
                unchecked.append(raw)
            return _original(self, raw, check_order)

        monkeypatch.setattr(OracleContext, name, hook)
    with closing(EscrowServer.open(path)):
        assert len(unchecked) > w.pks.n  # the intact record frame is trusted
    outcomes = Counter()
    for i in range(start, len(log)):
        flipped = bytearray(log)
        flipped[i] ^= 1 << i % 8
        path.write_bytes(flipped)
        unchecked.clear()
        try:
            with closing(EscrowServer.open(path)) as revived:
                outcomes["checked"] += 1
                if start + 4 <= i < start + 36:  # a flipped tag: the same record
                    assert revived.fetch(rid) == w.server.fetch(rid)
        except ProtocolError:
            outcomes["refused"] += 1
        assert len(unchecked) == w.pks.n, i  # the header's elements only
    assert outcomes["checked"] >= 32 and outcomes["refused"] > 0


def test_open_treats_a_key_file_not_of_32_bytes_as_absent(tmp_path, monkeypatch):
    """A 16-byte key file beside the log is no key: the reopen checks every
    element of every frame, the frame an update then appends is not tagged
    under it, and the next reopen again checks everything."""
    path = tmp_path / "store.log"
    w = World(store_path=path)
    rid = w.publish(b"a", ["bp"], ["A1"], 1)
    w.server.close()
    short = b"k" * 16
    path.with_name("store.log.key").write_bytes(short)
    unchecked = []
    for name in ("_g_from_bytes", "_gt_from_bytes"):
        original = getattr(OracleContext, name)

        def hook(self, raw, check_order=True, _original=original):
            if not check_order:
                unchecked.append(raw)
            return _original(self, raw, check_order)

        monkeypatch.setattr(OracleContext, name, hook)
    with closing(EscrowServer.open(path)) as revived:
        revived.reencrypt(w.owner.update_request(rid, [1], w.pks, keywords=["hr"]))
        updated = revived.fetch(rid)
    with closing(EscrowServer.open(path)) as again:
        assert again.fetch(rid) == updated
    assert unchecked == []
    with closing(_read_frames(path)) as frames:
        tags = [(tag, data) for tag, data in frames]
    assert len(tags) == 3
    assert all(tag != hmac.digest(short, data, "sha256") for tag, data in tags)
    assert tags[-1][0] == bytes(32)


def test_held_layer_3_keeps_no_elements(tmp_path):
    """The server never reads layer 3, so it holds only the names and the
    checked wire form, from a publish, an update and an untagged frame; the
    record bytes are those of the owner's record.  Layer 2 keeps its
    elements, which a keyword hit reads."""
    path = tmp_path / "store.log"
    w = World(store_path=path)
    rec = w.owner.publish(b"a", ["bp"], ["A1", "A2"], 1, w.publics)
    rid = w.server.store_record(rec)
    stored = w.server.fetch(rid)
    assert stored.recovery.elements is None and stored.abe.elements is not None
    assert record_bytes(w.ctx, stored) == record_bytes(w.ctx, replace(rec, record_id=rid))
    assert stored.recovery.wire == wire.RECOVERY.encode(w.ctx, rec.recovery)
    w.server.reencrypt(
        w.owner.update_request(rid, [1], w.pks, policy=["A2"], plaintext=b"b", authorities=w.publics)
    )
    assert w.server.fetch(rid).recovery.elements is None
    w.server.close()
    path.with_name("store.log.key").unlink()
    with closing(EscrowServer.open(path)) as revived:
        assert revived.fetch(rid).recovery.elements is None
        assert revived.fetch(rid) == w.server.fetch(rid)
    session, consent, req = w.request("bp", [1])
    response = w.server.search(req)
    assert w.user.decrypt_matches(session, consent, response, w.pks) == [(rid, b"b")]


def test_store_key_file_is_made_afresh_with_mode_0600(tmp_path):
    """The key file is made afresh with mode 0600 next to the log, over any
    stale one; the key is 32 bytes from ``secrets`` or the caller's."""
    path, key_path = tmp_path / "store.log", tmp_path / "store.log.key"
    key_path.write_bytes(b"stale")
    key_path.chmod(0o644)
    w = World(store_path=path)
    w.publish(b"a", ["bp"], ["A1"], 1)
    w.server.close()
    key = key_path.read_bytes()
    assert stat.S_IMODE(key_path.stat().st_mode) == 0o600
    assert len(key) == 32
    other = tmp_path / "other.log"
    EscrowServer(w.ctx, w.pks, store_path=other).close()
    assert (tmp_path / "other.log.key").read_bytes() != key
    for size in (0, 16, 33):  # only a 32-byte key is ever trusted: refused before any file
        with pytest.raises(ValueError, match="32 bytes"):
            EscrowServer(w.ctx, w.pks, store_path=tmp_path / "short.log", store_key=b"k" * size)
        assert not list(tmp_path.glob("short.log*"))
    seeded = tmp_path / "seeded.log"
    EscrowServer(w.ctx, w.pks, store_path=seeded, store_key=b"k" * 32).close()
    assert (tmp_path / "seeded.log.key").read_bytes() == b"k" * 32
    with open(seeded, "rb") as fh:
        size, tag = int.from_bytes(fh.read(4), "big"), fh.read(32)
        assert tag == hmac.digest(b"k" * 32, fh.read(size), "sha256")


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """The frames of an oracle store log: two records, each published, then
    given new keywords, then a new policy and payload."""
    path = tmp_path_factory.mktemp("log") / "store.log"
    w = World(store_path=path)
    rids = {
        w.publish(b"a", ["bp", "hr"], ["A1", "A2"], 1): 1,
        w.publish(b"b", ["bp"], ["A1"], 2): 2,
    }
    for rid, s in rids.items():
        w.server.reencrypt(w.owner.update_request(rid, [s], w.pks, keywords=["kw"]))
    for rid, s in rids.items():
        w.server.reencrypt(
            w.owner.update_request(
                rid, [s], w.pks, policy=["A1", "A2"], plaintext=b"c", authorities=w.publics
            )
        )
    w.server.close()
    with closing(_read_frames(path)) as frames:
        raw = list(frames)
    return path, [json.loads(data) for _, data in raw], [_raw_frame(d, t) for t, d in raw]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_open_of_mutated_logs_fails_typed_or_matches_full_decodes(small_log, data):
    """Record frames with keys dropped or retyped, or layers swapped between
    frames of one id, and the log cut anywhere: ``open`` raises a
    ProtocolError or holds, per id, a full decode of the id's last frame.
    Every frame is hand-made, so none carries a tag that verifies."""
    _open_mutated_log(small_log, data, tagged=False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_open_of_mutated_server_tagged_logs_fails_typed_or_matches_full_decodes(small_log, data):
    """As above, but each frame left as the server wrote it keeps its tag,
    which verifies under the store key, so its decode skips the order checks."""
    _open_mutated_log(small_log, data, tagged=True)


def _open_mutated_log(small_log, data, tagged):
    path, original, written = small_log
    frames = json.loads(json.dumps(original))
    ids = [f["record"]["record_id"] for f in original[1:]]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        i = data.draw(st.integers(1, len(frames) - 1), label="frame")
        kind = data.draw(st.sampled_from(["drop", "retype", "swap", "swap"]), label="kind")
        if kind == "swap":
            j = data.draw(st.sampled_from([k + 1 for k, r in enumerate(ids) if r == ids[i - 1]]))
            layer = data.draw(st.sampled_from(["sse", "abe", "recovery"]), label="layer")
            a, b = frames[i].get("record"), frames[j].get("record")
            if isinstance(a, dict) and isinstance(b, dict) and layer in a and layer in b:
                a[layer], b[layer] = b[layer], a[layer]
            continue
        paths = list(_key_paths(frames[i]))
        if not paths:
            continue
        key_path = data.draw(st.sampled_from(paths), label="path")
        slot = _parent(frames[i], key_path)
        if kind == "drop":
            del slot[key_path[-1]]
        else:
            slot[key_path[-1]] = data.draw(_JSON, label="value")
    raw = [
        old if tagged and wire.canonical_json(f) == wire.canonical_json(o) else _frame(f)
        for f, o, old in zip(frames, original, written)
    ]
    log = b"".join(raw)
    ends = list(itertools.accumulate(map(len, raw)))
    cut = data.draw(st.just(len(log)) | st.sampled_from(ends) | st.integers(0, len(log)))
    path.write_bytes(log[:cut])
    try:
        server = EscrowServer.open(path)
    except ProtocolError:
        return
    server.close()
    kept = [frame for frame, end in zip(frames, ends) if end <= cut]
    last = {f["record"]["record_id"]: f["record"] for f in kept[1:]}
    assert set(server.record_ids()) == set(last)
    for rid, obj in last.items():
        assert server.fetch(rid) == record_from_wire(server.ctx, obj)


DECODERS = {
    "search-request": search_request_from_wire,
    "search-response": search_response_from_wire,
    "update-request": update_request_from_wire,
}


@pytest.fixture(scope="module")
def messages():
    """A one-record oracle World and the wire forms of a search request that
    matches the record, its response and an update request for it."""
    w = World()
    rid = w.publish(b"a", ["bp"], ["A1"], 1)
    _, _, req = w.request("bp", [1])
    update = w.owner.update_request(rid, [1], w.pks, keywords=["kw"])
    return w, {
        "search-request": search_request_to_wire(w.ctx, req),
        "search-response": search_response_to_wire(w.ctx, w.server.search(req)),
        "update-request": update_request_to_wire(w.ctx, update),
    }


_FIELD_PATHS = {
    "search-request": {"subset": ("token", "subset"), "id": ("credentials", 0, "attribute_id")},
    "search-response": {
        "subset": ("subset",),
        "id": ("matches", 0, "record_id"),
        "policy": ("matches", 0, "policy"),
        "incomplete": ("incomplete_policy",),
        "count": ("stats", "matched"),
    },
    "update-request": {"subset": ("subset",), "id": ("record_id",)},
}
_BAD_FIELDS = [  # (case id, field, value); a kind without the field is not a case
    ("string-subset", "subset", "1"),
    ("string-index", "subset", ["1"]),
    ("float-index", "subset", [1.9]),
    ("bool-index", "subset", [True]),
    ("infinite-index", "subset", [float("inf")]),
    ("list-id", "id", ["x"]),
    ("int-id", "id", 7),
    ("string-policy", "policy", "A1"),
    ("int-policy-name", "policy", ["A1", 2]),
    ("string-incomplete", "incomplete", "xy"),
    ("list-incomplete-id", "incomplete", [["x"]]),
    ("string-count", "count", "many"),
    ("bool-count", "count", True),
    ("float-count", "count", 1.0),
]


@pytest.mark.parametrize(
    "kind, field, value",
    [
        pytest.param(kind, field, value, id=f"{case}-{kind}")
        for case, field, value in _BAD_FIELDS
        for kind in sorted(DECODERS)
        if field in _FIELD_PATHS[kind]
    ],
)
def test_message_decoders_take_only_integer_indices_and_string_ids(messages, kind, field, value):
    """Set indices and stats counts are JSON integers, never bools, floats or
    strings; record and attribute ids are strings, and policies and the
    incomplete-policy ids are lists of strings."""
    w, wires = messages
    obj = json.loads(json.dumps(wires[kind]))
    key_path = _FIELD_PATHS[kind][field]
    _parent(obj, key_path)[key_path[-1]] = value
    with pytest.raises(BadRecord):
        DECODERS[kind](w.ctx, obj)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_messages_fail_typed_or_decode(messages, data):
    """Search requests, search responses and update requests with keys
    dropped or retyped raise a ProtocolError or decode, and a decoded
    request served by ``search`` or ``reencrypt`` raises only a
    ProtocolError."""
    w, wires = messages
    kind = data.draw(st.sampled_from(sorted(wires)), label="message")
    obj = json.loads(json.dumps(wires[kind]))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        key_path = data.draw(st.sampled_from(list(_key_paths(obj))), label="path")
        slot = _parent(obj, key_path)
        if data.draw(st.booleans(), label="drop"):
            del slot[key_path[-1]]
        else:
            slot[key_path[-1]] = data.draw(_JSON, label="value")
    try:
        decoded = DECODERS[kind](w.ctx, obj)
    except ProtocolError:
        return
    server = EscrowServer(w.ctx, w.pks)
    for rid in w.server.record_ids():
        server.store_record(w.server.fetch(rid))
    try:
        if kind == "search-request":
            with cores(1):
                server.search(decoded)
        elif kind == "update-request":
            server.reencrypt(decoded)
    except ProtocolError:
        pass


def test_response_layer_3_nested_past_the_recursion_limit_is_a_bad_record(messages):
    """A user's layer 3 is kept by its canonical encoding, which a value nested
    past the recursion limit cannot have: the response is a BadRecord, never a
    RecursionError."""
    w, wires = messages
    obj = json.loads(json.dumps(wires["search-response"]))
    deep = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    obj["matches"][0]["recovery"]["dtk_transferor"] = deep
    with pytest.raises(BadRecord):
        search_response_from_wire(w.ctx, obj)


def test_open_rejects_store_without_header(tmp_path):
    empty = tmp_path / "empty.log"
    empty.write_bytes(b"")
    with pytest.raises(BadRecord):
        EscrowServer.open(empty)

    # a log whose first frame is a record, not the parameter header
    path = tmp_path / "store.log"
    w = World(store_path=path)
    w.publish(b"a", ["bp"], ["A1"], 1)
    w.server.close()
    raw = path.read_bytes()
    header_size = 36 + int.from_bytes(raw[:4], "big")
    headless = tmp_path / "headless.log"
    headless.write_bytes(raw[header_size:])
    with pytest.raises(BadRecord):
        EscrowServer.open(headless)


def _raw_frame(data: bytes, tag: bytes = bytes(32)) -> bytes:
    """A v2 store frame; the default all-zero tag never verifies, so a
    hand-made frame always takes every element check."""
    return len(data).to_bytes(4, "big") + tag + data


def _frame(obj) -> bytes:
    return _raw_frame(json.dumps(obj).encode())


@pytest.mark.parametrize(
    "frame",
    [
        b"xx",
        b"[]",
        b"\xff\xfe",
        b"null",
        b"[" * 10000 + b"]" * 10000,
        b'{"kind": "record"}',
        {"record_id": ["a"]},
        {"record_id": {"a": 1}},
        {"record_id": 7},
        {"record_id": None},
        {"set_index": float("inf")},
        {"set_index": 1.9},
        {"set_index": "1"},
        {"set_index": True},
    ],
    ids=["not-json", "not-object", "not-utf8", "null", "too-deep", "no-record",
         "list-id", "dict-id", "int-id", "null-id", "infinite-index",
         "float-index", "string-index", "bool-index"],
)
def test_open_rejects_undecodable_frames(tmp_path, frame):
    """Bytes stand for a frame's payload, which must reach the JSON parser (a
    whole frame, so never the truncation check); a dict stands for the stored
    record's frame with those fields replaced."""
    path = tmp_path / "store.log"
    w = World(store_path=path)
    rid = w.publish(b"a", ["bp"], ["A1"], 1)
    w.server.close()
    parser = isinstance(frame, bytes) and not frame.startswith(b"{")
    if isinstance(frame, dict):
        record = dict(record_to_wire(w.ctx, w.server.fetch(rid)), **frame)
        with pytest.raises(BadRecord):
            record_from_wire(w.ctx, record)
        frame = json.dumps({"kind": "record", "record": record}).encode()
    with path.open("ab") as fh:
        fh.write(_raw_frame(frame))
    with pytest.raises(BadRecord, match="store frame is not" if parser else None) as exc:
        EscrowServer.open(path)
    assert "truncated" not in str(exc.value)


@pytest.mark.parametrize("field", ["params", "pks"])
def test_open_rejects_incomplete_header(tmp_path, field):
    path = tmp_path / "store.log"
    World(store_path=path).server.close()
    raw = path.read_bytes()
    header = json.loads(raw[36 : 36 + int.from_bytes(raw[:4], "big")])
    del header[field]
    path.write_bytes(_frame(header))
    with pytest.raises(BadRecord):
        EscrowServer.open(path)


def test_server_state_and_logs_leak_nothing(tmp_path, monkeypatch, caplog):
    """Neither the store bytes nor the server log may contain the keyword,
    the GID, the owner id or the store key.  The table of kept points holds
    only element encodings, each of the point it maps to, under the context;
    the table of subset terms, only e(prod pk_i, kw_modifier^-1) of a stored
    record's public layer 1 and the public set keys; the table of layers 3,
    only the canonical bytes of a layer that crossed the wire in a response,
    each mapped to its own decode."""
    path = tmp_path / "store.log"
    w = World(store_path=path)
    secrets = [b"keyword-SENSITIVE", b"gid-SENSITIVE", b"owner-SENSITIVE"]
    w.owner.owner_id = "owner-SENSITIVE"
    w.user.gid = "gid-SENSITIVE"
    entered = []  # (context, key, point) of each entry the table takes

    def kept(ctx, raw):
        entered.append((ctx, raw, ctx.prepared_from_bytes(raw)))
        return entered[-1][2]

    monkeypatch.setattr(PairingContext, "kept", functools.lru_cache(KEPT_POINTS)(kept))
    layers = []  # (context, key, layer 3) of each entry the table of layers 3 takes

    def kept_recovery(ctx, raw, _decode=server_mod.kept_recovery.__wrapped__):
        layers.append((ctx, raw, _decode(ctx, raw)))
        return layers[-1][2]

    kept_recovery = functools.lru_cache(KEPT_POINTS)(kept_recovery)
    monkeypatch.setattr(server_mod, "kept_recovery", kept_recovery)
    with caplog.at_level(logging.DEBUG, logger="triseal.server"):
        rid = w.publish(b"data", ["keyword-SENSITIVE"], ["A1"], 1)
        session, consent, req = w.request("keyword-SENSITIVE", [1])
        resp = w.server.search(search_request_from_wire(w.ctx, search_request_to_wire(w.ctx, req)))
        assert w.server.search(req) == resp
        wired = search_response_to_wire(w.ctx, resp)
        for response in (search_response_from_wire(w.ctx, wired), resp):
            assert w.user.decrypt_matches(session, consent, response, w.pks) == [(rid, b"data")]
    assert [m.record_id for m in resp.matches] == [rid]
    # the table of subset terms: one GT value of the record's kw_modifier and pks alone
    kw_modifier = w.server.fetch(rid).sse.kw_modifier
    term = w.ctx.pair(w.pks.left[0], w.ctx.group_inverse(kw_modifier))
    assert list(w.server._terms.items()) == [(kw_modifier, {(1,): term})]
    assert all(secret not in w.ctx.gt_to_bytes(term) for secret in secrets)
    # the token and the subset product, each entered once
    assert [point for _, _, point in entered] == [req.token.token, w.pks.left[0]]
    assert PairingContext.kept.cache_info().currsize == len(entered)
    for ctx, raw, point in entered:
        assert ctx is w.ctx and type(raw) is bytes and type(point) is GroupElement
        assert point.side is Side.LEFT and ctx.element_to_bytes(point) == raw
        assert all(secret not in raw for secret in secrets)
    w.server.close()
    stored = path.read_bytes()
    log_text = caplog.text.encode()
    key = (tmp_path / "store.log.key").read_bytes()
    # the table of layers 3: the match's layer as it crossed the wire, entered once
    crossed = [wire.canonical_json(match["recovery"]) for match in wired["matches"]]
    assert [raw for _, raw, _ in layers] == crossed
    assert kept_recovery.cache_info().currsize == len(layers)
    for ctx, raw, layer in layers:
        assert ctx is w.ctx and type(raw) is bytes and type(layer) is KeyRecoveryElements
        assert wire.canonical_json(wire.RECOVERY.encode(ctx, layer)) == raw
    for secret in secrets + [key, key.hex().encode(), wire.b64e(key).encode()]:
        assert secret not in stored
        assert secret not in log_text
        assert all(secret not in raw for _, raw, _ in layers)
    # type construction: no record field can hold those strings
    field_names = {f.name for f in fields(DataRecord)}
    assert field_names == {"record_id", "set_index", "sse", "abe", "recovery", "payload"}
    blob = record_to_wire(w.ctx, w.server.fetch(rid))
    assert all(s.decode() not in str(blob) for s in secrets)


def test_records_are_immutable():
    w = World()
    rid = w.publish(b"x", ["bp"], ["A1"], 1)
    rec = w.server.fetch(rid)
    with pytest.raises(FrozenInstanceError):
        rec.set_index = 2


def test_searches_concurrent_with_updates_see_whole_records():
    """Readers racing an updater observe each record either entirely before
    or entirely after a swap, never a mix.  Every version pairs a unique
    keyword with a unique payload, so a torn read would surface as a match
    whose payload disagrees with its keyword."""
    import threading

    w = World()
    rid = w.publish(b"v0", ["v0"], ["A1"], 1)
    initial = w.server.fetch(rid)
    expected = {"v0": (initial.payload, initial.recovery)}  # layer 3 as the server holds it
    requests = {}
    for i in range(8):
        kw = f"v{i + 1}"
        upd = w.owner.update_request(
            rid, [1], w.pks, keywords=[kw], policy=["A1"],
            plaintext=kw.encode(), authorities=w.publics,
        )
        held = server_mod.held(w.ctx, upd.new_recovery)
        expected[kw] = (upd.new_payload, held)
        requests[kw] = upd
    search_reqs = {kw: w.request(kw, [1])[2] for kw in expected}

    failures = []
    stop = threading.Event()

    def reader():
        rng = random.Random()
        while not stop.is_set():
            kw = rng.choice(list(expected))
            for match in w.server.search(search_reqs[kw]).matches:
                if (match.payload, match.recovery) != expected[kw]:
                    failures.append(f"torn read for {kw}")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for kw in sorted(requests):
        w.server.reencrypt(requests[kw])
    stop.set()
    for t in threads:
        t.join()
    assert not failures
    # final state is the last version
    _, _, last = w.request("v8", [1])
    assert [m.record_id for m in w.server.search(last).matches] == [rid]
