"""Model-based protocol test: random interleavings of publishes, searches,
decryptions, updates and store reopens on the oracle backend, each checked
against a plain-Python model of what every record holds."""

import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
    run_state_machine_as_test,
)

from cores import cores
from triseal import server as server_mod
from triseal import sse
from triseal.actors import Authority, Owner, User
from triseal.errors import UpdateRejected
from triseal.pairing import OracleContext
from triseal.server import EscrowServer, record_bytes
from triseal.server import search_response_from_wire, search_response_to_wire

N_SETS = 3
ATTRS = ("A1", "A2", "A3")
KEYWORDS = ("bp", "hr", "ecg")
OWNERS = ("alice", "bob")

set_indices = st.integers(1, N_SETS)
subsets = st.lists(set_indices, min_size=1, max_size=N_SETS, unique=True)
keyword_lists = st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=2, unique=True)
policies = st.lists(st.sampled_from(ATTRS), min_size=1, max_size=2, unique=True)
plaintexts = st.binary(max_size=24)
records_to_publish = st.tuples(
    st.sampled_from(OWNERS), set_indices, keyword_lists, policies, plaintexts
)


@dataclass(frozen=True)
class Entry:
    """The model of one record: what its owner last wrote into it."""

    owner: str
    set_index: int
    keywords: frozenset
    policy: frozenset
    plaintext: bytes


class Protocol(RuleBasedStateMachine):
    records = Bundle("records")

    def __init__(self):
        super().__init__()
        self.ctx = OracleContext()
        self.pks = sse.server_setup(self.ctx, N_SETS, random.Random(1))
        self.home = Path(tempfile.mkdtemp(prefix="triseal-model-"))
        self.path = self.home / "store.log"
        self.server = EscrowServer(self.ctx, self.pks, store_path=self.path)
        self.authorities = {
            a: Authority.create(self.ctx, a, random.Random(10 + i)) for i, a in enumerate(ATTRS)
        }
        self.publics = {a: auth.public() for a, auth in self.authorities.items()}
        self.owners = {
            o: Owner.create(self.ctx, o, random.Random(20 + i)) for i, o in enumerate(OWNERS)
        }
        self.user = User(self.ctx, "user-gid", random.Random(30))
        self.model: dict[str, Entry] = {}  # in store order, as the server scans
        self.searches = []  # (session, consent, response, expected plaintexts), newest last

    def teardown(self):
        self.server.close()
        shutil.rmtree(self.home, ignore_errors=True)

    def _subset_with(self, rid: str, extra: list[int]) -> list[int]:
        return sorted({self.model[rid].set_index, *extra})

    def _state(self, server: EscrowServer) -> list[bytes]:
        return [record_bytes(self.ctx, server.fetch(rid)) for rid in server.record_ids()]

    # -- owner writes ------------------------------------------------------------

    @initialize(target=records, specs=st.lists(records_to_publish, min_size=3, max_size=6))
    def publish_some(self, specs):
        """Start every run with a few records, so searches have candidates."""
        return multiple(*(self.publish(*spec) for spec in specs))

    @rule(target=records, spec=records_to_publish)
    def publish_one(self, spec):
        return self.publish(*spec)

    def publish(self, owner, set_index, keywords, policy, plaintext):
        rec = self.owners[owner].publish(plaintext, keywords, policy, set_index, self.publics)
        rid = self.server.store_record(rec)
        assert rid not in self.model
        self.model[rid] = Entry(owner, set_index, frozenset(keywords), frozenset(policy), plaintext)
        return rid

    @rule(rid=records, keywords=keyword_lists, extra=subsets)
    def rotate_keywords(self, rid, keywords, extra):
        entry = self.model[rid]
        request = self.owners[entry.owner].update_request(
            rid, self._subset_with(rid, extra), self.pks, keywords=keywords
        )
        assert self.server.reencrypt(request) == rid
        self.model[rid] = replace(entry, keywords=frozenset(keywords))

    @rule(
        rid=records,
        policy=policies,
        plaintext=plaintexts,
        keywords=st.none() | keyword_lists,
        extra=subsets,
    )
    def rotate_policy(self, rid, policy, plaintext, keywords, extra):
        """A policy-plus-payload rotation, with or without new keywords, read
        back before and after: the new layer 3 is decoded, not the one kept."""
        self.read_back(rid)
        entry = self.model[rid]
        request = self.owners[entry.owner].update_request(
            rid,
            self._subset_with(rid, extra),
            self.pks,
            keywords=keywords,
            policy=policy,
            plaintext=plaintext,
            authorities=self.publics,
        )
        assert self.server.reencrypt(request) == rid
        self.model[rid] = replace(
            entry,
            keywords=entry.keywords if keywords is None else frozenset(keywords),
            policy=frozenset(policy),
            plaintext=plaintext,
        )
        self.read_back(rid)

    def _rejected(self, request):
        before, size = self._state(self.server), self.path.stat().st_size
        with pytest.raises(UpdateRejected):
            self.server.reencrypt(request)
        assert self._state(self.server) == before  # byte-identical, nothing logged
        assert self.path.stat().st_size == size

    @rule(rid=records, extra=subsets, exponent=st.none() | st.integers(1, 2**64))
    def forged_rtk(self, rid, extra, exponent):
        """An update whose rtk is another owner's, or g^exponent."""
        entry = self.model[rid]
        other = next(o for o in OWNERS if o != entry.owner)
        request = self.owners[other].update_request(
            rid, self._subset_with(rid, extra), self.pks, keywords=["forged"]
        )
        if exponent is not None:
            request = replace(request, rtk=self.ctx.g_left**exponent)
        self._rejected(request)

    @rule(rid=records, extra=subsets, signed=subsets)
    def wrong_subset_rtk(self, rid, extra, signed):
        """The owner's rtk for one subset, declared for another that holds
        the record; or a declared subset that misses the record."""
        entry = self.model[rid]
        owner = self.owners[entry.owner]
        declared = self._subset_with(rid, extra)
        request = owner.update_request(rid, declared, self.pks, keywords=["moved"])
        if sorted(signed) != declared:
            request = replace(request, rtk=owner.reencryption_token(signed, self.pks))
        else:
            outside = [i for i in range(1, N_SETS + 1) if i != entry.set_index]
            request = owner.update_request(rid, outside, self.pks, keywords=["moved"])
        self._rejected(request)

    # -- user reads ---------------------------------------------------------------

    @rule(
        owner=st.sampled_from(OWNERS),
        keyword=st.sampled_from(KEYWORDS + OWNERS),
        subset=subsets,
        lacking=st.sampled_from([(), *((a,) for a in ATTRS)]),
    )
    def search(self, owner, keyword, subset, lacking):
        """Search by keyword, or by owner id (every record tags its owner),
        as a user who holds every attribute but those ``lacking``."""
        held = set(ATTRS).difference(lacking)
        session = self.user.new_session()
        for a in sorted(held):
            self.user.collect(session, self.authorities[a])
        consent = self.owners[owner].consent(keyword, subset, self.pks)
        request = self.user.build_search_request(session, consent)
        with cores(2):
            response = self.server.search(request)

        candidates = [rid for rid, e in self.model.items() if e.set_index in subset]
        hits = [
            rid
            for rid in candidates
            if self.model[rid].owner == owner
            and (keyword in self.model[rid].keywords or keyword == owner)
        ]
        allowed = [rid for rid in hits if self.model[rid].policy <= held]
        assert [m.record_id for m in response.matches] == allowed
        assert list(response.incomplete_policy) == [rid for rid in hits if rid not in allowed]
        assert response.stats.candidates == len(candidates)
        assert response.stats.sse_matched == len(hits)
        expected = [(rid, self.model[rid].plaintext) for rid in allowed]
        if expected:
            self.searches = [*self.searches[-3:], (session, consent, response, expected)]
            self._decrypt(*self.searches[-1])

    @rule(rid=records)
    def read_back(self, rid):
        """A user who holds every attribute finds the record by its owner id
        over its own set and decrypts it to what its owner last wrote."""
        entry = self.model[rid]
        self.search(entry.owner, entry.owner, [entry.set_index], ())
        assert (rid, entry.plaintext) in self.searches[-1][3]

    @precondition(lambda self: self.searches)
    @rule(back=st.integers(0, 3))
    def decrypt(self, back):
        """One of the last four responses with a match (each decrypted once
        when it came) decrypts to the plaintexts at search time, passed through
        the wire and in-process: each layer 3 goes through the process's table
        of kept layers, met again by a repeated decrypt and missed by a layer
        that a policy rotation wrote, while an older response still holds the
        layer it was sent with."""
        self._decrypt(*self.searches[max(-len(self.searches), -1 - back)])

    def _decrypt(self, session, consent, response, expected):
        wired = search_response_from_wire(self.ctx, search_response_to_wire(self.ctx, response))
        for matches in (wired, response):
            assert self.user.decrypt_matches(session, consent, matches, self.pks) == expected

    # -- server restart ------------------------------------------------------------

    @rule()
    def reopen(self):
        self.server.close()
        reopened = EscrowServer.open(self.path)
        assert reopened.pks.left == self.pks.left
        assert reopened.record_ids() == self.server.record_ids()
        assert self._state(reopened) == self._state(self.server)
        self.server = reopened

    @invariant()
    def server_holds_the_model(self):
        assert list(self.server.record_ids()) == list(self.model)
        for rid, entry in self.model.items():
            rec = self.server.fetch(rid)
            assert rec.set_index == entry.set_index
            assert set(rec.abe.attrs) == set(rec.recovery.attrs) == entry.policy
            assert len(rec.sse.tagged_keywords) == len(entry.keywords) + 1  # + owner tag


def test_protocol_matches_model():
    server_mod.kept_recovery.cache_clear()
    run_state_machine_as_test(
        Protocol,
        settings=settings(
            max_examples=100,
            stateful_step_count=15,
            derandomize=True,
            database=None,
            deadline=None,
        ),
    )
    hits, misses = server_mod.kept_recovery.cache_info()[:2]
    assert hits > 0 and misses > 0
