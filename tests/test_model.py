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
from triseal import sse
from triseal.actors import Authority, Owner, User
from triseal.errors import UpdateRejected
from triseal.pairing import OracleContext
from triseal.server import EscrowServer, record_bytes

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
        self.last_search = None  # (session, consent, response, expected plaintexts)

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
        """A policy-plus-payload rotation, with or without new keywords."""
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
        self.last_search = session, consent, response, expected

    @precondition(lambda self: self.last_search and self.last_search[3])
    @rule()
    def decrypt(self):
        """The last response decrypts to the plaintexts at search time."""
        session, consent, response, expected = self.last_search
        assert self.user.decrypt_matches(session, consent, response, self.pks) == expected

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
