"""Actor flows: end-to-end round trips, blinding freshness, replayability."""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from triseal import recovery, sse, wire
from triseal.actors import Authority, Owner, User, user_request
from triseal.errors import IncompleteTokens, MissingApk, WrongKey
from triseal.pairing import HashDomain, OracleContext, PairingContext
from triseal.pairing import curve
from triseal.server import EscrowServer, MatchedRecord, record_bytes, update_request_to_wire


def build_world(seed, n_sets=4, attrs=("A1", "A2", "A3"), ctx=None):
    ctx = ctx or OracleContext()
    rng = random.Random(seed)
    pks = sse.server_setup(ctx, n_sets, rng)
    server = EscrowServer(ctx, pks)
    authorities = {
        a: Authority.create(ctx, a, random.Random((seed + 1) * 1000 + i))
        for i, a in enumerate(attrs)
    }
    publics = {a: auth.public() for a, auth in authorities.items()}
    owner = Owner.create(ctx, "owner", random.Random(seed + 2))
    user = User(ctx, "user-gid", random.Random(seed + 3))
    return ctx, pks, server, authorities, publics, owner, user


def test_end_to_end_randomized_round_trips():
    """100 randomized scenarios: random keywords, 1-4 attributes, up to 8
    data sets; the published plaintext always comes back byte-identical."""
    rng = random.Random(71)
    for trial in range(100):
        n_sets = rng.randrange(1, 9)
        n_attrs = rng.randrange(1, 5)
        attrs = tuple(f"A{i}" for i in range(n_attrs))
        ctx, pks, server, authorities, publics, owner, user = build_world(
            1000 + trial, n_sets, attrs
        )
        plaintext = rng.randbytes(rng.randrange(0, 200))
        keywords = [f"kw-{rng.randrange(10**6)}" for _ in range(rng.randrange(1, 4))]
        policy = list(attrs[: rng.randrange(1, n_attrs + 1)])
        set_index = rng.randrange(1, n_sets + 1)
        rid = server.store_record(
            owner.publish(plaintext, keywords, policy, set_index, publics)
        )
        subset = sorted(set(rng.sample(range(1, n_sets + 1), rng.randrange(1, n_sets + 1)))
                        | {set_index})
        results = user_request(
            user, owner, [authorities[a] for a in policy], server,
            rng.choice(keywords), subset,
        )
        assert results == [(rid, plaintext)]


def test_publish_preconditions():
    ctx, pks, server, authorities, publics, owner, user = build_world(72)
    with pytest.raises(ValueError):
        owner.publish(b"x", [], ["A1"], 1, publics)
    with pytest.raises(MissingApk):
        owner.publish(b"x", ["bp"], ["A1", "UNKNOWN"], 1, publics)


def test_publish_twice_shares_no_elements():
    ctx, pks, server, authorities, publics, owner, user = build_world(73)
    a = owner.publish(b"same", ["bp"], ["A1"], 1, publics)
    b = owner.publish(b"same", ["bp"], ["A1"], 1, publics)

    def elements(record):
        return (
            {record.sse.stk_transferor, record.sse.kw_modifier, record.sse.update_keyword}
            | set(record.sse.tagged_keywords)
            | set(record.abe.ac_transferors)
            | set(record.abe.plcy_modifiers)
            | {record.abe.plcy}
            | {record.recovery.dtk_transferor, record.recovery.dtk_owner_modifier}
            | set(record.recovery.dtk_aa_transferors)
            | set(record.recovery.dtk_aa_modifiers)
            | {record.recovery.wrapped_key}
        )

    assert elements(a).isdisjoint(elements(b))
    assert a.payload != b.payload


def test_unqualified_user_gets_nothing():
    ctx, pks, server, authorities, publics, owner, user = build_world(74)
    server.store_record(owner.publish(b"secret", ["bp"], ["A1", "A2"], 1, publics))
    results = user_request(user, owner, [authorities["A1"]], server, "bp", [1])
    assert results == []


def test_sessions_use_fresh_blindings():
    ctx, pks, server, authorities, publics, owner, user = build_world(75)
    s1 = user.new_session()
    s2 = user.new_session()
    assert s1.blinded.element != s2.blinded.element
    assert s1.blinded_r.element != s2.blinded_r.element
    for s in (s1, s2):
        user.collect(s, authorities["A1"])
    consent = owner.consent("bp", [1], pks)
    r1 = user.build_search_request(s1, consent)
    r2 = user.build_search_request(s2, consent)
    assert r1.blinded.element != r2.blinded.element
    assert r1.credentials != r2.credentials


def test_mixed_decrypt_tokens_surface_as_wrong_key():
    ctx, pks, server, authorities, publics, owner, user = build_world(76)
    rid = server.store_record(owner.publish(b"x", ["bp"], ["A1", "A2"], 1, publics))
    session = user.new_session()
    for a in ("A1", "A2"):
        user.collect(session, authorities[a])
    consent = owner.consent("bp", [1], pks)
    response = server.search(user.build_search_request(session, consent))
    assert len(response.matches) == 1
    # replace one decryption token with one issued under a different blinding
    rogue = user.new_session()
    session.decrypt_tokens["A2"] = recovery.issue_decrypt_token(
        ctx, authorities["A2"].kp_dtk, rogue.blinded_r
    )
    with pytest.raises(WrongKey):
        user.decrypt_matches(session, consent, response, pks)


def test_uncollected_policy_attribute_surfaces_as_incomplete_tokens():
    """A response match naming an attribute the session never collected (a
    server returning a record whose policy the user cannot meet) is refused
    with a typed error, not a KeyError."""
    ctx, pks, server, authorities, publics, owner, user = build_world(78)
    rid = server.store_record(owner.publish(b"x", ["bp"], ["A1", "A2", "A3"], 1, publics))
    session = user.new_session()
    for a in ("A1", "A2"):
        user.collect(session, authorities[a])
    consent = owner.consent("bp", [1], pks)
    honest = server.search(user.build_search_request(session, consent))
    assert honest.matches == () and honest.incomplete_policy == (rid,)
    rec = server.fetch(rid)
    doctored = replace(
        honest,
        matches=(MatchedRecord(rid, rec.payload, rec.recovery, rec.abe.attrs),),
        incomplete_policy=(),
    )
    with pytest.raises(IncompleteTokens):
        user.decrypt_matches(session, consent, doctored, pks)


def test_deterministic_replay_from_seeds():
    """Identical seeds reproduce identical record bytes and request wire
    content across two independent runs."""

    def run():
        ctx, pks, server, authorities, publics, owner, user = build_world(77)
        record = owner.publish(b"payload", ["bp"], ["A1"], 2, publics)
        rid = server.store_record(record)
        session = user.new_session()
        user.collect(session, authorities["A1"])
        consent = owner.consent("bp", [1, 2], pks)
        request = user.build_search_request(session, consent)
        return (
            record_bytes(ctx, server.fetch(rid)),
            ctx.element_to_bytes(request.token.token),
            ctx.element_to_bytes(request.blinded.element),
            ctx.element_to_bytes(request.credentials[0].credential),
        )

    assert run() == run()


def test_consent_pairs_search_and_decrypt_tokens():
    ctx, pks, server, authorities, publics, owner, user = build_world(78)
    grant = owner.consent("bp", [2, 1], pks)
    assert grant.subset == (1, 2)  # normalized
    assert grant.search_token.subset == grant.subset
    expected = recovery.consent_decrypt_token(ctx, owner.recovery_key, (1, 2), pks)
    assert grant.owner_decrypt_token == expected


# recorded from the curve write side before the generator lines and the
# held identity hashes existed; every byte must stay the same
_PIN_RECORD = "017ad0521dbf64044e4f16168123005ff48c391111839d99db528baf87abcd99"
_PIN_UPDATE = "d2301942650cb2bea6e50d74cf72fe780e66eafaeef1934f45b55503dc4bcc89"
_PIN_BLINDED = (
    "036db7b06883b4f43d1ed2c621976335a72f0a037f171e18522c644eaa8ce4503d"
    "f39eec72e35cfa21fe48a8be01fc8842df6e4997d8f110b300a826924e8e4bdf"
)
_PIN_BLINDED_R = (
    "0364b3f43b6cbb3f7db3fc19826282d1a7db2366ef5c86c1c28f0f29857e5fedb1"
    "421f1bb2000a96738cdaa05d8b695b982cac5d9aedfe5fa7601eef1f28d13483"
)


def test_curve_write_side_known_answers(curve_ctx):
    ctx, pks, server, authorities, publics, owner, user = build_world(
        90, n_sets=3, attrs=("A1", "A2"), ctx=curve_ctx
    )
    record = owner.publish(b"pinned payload", ["bp", "hr"], ["A1", "A2"], 1, publics)
    assert hashlib.sha256(record_bytes(ctx, record)).hexdigest() == _PIN_RECORD
    rid = server.store_record(record)
    update = owner.update_request(rid, [1, 2], pks, keywords=["rotated", "bp"])
    raw = wire.canonical_json(update_request_to_wire(ctx, update))
    assert hashlib.sha256(raw).hexdigest() == _PIN_UPDATE
    session = user.new_session()
    assert ctx.element_to_bytes(session.blinded.element).hex() == _PIN_BLINDED
    assert ctx.element_to_bytes(session.blinded_r.element).hex() == _PIN_BLINDED_R


# recorded before one builder made every owner layer; every byte must stay
# the same
_PIN_POLICY_UPDATE = "64c57fbd92c2aa644cb07d8e7400dfb7ff560e994006ed3fb8ca6c0cdf28edd4"
_PIN_BOTH_UPDATE = "041dc377717ffbd9d989847244f38620a6dd46743d0f88e411ef04d6486b0b35"


def test_curve_policy_rotation_known_answers(curve_ctx):
    """A policy-plus-payload rotation, then one that rotates keywords and
    policy together; both accepted and pinned like the keyword rotation."""
    ctx, pks, server, authorities, publics, owner, user = build_world(
        92, n_sets=3, attrs=("A1", "A2"), ctx=curve_ctx
    )
    rid = server.store_record(owner.publish(b"pinned payload", ["bp"], ["A1"], 1, publics))
    pins = []
    for rotation in (
        dict(policy=["A2", "A1"], plaintext=b"rotated payload"),
        dict(keywords=["hr", "bp"], policy=["A2"], plaintext=b"both rotated"),
    ):
        update = owner.update_request(rid, [1, 3], pks, authorities=publics, **rotation)
        assert server.reencrypt(update) == rid
        raw = wire.canonical_json(update_request_to_wire(ctx, update))
        pins.append(hashlib.sha256(raw).hexdigest())
    assert pins == [_PIN_POLICY_UPDATE, _PIN_BOTH_UPDATE]


def test_curve_fixed_operands_are_computed_once(curve_ctx, monkeypatch):
    """Pairings against a generator reuse its permanent Miller lines, and
    the owner and user hash their identities once, not per operation."""
    ctx, pks, server, authorities, publics, owner, user = build_world(
        91, n_sets=3, attrs=("A1", "A2"), ctx=curve_ctx
    )
    calls = Counter()
    lines = curve._miller_lines
    monkeypatch.setattr(curve, "_miller_lines", lambda p: calls.update(["lines"]) or lines(p))
    ctx.pair(ctx.hash_to_group(HashDomain.KEYWORD, b"fresh"), ctx.g_right)
    assert calls["lines"] == 0
    ctx.gt_generator
    assert calls["lines"] == 0
    owner.publish(b"first", ["bp", "hr"], ["A1"], 1, publics)
    user.new_session()
    original = PairingContext.hash_to_group

    def counted(*args, **kwargs):
        calls["hash_to_group"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(PairingContext, "hash_to_group", counted)
    owner.publish(b"second", ["bp", "hr"], ["A1"], 1, publics)
    assert calls["hash_to_group"] == 2  # the two keywords
    calls.clear()
    user.new_session()
    assert calls["hash_to_group"] == 0


def test_update_request_argument_rules():
    ctx, pks, server, authorities, publics, owner, user = build_world(73)
    with pytest.raises(ValueError):  # a new policy without the plaintext it wraps
        owner.update_request("rid", [1], pks, policy=["A1"], authorities=publics)
    with pytest.raises(ValueError):  # a new plaintext without a new policy
        owner.update_request("rid", [1], pks, plaintext=b"x")
