"""Wire and file schemas: every serialized surface round-trips losslessly."""

import json
import random

import pytest

from triseal import abe, recovery, sse, wire
from triseal.actors import Authority, Owner, User
from triseal.errors import BadRecord, ProtocolError
from triseal.pairing import HashDomain, OracleContext, context_from_header
from triseal.server import (
    EscrowServer,
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


@pytest.fixture
def world():
    ctx = OracleContext()
    rng = random.Random(81)
    pks = sse.server_setup(ctx, 3, rng)
    server = EscrowServer(ctx, pks)
    authority = Authority.create(ctx, "A1", random.Random(82))
    owner = Owner.create(ctx, "alice", random.Random(83))
    user = User(ctx, "bob", random.Random(84))
    rid = server.store_record(
        owner.publish(b"data", ["bp"], ["A1"], 1, {"A1": authority.public()})
    )
    return ctx, pks, server, authority, owner, user, rid


def roundtrip(obj):
    """Through canonical JSON bytes, as files and pipes would carry it."""
    return json.loads(wire.canonical_json(obj))


def test_record_round_trip(world):
    ctx, _, server, _, _, _, rid = world
    rec = server.fetch(rid)
    revived = record_from_wire(ctx, roundtrip(record_to_wire(ctx, rec)))
    assert revived == rec
    assert record_bytes(ctx, revived) == record_bytes(ctx, rec)


def test_record_rejects_corrupted_elements(world):
    ctx, _, server, _, _, _, rid = world
    blob = record_to_wire(ctx, server.fetch(rid))
    blob["sse"] = dict(blob["sse"], stk_transferor=wire.b64e(b"\x01" * 3))
    with pytest.raises(BadRecord):
        record_from_wire(ctx, blob)
    blob2 = record_to_wire(ctx, server.fetch(rid))
    del blob2["recovery"]
    with pytest.raises(BadRecord):
        record_from_wire(ctx, blob2)
    with pytest.raises(BadRecord):  # a number where base64 text belongs
        record_from_wire(ctx, dict(record_to_wire(ctx, server.fetch(rid)), payload=5))


def test_pks_round_trip(world):
    ctx, pks, *_ = world
    revived = wire.PKS.decode(ctx, roundtrip(wire.PKS.encode(ctx, pks)))
    assert revived == pks


def test_search_request_and_response_round_trip(world):
    ctx, pks, server, authority, owner, user, rid = world
    session = user.new_session()
    user.collect(session, authority)
    consent = owner.consent("bp", [1, 2], pks)
    request = user.build_search_request(session, consent)

    revived_req = search_request_from_wire(ctx, roundtrip(search_request_to_wire(ctx, request)))
    assert revived_req == request

    response = server.search(revived_req)
    revived_resp = search_response_from_wire(
        ctx, roundtrip(search_response_to_wire(ctx, response))
    )
    # the server's response holds layer 3 as its wire form, the user's elements
    assert search_response_to_wire(ctx, revived_resp) == search_response_to_wire(ctx, response)
    assert [m.record_id for m in revived_resp.matches] == [rid]


def test_update_request_round_trip_and_apply(world):
    ctx, pks, server, _, owner, _, rid = world
    request = owner.update_request(rid, [1], pks, keywords=["rotated"])
    revived = update_request_from_wire(ctx, roundtrip(update_request_to_wire(ctx, request)))
    assert revived == request
    assert server.reencrypt(revived) == rid


def test_params_header_embedded_everywhere(world):
    ctx, pks, server, authority, owner, user, rid = world
    session = user.new_session()
    user.collect(session, authority)
    consent = owner.consent("bp", [1], pks)
    request = user.build_search_request(session, consent)
    response = server.search(request)
    messages = {
        search_request_from_wire: search_request_to_wire(ctx, request),
        search_response_from_wire: search_response_to_wire(ctx, response),
        update_request_from_wire: update_request_to_wire(
            ctx, owner.update_request(rid, [1], pks, keywords=["x"])
        ),
    }
    for envelope in messages.values():
        assert context_from_header(envelope["params"]).fingerprint == ctx.fingerprint

    # decoders check the header: kind, and the server's own parameters; a
    # foreign oracle of the same element width would decode every element
    foreign = OracleContext(2**128 - 159)
    for decode, envelope in messages.items():
        wrong_kind = [e for d, e in messages.items() if d is not decode]
        wrong_kind.append(dict(envelope, kind="consent"))
        for other in wrong_kind:
            with pytest.raises(ProtocolError):
                decode(ctx, roundtrip(other))
        with pytest.raises(ProtocolError):
            decode(foreign, roundtrip(envelope))


# canonical bytes of the update request built from the ``world`` fixture
UPDATE_REQUEST_BYTES = (
    b'{"format":1,"kind":"update-request","new_abe":null,"new_payload":null,'
    b'"new_recovery":null,"new_sse":{"kw_modifier":"ZArp1wtbvM4qsMxy9yQqyw==",'
    b'"stk_transferor":"HEypzsQ2rWbSxRSzgcluag==","tagged_keywords":'
    b'["ankas8oCr519MGY3mEFusQ==","Ipyc7BJwZ3KFqivY1nETtw=="],'
    b'"update_keyword":"JjPV0cCrHfNlRAkLaxuHGA=="},"params":{"backend":"oracle",'
    b'"format":1,"q":"7fffffffffffffffffffffffffffffff"},'
    b'"record_id":"2c94412361c80592002c8621c5fd46b2","rtk":"WVGjPM4XBtq4h4B2_4SwCQ==",'
    b'"subset":[1]}'
)


def test_update_request_known_answer(world):
    ctx, pks, _, _, owner, _, rid = world
    request = owner.update_request(rid, [1], pks, keywords=["rotated"])
    assert wire.canonical_json(update_request_to_wire(ctx, request)) == UPDATE_REQUEST_BYTES


def test_abe_wire_sorts_policy_attributes():
    ctx = OracleContext()
    rng = random.Random(85)
    kps = {a: abe.aa_setup(ctx, a, rng) for a in ("B2", "A1", "C3")}
    elems = abe.abe_policy_encrypt(
        ctx,
        ["C3", "A1", "B2"],
        {a: kp.apk for a, kp in kps.items()},
        {a: ctx.random_scalar(rng) for a in kps},
    )
    blob = wire.ABE.encode(ctx, elems)
    assert blob["attrs"] == ["A1", "B2", "C3"]
    revived = wire.ABE.decode(ctx, blob)
    blinded = abe.blind_identity(
        ctx, ctx.hash_to_group(HashDomain.GID, "gid"), ctx.random_scalar(rng)
    )
    creds = [abe.issue_credential(ctx, kps[a], blinded) for a in kps]
    assert abe.abe_verify(ctx, abe.prepare_policy(ctx, revived), creds, blinded) is True


def test_policy_attributes_decode_only_as_sorted_strings():
    """Decoding what a decoded policy layer encodes to gives that layer back
    (a reopened store reuses layers on this), so the decoders take the
    attributes only in the sorted order the encoders write, and only as a
    list of strings (the string "AB" is not the list ["A", "B"])."""
    ctx = OracleContext()
    rng = random.Random(86)
    policy = ["B2", "A1"]
    abe_elems = abe.abe_policy_encrypt(
        ctx,
        policy,
        {a: abe.aa_setup(ctx, a, rng).apk for a in policy},
        {a: ctx.random_scalar(rng) for a in policy},
    )
    recovery_elems = recovery.wrap_key(
        ctx,
        recovery.new_recovery_key(ctx, rng),
        policy,
        {a: recovery.recovery_aa_setup(ctx, a, rng).apk_dtk for a in policy},
        ctx.random_scalar(rng),
        {a: ctx.random_scalar(rng) for a in policy},
        ctx.random_gt(rng),
    )
    for to_wire, from_wire, elems in (
        (wire.ABE.encode, wire.ABE.decode, abe_elems),
        (wire.RECOVERY.encode, wire.RECOVERY.decode, recovery_elems),
    ):
        blob = to_wire(ctx, elems)
        decoded = from_wire(ctx, blob)
        assert decoded.attrs == ("A1", "B2")
        assert from_wire(ctx, to_wire(ctx, decoded)) == decoded
        for attrs in (["B2", "A1"], ["A1", 7], ["A1", ["B2"]], [], "AB"):
            with pytest.raises(BadRecord):
                from_wire(ctx, dict(blob, attrs=attrs))
