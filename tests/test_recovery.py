"""Key-recovery layer: the full worked vector plus round-trip properties."""

import random
from dataclasses import replace

import pytest

from exponent_oracle import brute_inverse, sum_mod
from hash_pins import pin_hash
from triseal import abe, payload, recovery, sse, wire
from triseal.errors import (
    EmptySubset,
    IncompleteTokens,
    InvalidBlinding,
    NonceReuse,
    NonInvertible,
)
from triseal.pairing import HashDomain, OracleContext


def vector_ctx():
    ctx = OracleContext(101)
    pin_hash(ctx, HashDomain.GID, b"gid", 9)
    return ctx


def vector_recovery_kps(ctx):
    return (
        recovery.recovery_aa_setup(ctx, "A1", ask=17),
        recovery.recovery_aa_setup(ctx, "A2", ask=19),
    )


def vector_wrap(ctx):
    kp1, kp2 = vector_recovery_kps(ctx)
    mask = ctx.gt_generator**50
    elems = recovery.wrap_key(
        ctx,
        recovery.OwnerRecoveryKey(sk_dtk=5),
        ["A1", "A2"],
        {"A1": kp1.apk_dtk, "A2": kp2.apk_dtk},
        8,
        {"A1": 12, "A2": 14},
        mask,
    )
    return elems, mask, (kp1, kp2)


def test_wrap_key_vector():
    ctx = vector_ctx()
    elems, _, _ = vector_wrap(ctx)
    assert elems.dtk_transferor.data == 8 * brute_inverse(5) % 101 == 42
    assert elems.dtk_owner_modifier.data == 8
    assert elems.dtk_aa_transferors[0].data == 12 * brute_inverse(17) % 101 == 72
    assert elems.dtk_aa_transferors[1].data == 14 * brute_inverse(19) % 101 == 22
    assert [m.data for m in elems.dtk_aa_modifiers] == [12, 14]
    # wrapped = gT^50 * gT^(12+14+8) = gT^84
    assert elems.wrapped_key.data == sum_mod([50, 12, 14, 8]) == 84


def test_wrap_key_identity_mask_and_unit_nonces():
    ctx = vector_ctx()
    kp1, _ = vector_recovery_kps(ctx)
    elems = recovery.wrap_key(
        ctx,
        recovery.OwnerRecoveryKey(sk_dtk=5),
        ["A1"],
        {"A1": kp1.apk_dtk},
        8,
        {"A1": 12},
        ctx.gt_identity(),
    )
    assert elems.wrapped_key == ctx.gt_generator ** ((12 + 8) % 101)
    unit = recovery.wrap_key(
        ctx,
        recovery.OwnerRecoveryKey(sk_dtk=5),
        ["A1"],
        {"A1": kp1.apk_dtk},
        1,
        {"A1": 1},
        ctx.gt_generator**50,
    )
    assert unit.wrapped_key == ctx.gt_generator ** ((50 + 2) % 101)


def test_wrap_key_nonce_reuse_guard():
    ctx = vector_ctx()
    kp1, _ = vector_recovery_kps(ctx)
    owner = recovery.OwnerRecoveryKey(sk_dtk=5)
    apks = {"A1": kp1.apk_dtk}
    with pytest.raises(NonceReuse):
        recovery.wrap_key(ctx, owner, ["A1"], apks, 8, {"A1": 12}, ctx.gt_identity(),
                          reserved_nonces=(8,))
    with pytest.raises(NonceReuse):
        recovery.wrap_key(ctx, owner, ["A1"], apks, 8, {"A1": 12}, ctx.gt_identity(),
                          reserved_nonces=(12,))
    with pytest.raises(NonInvertible):
        recovery.wrap_key(ctx, owner, ["A1"], apks, 0, {"A1": 12}, ctx.gt_identity())


def test_consent_decrypt_token_vectors():
    ctx = vector_ctx()
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    owner = recovery.OwnerRecoveryKey(sk_dtk=5)
    assert recovery.consent_decrypt_token(ctx, owner, [1], pks).data == (10 + 1) * 5 % 101 == 55
    assert (
        recovery.consent_decrypt_token(ctx, owner, [1, 2], pks).data
        == (10 + 20 + 1) * 5 % 101
        == 54
    )
    unit = recovery.OwnerRecoveryKey(sk_dtk=1)
    assert recovery.consent_decrypt_token(ctx, unit, [1], pks).data == 11
    with pytest.raises(EmptySubset):
        recovery.consent_decrypt_token(ctx, owner, [], pks)


def test_issue_decrypt_token_vectors():
    ctx = vector_ctx()
    kp1, kp2 = vector_recovery_kps(ctx)
    blinded_r = abe.blind_identity(  # H(GID)^8 = g^72
        ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 8
    )
    assert blinded_r.element.data == 72
    assert recovery.issue_decrypt_token(ctx, kp1, blinded_r).data == 73 * 17 % 101 == 29
    assert recovery.issue_decrypt_token(ctx, kp2, blinded_r).data == 73 * 19 % 101 == 74
    with pytest.raises(InvalidBlinding):
        recovery.issue_decrypt_token(ctx, kp1, abe.BlindedIdentity(ctx.g_left**0))


def _vector_tokens(ctx, kps, subset=(1,)):
    kp1, kp2 = kps
    blinded_r = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 8)
    return recovery.DecryptionTokenSet(
        owner_token=recovery.consent_decrypt_token(
            ctx, recovery.OwnerRecoveryKey(sk_dtk=5), subset,
            sse.server_setup(ctx, 2, exponents=[10, 20]),
        ),
        subset=tuple(subset),
        aa_tokens={
            "A1": recovery.issue_decrypt_token(ctx, kp1, blinded_r),
            "A2": recovery.issue_decrypt_token(ctx, kp2, blinded_r),
        },
        blinded_r=blinded_r,
    )


def test_recover_key_full_worked_vector():
    ctx = vector_ctx()
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    elems, mask, kps = vector_wrap(ctx)
    tokens = _vector_tokens(ctx, kps)
    # owner side: gT^(55*42) / gT^(10*8) = gT^88 / gT^80 = gT^8 = gT^(r')
    assert sum_mod([55 * 42]) == 88
    assert (55 * 42 - 10 * 8) % 101 == 8
    # authority side: gT^(29*72) * gT^(74*22) / (gT^(72*12) * gT^(72*14)) = gT^26
    assert (29 * 72 + 74 * 22 - 72 * 12 - 72 * 14) % 101 == 26 == (12 + 14) % 101
    # total gT^34; mask = gT^84 / gT^34 = gT^50
    assert (84 - 34) % 101 == 50
    recovered = recovery.recover_key(ctx, elems, tokens, pks)
    assert recovered == mask
    assert recovered.data == 50


def test_recover_identity_mask():
    ctx = vector_ctx()
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    kps = vector_recovery_kps(ctx)
    elems = recovery.wrap_key(
        ctx,
        recovery.OwnerRecoveryKey(sk_dtk=5),
        ["A1", "A2"],
        {"A1": kps[0].apk_dtk, "A2": kps[1].apk_dtk},
        8,
        {"A1": 12, "A2": 14},
        ctx.gt_identity(),
    )
    assert recovery.recover_key(ctx, elems, _vector_tokens(ctx, kps), pks).is_identity


def test_recover_wrong_gid_tokens_fail():
    ctx = vector_ctx()
    pin_hash(ctx, HashDomain.GID, b"other", 23)
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    elems, mask, kps = vector_wrap(ctx)
    blinded_other = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"other"), 8)
    tokens = recovery.DecryptionTokenSet(
        owner_token=recovery.consent_decrypt_token(
            ctx, recovery.OwnerRecoveryKey(sk_dtk=5), [1], pks
        ),
        subset=(1,),
        aa_tokens={
            "A1": recovery.issue_decrypt_token(ctx, kps[0], blinded_other),
            "A2": recovery.issue_decrypt_token(ctx, kps[1], blinded_other),
        },
        blinded_r=abe.blind_identity(
            ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 8
        ),  # claims the original gid
    )
    assert recovery.recover_key(ctx, elems, tokens, pks) != mask


def test_recover_incomplete_tokens():
    ctx = vector_ctx()
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    elems, _, kps = vector_wrap(ctx)
    tokens = _vector_tokens(ctx, kps)
    incomplete = recovery.DecryptionTokenSet(
        owner_token=tokens.owner_token,
        subset=tokens.subset,
        aa_tokens={"A1": tokens.aa_tokens["A1"]},
        blinded_r=tokens.blinded_r,
    )
    with pytest.raises(IncompleteTokens):
        recovery.recover_key(ctx, elems, incomplete, pks)
    with pytest.raises(EmptySubset):  # no subset-free owner equation
        recovery.recover_key(ctx, elems, replace(tokens, subset=()), pks)


def _random_round_trip(ctx, rng, *, sabotage=None):
    n = rng.randrange(2, 5)
    pks = sse.server_setup(ctx, n, rng)
    attrs = [f"A{i}" for i in range(rng.randrange(1, 4))]
    kps = {a: recovery.recovery_aa_setup(ctx, a, rng) for a in attrs}
    owner = recovery.new_recovery_key(ctx, rng)
    mask = ctx.random_gt(rng)
    elems = recovery.wrap_key(
        ctx,
        owner,
        attrs,
        {a: kp.apk_dtk for a, kp in kps.items()},
        ctx.random_scalar(rng),
        {a: ctx.random_scalar(rng) for a in attrs},
        mask,
    )
    subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
    gid = f"gid-{rng.random()}"
    blinded_r = abe.blind_identity(
        ctx, ctx.hash_to_group(HashDomain.GID, gid), ctx.random_scalar(rng)
    )
    aa_tokens = {a: recovery.issue_decrypt_token(ctx, kp, blinded_r) for a, kp in kps.items()}
    owner_token = recovery.consent_decrypt_token(ctx, owner, subset, pks)
    if sabotage == "mixed-blinding":
        other = abe.blind_identity(
            ctx, ctx.hash_to_group(HashDomain.GID, gid), ctx.random_scalar(rng)
        )
        victim = rng.choice(attrs)
        aa_tokens[victim] = recovery.issue_decrypt_token(ctx, kps[victim], other)
    elif sabotage == "sse-key":
        # search-layer secret in place of sk': layer separation must hold
        owner_token = recovery.consent_decrypt_token(
            ctx, recovery.OwnerRecoveryKey(sk_dtk=sse.new_sse_key(ctx, rng).sk), subset, pks
        )
    elif sabotage == "wrong-subset":
        while True:
            other_subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
            if other_subset != subset:
                break
        owner_token = recovery.consent_decrypt_token(ctx, owner, other_subset, pks)
    tokens = recovery.DecryptionTokenSet(
        owner_token=owner_token, subset=subset, aa_tokens=aa_tokens, blinded_r=blinded_r
    )
    return recovery.recover_key(ctx, elems, tokens, pks) == mask


def test_round_trip_random(oracle_big):
    rng = random.Random(41)
    assert all(_random_round_trip(oracle_big, rng) for _ in range(100))


def test_layer_separation(oracle_big):
    rng = random.Random(42)
    for _ in range(50):
        assert _random_round_trip(oracle_big, rng, sabotage="sse-key") is False


def test_anti_collusion_mirrors_credential_layer(oracle_big):
    rng = random.Random(43)
    for _ in range(50):
        assert _random_round_trip(oracle_big, rng, sabotage="mixed-blinding") is False


def test_wrong_subset_token_fails(oracle_big):
    rng = random.Random(44)
    for _ in range(50):
        assert _random_round_trip(oracle_big, rng, sabotage="wrong-subset") is False


def test_key_generation_distinctness(oracle_big):
    ctx = oracle_big
    rng = random.Random(45)
    sk = sse.new_sse_key(ctx, rng)
    for _ in range(20):
        assert recovery.new_recovery_key(ctx, rng, distinct_from=(sk.sk,)).sk_dtk != sk.sk
    kp = abe.aa_setup(ctx, "A1", rng)
    with pytest.raises(NonceReuse):
        recovery.recovery_aa_setup(ctx, "A1", ask=kp.ask, distinct_from=(kp.ask,))


def test_recover_key_signature_takes_no_server():
    import inspect

    params = list(inspect.signature(recovery.recover_key).parameters)
    assert params == ["ctx", "elems", "tokens", "pks"]


def test_recovery_is_local_from_serialized_bytes(oracle_big):
    """Recovery runs against deserialized record bytes and public values
    only; the operation takes no server handle."""
    ctx = oracle_big
    rng = random.Random(46)
    pks = sse.server_setup(ctx, 2, rng)
    kp = recovery.recovery_aa_setup(ctx, "A1", rng)
    owner = recovery.new_recovery_key(ctx, rng)
    mask = ctx.random_gt(rng)
    elems = recovery.wrap_key(
        ctx, owner, ["A1"], {"A1": kp.apk_dtk}, ctx.random_scalar(rng),
        {"A1": ctx.random_scalar(rng)}, mask,
    )
    blob = wire.canonical_json(wire.RECOVERY.encode(ctx, elems))
    import json

    revived = wire.RECOVERY.decode(ctx, json.loads(blob))
    blinded_r = abe.blind_identity(
        ctx, ctx.hash_to_group(HashDomain.GID, "gid"), ctx.random_scalar(rng)
    )
    tokens = recovery.DecryptionTokenSet(
        owner_token=recovery.consent_decrypt_token(ctx, owner, [1, 2], pks),
        subset=(1, 2),
        aa_tokens={"A1": recovery.issue_decrypt_token(ctx, kp, blinded_r)},
        blinded_r=blinded_r,
    )
    recovered = recovery.recover_key(ctx, revived, tokens, pks)
    assert recovered == mask
    # the key derived from the recovered mask decrypts a payload sealed
    # under the original one
    ct = payload.encrypt_payload(payload.derive_key(ctx, mask), b"hello")
    assert payload.decrypt_payload(payload.derive_key(ctx, recovered), ct) == b"hello"
