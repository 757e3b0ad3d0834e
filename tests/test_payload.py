"""Payload AEAD: key derivation, round trips, wrong-key detection."""

import random

import pytest

from triseal import payload
from triseal.errors import AuthenticationFailure
from triseal.pairing import OracleContext


@pytest.fixture
def ctx():
    return OracleContext()


def test_derive_key_deterministic(ctx):
    mask = ctx.gt_generator**12345
    k1 = payload.derive_key(ctx, mask)
    k2 = payload.derive_key(ctx, mask)
    assert k1 == k2
    assert len(k1) == 32


def test_derive_key_differs_per_mask(ctx):
    assert payload.derive_key(ctx, ctx.gt_generator**50) != payload.derive_key(
        ctx, ctx.gt_generator**51
    )


def test_identity_mask_is_a_valid_key(ctx):
    key = payload.derive_key(ctx, ctx.gt_identity())
    ct = payload.encrypt_payload(key, b"edge")
    assert payload.decrypt_payload(key, ct) == b"edge"


def test_round_trip_sizes(ctx):
    key = payload.derive_key(ctx, ctx.gt_generator**7)
    rng = random.Random(51)
    for size in (0, 1, 16, 255, 4096, 1 << 20):
        data = rng.randbytes(size)
        ct = payload.encrypt_payload(key, data)
        assert payload.decrypt_payload(key, ct) == data


def test_wrong_key_fails_authentication(ctx):
    good = payload.derive_key(ctx, ctx.gt_generator**50)
    bad = payload.derive_key(ctx, ctx.gt_generator**51)
    ct = payload.encrypt_payload(good, b"secret")
    with pytest.raises(AuthenticationFailure):
        payload.decrypt_payload(bad, ct)


def test_corrupted_ciphertext_fails(ctx):
    key = payload.derive_key(ctx, ctx.gt_generator**50)
    ct = payload.encrypt_payload(key, b"secret")
    tampered = payload.PayloadCiphertext(
        scheme_id=ct.scheme_id,
        nonce=ct.nonce,
        body=ct.body[:-1] + bytes([ct.body[-1] ^ 1]),
    )
    with pytest.raises(AuthenticationFailure):
        payload.decrypt_payload(key, tampered)
    with pytest.raises(AuthenticationFailure):  # an unknown scheme id
        payload.decrypt_payload(key, payload.PayloadCiphertext(ct.scheme_id + 1, ct.nonce, ct.body))


def test_envelope_round_trip(ctx):
    key = payload.derive_key(ctx, ctx.gt_generator**9)
    ct = payload.encrypt_payload(key, b"boxed")
    raw = ct.to_bytes()
    assert raw[0] == payload.SCHEME_AES256_GCM
    assert len(raw) == 1 + 12 + len(b"boxed") + 16
    assert payload.payload_from_bytes(raw) == ct
    with pytest.raises(AuthenticationFailure):
        payload.payload_from_bytes(raw[:10])
    with pytest.raises(AuthenticationFailure):
        payload.payload_from_bytes(bytes([99]) + raw[1:])


def test_fresh_nonce_per_encryption(ctx):
    key = payload.derive_key(ctx, ctx.gt_generator**9)
    a = payload.encrypt_payload(key, b"same")
    b = payload.encrypt_payload(key, b"same")
    assert a.nonce != b.nonce and a.body != b.body


def test_injected_rng_is_reproducible(ctx):
    key = payload.derive_key(ctx, ctx.gt_generator**9)
    a = payload.encrypt_payload(key, b"same", rng=random.Random(7))
    b = payload.encrypt_payload(key, b"same", rng=random.Random(7))
    assert a == b


def test_key_uniqueness_per_mask(ctx):
    rng = random.Random(52)
    masks = [ctx.random_gt(rng) for _ in range(200)]
    keys = {payload.derive_key(ctx, m) for m in masks}
    assert len(keys) == len(set(ctx.gt_to_bytes(m) for m in masks))
