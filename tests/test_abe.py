"""Credential layer: worked vectors at q = 101 plus anti-collusion trials."""

import random
from dataclasses import replace

import pytest

from exponent_oracle import brute_inverse, sum_mod
from hash_pins import pin_hash
from triseal import abe
from triseal.errors import BadAttribute, IncompletePolicy, InvalidBlinding, NonInvertible
from triseal.pairing import HashDomain, OracleContext


def vector_ctx():
    ctx = OracleContext(101)
    pin_hash(ctx, HashDomain.GID, b"gid", 9)
    return ctx


def vector_keypairs(ctx):
    return (
        abe.aa_setup(ctx, "A1", ask=11),
        abe.aa_setup(ctx, "A2", ask=13),
    )


def test_aa_setup_vectors():
    ctx = vector_ctx()
    kp = abe.aa_setup(ctx, "A1", ask=11)
    assert kp.apk.data == brute_inverse(11) == 46
    assert abe.aa_setup(ctx, "A1", ask=1).apk == ctx.g_right
    a = abe.aa_setup(ctx, "A1", random.Random(1))
    b = abe.aa_setup(ctx, "A1", random.Random(2))
    assert a.ask != b.ask and a.apk != b.apk
    with pytest.raises(ValueError):
        abe.aa_setup(ctx, "A1")  # neither rng nor an injected secret


def test_issue_credential_vectors():
    ctx = vector_ctx()
    kp1, kp2 = vector_keypairs(ctx)
    blinded = abe.blind_identity(  # H(GID)^2 = g^18
        ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2
    )
    assert blinded.element.data == 18
    c1 = abe.issue_credential(ctx, kp1, blinded)
    assert c1.credential.data == (1 + 18) * 11 % 101 == 7
    c2 = abe.issue_credential(ctx, kp2, blinded)
    assert c2.credential.data == (1 + 18) * 13 % 101 == 45


def test_issue_rejects_identity_blinding():
    ctx = vector_ctx()
    kp1, _ = vector_keypairs(ctx)
    identity = abe.BlindedIdentity(element=ctx.g_left**0)
    with pytest.raises(InvalidBlinding):
        abe.issue_credential(ctx, kp1, identity)
    with pytest.raises(NonInvertible):
        abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 0)


def test_policy_encrypt_vectors():
    ctx = vector_ctx()
    kp1, kp2 = vector_keypairs(ctx)
    elems = abe.abe_policy_encrypt(
        ctx, ["A1", "A2"], {"A1": kp1.apk, "A2": kp2.apk}, {"A1": 4, "A2": 6}
    )
    assert elems.ac_transferors[0].data == 4 * brute_inverse(11) % 101 == 83
    assert elems.ac_transferors[1].data == 6 * brute_inverse(13) % 101 == 16
    assert [m.data for m in elems.plcy_modifiers] == [4, 6]
    assert elems.plcy.data == sum_mod([4, 6]) == 10


def test_policy_encrypt_edge_cases():
    ctx = vector_ctx()
    kp1, _ = vector_keypairs(ctx)
    with pytest.raises(NonInvertible):
        abe.abe_policy_encrypt(ctx, ["A1"], {"A1": kp1.apk}, {"A1": 0})
    unit = abe.abe_policy_encrypt(ctx, ["A1"], {"A1": kp1.apk}, {"A1": 1})
    assert unit.ac_transferors[0] == kp1.apk
    assert unit.plcy_modifiers[0] == ctx.g_right
    assert unit.plcy == ctx.gt_generator
    with pytest.raises(BadAttribute):
        abe.abe_policy_encrypt(ctx, ["A9"], {"A1": kp1.apk}, {"A9": 3})
    with pytest.raises(ValueError):
        abe.abe_policy_encrypt(ctx, [], {}, {})
    with pytest.raises(ValueError):
        abe.abe_policy_encrypt(ctx, ["A1", "A1"], {"A1": kp1.apk}, {"A1": 3})


def _vector_setup():
    ctx = vector_ctx()
    kp1, kp2 = vector_keypairs(ctx)
    elems = abe.abe_policy_encrypt(
        ctx, ["A1", "A2"], {"A1": kp1.apk, "A2": kp2.apk}, {"A1": 4, "A2": 6}
    )
    return ctx, kp1, kp2, elems


def test_verify_worked_vector():
    ctx, kp1, kp2, elems = _vector_setup()
    blinded = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2)
    creds = [abe.issue_credential(ctx, kp1, blinded), abe.issue_credential(ctx, kp2, blinded)]
    # left: gT^(7*83) * gT^(45*16) = gT^76 * gT^13 = gT^89
    assert sum_mod([7 * 83, 45 * 16]) == sum_mod([76, 13]) == 89
    # right: gT^10 * gT^(18*4) * gT^(18*6) = gT^10 * gT^72 * gT^7 = gT^89
    assert sum_mod([10, 18 * 4, 18 * 6]) == 89
    assert abe.abe_verify(ctx, elems, creds, blinded) is True


def test_verify_rejects_mixed_blinding():
    ctx, kp1, kp2, elems = _vector_setup()
    blinded = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2)
    other = abe.blind_identity(  # same GID, different nonce
        ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 3
    )
    creds = [abe.issue_credential(ctx, kp1, blinded), abe.issue_credential(ctx, kp2, other)]
    assert abe.abe_verify(ctx, elems, creds, blinded) is False


def test_verify_incomplete_policy_distinct_from_false():
    ctx, kp1, _, elems = _vector_setup()
    blinded = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2)
    with pytest.raises(IncompletePolicy):
        abe.abe_verify(ctx, elems, [abe.issue_credential(ctx, kp1, blinded)], blinded)


def _random_setup(ctx, rng, n_attrs):
    attrs = [f"A{i}" for i in range(n_attrs)]
    kps = {a: abe.aa_setup(ctx, a, rng) for a in attrs}
    elems = abe.abe_policy_encrypt(
        ctx,
        attrs,
        {a: kp.apk for a, kp in kps.items()},
        {a: ctx.random_scalar(rng) for a in attrs},
    )
    return attrs, kps, elems


def test_completeness_random(oracle_big):
    ctx = oracle_big
    rng = random.Random(31)
    for _ in range(60):
        attrs, kps, elems = _random_setup(ctx, rng, rng.randrange(1, 5))
        blinded = abe.blind_identity(
            ctx, ctx.hash_to_group(HashDomain.GID, f"gid{rng.random()}"), ctx.random_scalar(rng)
        )
        creds = [abe.issue_credential(ctx, kps[a], blinded) for a in attrs]
        assert abe.abe_verify(ctx, elems, creds, blinded) is True


def test_anti_collusion_random(oracle_big):
    """Mixing credentials across blinded identities always fails, whether the
    GIDs differ or only the nonces do."""
    ctx = oracle_big
    rng = random.Random(32)
    for trial in range(60):
        attrs, kps, elems = _random_setup(ctx, rng, rng.randrange(2, 5))
        blinded_a = abe.blind_identity(
            ctx, ctx.hash_to_group(HashDomain.GID, "gid-a"), ctx.random_scalar(rng)
        )
        if trial % 2:
            blinded_b = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, "gid-b"), ctx.random_scalar(rng)
            )
        else:
            blinded_b = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, "gid-a"), ctx.random_scalar(rng)
            )
        mix_at = rng.randrange(len(attrs))
        creds = [
            abe.issue_credential(ctx, kps[a], blinded_b if i == mix_at else blinded_a)
            for i, a in enumerate(attrs)
        ]
        assert abe.abe_verify(ctx, elems, creds, blinded_a) is False


def test_nonce_unlinkability(oracle_big):
    ctx = oracle_big
    rng = random.Random(33)
    kp = abe.aa_setup(ctx, "A1", rng)
    b1 = abe.blind_identity(
        ctx, ctx.hash_to_group(HashDomain.GID, "same-gid"), ctx.random_scalar(rng)
    )
    b2 = abe.blind_identity(
        ctx, ctx.hash_to_group(HashDomain.GID, "same-gid"), ctx.random_scalar(rng)
    )
    assert b1.element != b2.element
    assert abe.issue_credential(ctx, kp, b1) != abe.issue_credential(ctx, kp, b2)


def test_credential_matching_is_order_insensitive():
    ctx, kp1, kp2, elems = _vector_setup()
    blinded = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2)
    creds = [abe.issue_credential(ctx, kp2, blinded), abe.issue_credential(ctx, kp1, blinded)]
    assert abe.abe_verify(ctx, elems, creds, blinded) is True


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_folded_policy_check_denies_wrong_credentials(backend, oracle_big, curve_ctx):
    """The policy check, one k-pair product against plcy * e(U, prod_i M_i),
    passes the honest request and denies a credential under another
    authority's key, credentials swapped between attributes, and credentials
    under another blinding, with the left points prepared or not."""
    ctx = oracle_big if backend == "oracle" else curve_ctx
    rng = random.Random(34)
    attrs, kps, elems = _random_setup(ctx, rng, 2)
    gid = ctx.hash_to_group(HashDomain.GID, "gid")
    blinded, other = (abe.blind_identity(ctx, gid, ctx.random_scalar(rng)) for _ in range(2))
    creds = [abe.issue_credential(ctx, kps[a], blinded) for a in attrs]
    forged = abe.issue_credential(ctx, abe.aa_setup(ctx, attrs[0], rng), blinded)
    swapped = [replace(c, credential=d.credential) for c, d in zip(creds, creds[::-1])]
    cases = {
        "honest": (creds, blinded, True),
        "another authority's key": ([forged, creds[1]], blinded, False),
        "swapped attributes": (swapped, blinded, False),
        "one under another blinding": (
            [creds[0], abe.issue_credential(ctx, kps[attrs[1]], other)], blinded, False
        ),
        "all under another blinding": (
            [abe.issue_credential(ctx, kps[a], other) for a in attrs], blinded, False
        ),
    }
    for name, (presented, u, ok) in cases.items():
        assert abe.abe_verify(ctx, elems, presented, u) is ok, name
        presented = [replace(c, credential=ctx.prepare(c.credential)) for c in presented]
        u = abe.BlindedIdentity(ctx.prepare(u.element))
        assert abe.abe_verify(ctx, elems, presented, u) is ok, name
