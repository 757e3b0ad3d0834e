"""Layer 3: key-mask wrapping and local recovery.

The search and credential proofs are replayed with an independent key set:
the owner holds a second secret sk' (distinct from the search sk), every
authority holds a second attribute secret a'_i, and a record carries

    dtk_transferor      = g^(r'/sk')         dtk_owner_modifier = g^(r')
    dtk_aa_transferor_i = g^(s'_i / a'_i)    dtk_aa_modifier_i  = g^(s'_i)
    wrapped_key         = m * e(g, g)^(sum_{i in P} s'_i + r')

for fresh nonces (r', s'_i) never shared with the other layers and a random
target-group mask m.  The payload key is derived from m (see payload), so
the wrapped value stays inside the group algebra.

A qualified user holds an owner token (prod_{i in S} pk_i * g)^(sk'),
per-attribute authority tokens (g * H(GID)^(r'_u))^(a'_i) bound to one
blinding H(GID)^(r'_u), and recovers, with no server involvement,

    e(g,g)^(r')        = e(owner_token, dtk_transferor)
                          / e(prod_{i in S} pk_i, dtk_owner_modifier)
    e(g,g)^(sum s'_i)  = prod_i e(aa_token_i, dtk_aa_transferor_i)
                          / prod_i e(H(GID)^(r'_u), dtk_aa_modifier_i)
    m                  = wrapped_key / e(g,g)^(sum s'_i + r').

The aa_tokens and the per-attribute elements are the credential layer's
``abe.sign_blinded`` and ``abe.encode_policy`` under a'_i and s'_i.

Tokens from the search/credential layers cannot stand in for these: the
exponents differ, so substitution leaves a non-trivial residual factor and
the recovered mask fails payload authentication.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .abe import BlindedIdentity, aa_setup, encode_policy, sign_blinded
from .errors import IncompleteTokens, NonceReuse
from .pairing import GroupElement, GtElement, PairingContext, Side
from .sse import SetPublicKeys, subset_product


@dataclass(frozen=True)
class OwnerRecoveryKey:
    """Owner decryption-consent secret sk'; independent of the search sk."""

    sk_dtk: int


def new_recovery_key(
    ctx: PairingContext,
    rng: random.Random,
    *,
    distinct_from: Collection[int] = (),
) -> OwnerRecoveryKey:
    return OwnerRecoveryKey(sk_dtk=ctx.random_scalar(rng, distinct_from))


@dataclass(frozen=True)
class RecoveryAttributeKeyPair:
    attribute_id: str
    ask_dtk: int  # a'_i
    apk_dtk: GroupElement  # g^(1/a'_i)


def recovery_aa_setup(
    ctx: PairingContext,
    attribute_id: str,
    rng: random.Random | None = None,
    *,
    ask: int | None = None,
    distinct_from: Collection[int] = (),
) -> RecoveryAttributeKeyPair:
    """Second attribute key pair, kept apart from the credential-layer a_i."""
    if ask is not None and ask % ctx.order in {s % ctx.order for s in distinct_from}:
        raise NonceReuse("recovery attribute secret equals a credential-layer secret")
    kp = aa_setup(ctx, attribute_id, rng, ask=ask, avoid=distinct_from)
    return RecoveryAttributeKeyPair(attribute_id, ask_dtk=kp.ask, apk_dtk=kp.apk)


@dataclass(frozen=True)
class KeyRecoveryElements:
    """Record-side wrapping material; nonces independent of layers 1 and 2."""

    attrs: tuple[str, ...]
    dtk_transferor: GroupElement  # g^(r'/sk')
    dtk_owner_modifier: GroupElement  # g^(r')
    dtk_aa_transferors: tuple[GroupElement, ...]  # g^(s'_i / a'_i)
    dtk_aa_modifiers: tuple[GroupElement, ...]  # g^(s'_i)
    wrapped_key: GtElement  # m * e(g,g)^(sum s'_i + r')


@dataclass(frozen=True)
class DecryptionTokenSet:
    """User-held recovery capability; aa_tokens all bound to blinded_r."""

    owner_token: GroupElement
    subset: tuple[int, ...]
    aa_tokens: Mapping[str, GroupElement]
    blinded_r: BlindedIdentity


def wrap_key(
    ctx: PairingContext,
    owner: OwnerRecoveryKey,
    attrs: Sequence[str],
    recovery_apks: Mapping[str, GroupElement],
    r_prime: int,
    s_primes: Mapping[str, int],
    mask: GtElement,
    *,
    reserved_nonces: Collection[int] = (),
) -> KeyRecoveryElements:
    """Wrap ``mask`` under the record policy.

    ``reserved_nonces`` carries the nonces already spent by the search and
    credential layers of the same record; any collision is rejected to keep
    the layers algebraically independent.
    """
    reserved = {s % ctx.order for s in reserved_nonces}
    r = ctx.require_nonzero(r_prime, "wrapping nonce")
    if r in reserved or any(s_primes[a] % ctx.order in reserved for a in attrs):
        raise NonceReuse("wrapping nonce reused from another layer")
    transferors, modifiers, exponent_sum = encode_policy(ctx, attrs, recovery_apks, s_primes)
    return KeyRecoveryElements(
        attrs=tuple(attrs),
        dtk_transferor=ctx.g_right ** (r * ctx.scalar_inverse(owner.sk_dtk)),
        dtk_owner_modifier=ctx.g_right**r,
        dtk_aa_transferors=transferors,
        dtk_aa_modifiers=modifiers,
        wrapped_key=mask * ctx.gt_generator ** (r + exponent_sum),
    )


def consent_decrypt_token(
    ctx: PairingContext,
    owner: OwnerRecoveryKey,
    subset: Iterable[int],
    pks: SetPublicKeys,
) -> GroupElement:
    """owner_token = (prod_{i in S} pk_i * g)^(sk'); issued alongside the
    search consent."""
    subset = pks.check_subset(subset)
    return (pks.left_product(subset) * ctx.g_left) ** owner.sk_dtk


def issue_decrypt_token(
    ctx: PairingContext, kp: RecoveryAttributeKeyPair, blinded_r: BlindedIdentity
) -> GroupElement:
    """aa_token = (g * H(GID)^(r'_u))^(a'_i), signed as a credential is."""
    return sign_blinded(ctx, kp.ask_dtk, blinded_r)


def recover_key(
    ctx: PairingContext,
    elems: KeyRecoveryElements,
    tokens: DecryptionTokenSet,
    pks: SetPublicKeys,
) -> GtElement:
    """Unwrap the mask locally; needs only the record elements, the token
    set, and the public set keys.  Wrong tokens produce a wrong mask, which
    surfaces as an authentication failure at payload decryption."""
    missing = [a for a in elems.attrs if a not in tokens.aa_tokens]
    if missing:
        raise IncompleteTokens(f"no decryption token for: {', '.join(missing)}")
    # one pairing product, each division inverting its RIGHT point: e(U, (prod_i M_i)^-1)
    modifiers = math.prod(elems.dtk_aa_modifiers, start=ctx.group_identity(Side.RIGHT))
    pairs = [
        (tokens.owner_token, elems.dtk_transferor),
        (subset_product(ctx, pks, tokens.subset), ctx.group_inverse(elems.dtk_owner_modifier)),
        *((tokens.aa_tokens[a], t) for a, t in zip(elems.attrs, elems.dtk_aa_transferors)),
        (tokens.blinded_r.element, ctx.group_inverse(modifiers)),
    ]
    return elems.wrapped_key / ctx.pairing_product(pairs)
