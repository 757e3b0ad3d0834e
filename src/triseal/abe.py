"""Layer 2: anonymous attribute credentials against AND-policies.

Each attribute authority holds a_i and publishes apk_i = g^(1/a_i).  The
owner encodes the policy P (a conjunction of attribute ids) as

    transferor_i = apk_i^(s_i) = g^(s_i / a_i),   modifier_i = g^(s_i),
    plcy = e(g, g)^(sum_{i in P} s_i),

so the AND over attributes becomes a sum in the exponents.  A requesting
user blinds their global identity as U = H(GID)^r with a fresh nonce per
request, and each authority signs

    credential_i = (g * U)^(a_i).

The server accepts iff

    prod_{i in P} e(credential_i, transferor_i)
        = plcy * prod_{i in P} e(U, modifier_i),

learning only the boolean; the GID never appears unblinded.  No one can check
how U was made, so credentials can still be combined: a user can forge a
missing attribute from public keys, two users can pool credentials signed
under one shared U, and one credential on U = g^u gives away g^(a_i) (see
README's Security notes).  Key recovery reuses :func:`sign_blinded` and
:func:`encode_policy` under a second key set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BadAttribute, IncompletePolicy, InvalidBlinding
from .pairing import GroupElement, GtElement, PairingContext, Side


@dataclass(frozen=True)
class AttributeKeyPair:
    attribute_id: str
    ask: int  # a_i
    apk: GroupElement  # g^(1/a_i)


def aa_setup(
    ctx: PairingContext,
    attribute_id: str,
    rng: random.Random | None = None,
    *,
    ask: int | None = None,
    avoid: Iterable[int] = (),
) -> AttributeKeyPair:
    """Fresh attribute key pair, the secret drawn outside ``avoid``; ``ask``
    injectable for worked vectors."""
    if ask is None:
        if rng is None:
            raise ValueError("need rng or an injected secret")
        ask = ctx.random_scalar(rng, avoid)
    ask = ctx.require_nonzero(ask, "attribute secret key")
    return AttributeKeyPair(
        attribute_id=attribute_id,
        ask=ask,
        apk=ctx.g_right ** ctx.scalar_inverse(ask),
    )


@dataclass(frozen=True)
class BlindedIdentity:
    """H(GID)^r for a per-request nonce r; all credentials of one request
    must be bound to the same blinding."""

    element: GroupElement


def blind_identity(ctx: PairingContext, gid_point: GroupElement, nonce: int) -> BlindedIdentity:
    """H(GID)^r for ``gid_point`` = H(GID) under the GID domain, hashed once
    by the caller, and a fresh per-request nonce r."""
    r = ctx.require_nonzero(nonce, "blinding nonce")
    return BlindedIdentity(element=gid_point**r)


@dataclass(frozen=True)
class AttributeCredential:
    attribute_id: str
    credential: GroupElement  # (g * H(GID)^r)^(a_i)


def sign_blinded(ctx: PairingContext, secret: int, blinded: BlindedIdentity) -> GroupElement:
    """(g * U)^secret for the blinded identity U: the one signing step of
    credentials and decryption tokens.

    The authority must have authenticated, out of band, that the requester
    holds the attribute and the claimed GID; the blinding itself cannot be
    checked here.  A missing or identity-element blinding is rejected so
    that every request really carries a fresh nonce.
    """
    if blinded is None or blinded.element.is_identity:
        raise InvalidBlinding("blinded identity is missing or the group identity")
    return (ctx.g_left * blinded.element) ** secret


def issue_credential(
    ctx: PairingContext, kp: AttributeKeyPair, blinded: BlindedIdentity
) -> AttributeCredential:
    """Sign a credential bound to the caller's blinded identity."""
    return AttributeCredential(kp.attribute_id, sign_blinded(ctx, kp.ask, blinded))


@dataclass(frozen=True)
class AccessPolicyElements:
    """Owner-installed policy material; one (transferor, modifier) pair per
    attribute, aligned with ``attrs``."""

    attrs: tuple[str, ...]
    ac_transferors: tuple[GroupElement, ...]  # g^(s_i / a_i)
    plcy_modifiers: tuple[GroupElement, ...]  # g^(s_i)
    plcy: GtElement  # e(g, g)^(sum s_i)


def encode_policy(
    ctx: PairingContext,
    attrs: Sequence[str],
    apks: Mapping[str, GroupElement],
    nonces: Mapping[str, int],
) -> tuple[tuple[GroupElement, ...], tuple[GroupElement, ...], int]:
    """(apk_i^(s_i) per attribute, g^(s_i) per attribute, sum s_i): the
    AND-policy encoding of ``attrs`` under nonces s_i, shared by the
    credential and key-recovery layers."""
    if not attrs:
        raise ValueError("policy needs at least one attribute")
    if len(set(attrs)) != len(attrs):
        raise ValueError("duplicate attribute in policy")
    for attr in attrs:
        if attr not in apks:
            raise BadAttribute(f"no public key for attribute {attr!r}")
    s = [ctx.require_nonzero(nonces[a], f"policy nonce for {a!r}") for a in attrs]
    transferors = tuple(apks[a] ** s_i for a, s_i in zip(attrs, s))
    return transferors, tuple(ctx.g_right**s_i for s_i in s), sum(s)


def abe_policy_encrypt(
    ctx: PairingContext,
    attrs: Sequence[str],
    apks: Mapping[str, GroupElement],
    nonces: Mapping[str, int],
) -> AccessPolicyElements:
    """Encode the conjunction of ``attrs`` under per-attribute nonces s_i."""
    transferors, modifiers, exponent_sum = encode_policy(ctx, attrs, apks, nonces)
    return AccessPolicyElements(
        attrs=tuple(attrs),
        ac_transferors=transferors,
        plcy_modifiers=modifiers,
        plcy=ctx.gt_generator**exponent_sum,
    )


@dataclass(frozen=True)
class PreparedPolicy:
    """A layer 2 as its check pairs it: each transferor and the inverted modifier
    product (prod_i M_i)^-1, prepared, so that the record side carries the lines."""

    attrs: tuple[str, ...]
    transferors: tuple[GroupElement, ...]
    modifiers_inverse: GroupElement
    plcy: GtElement


def prepare_policy(ctx: PairingContext, elems: AccessPolicyElements) -> PreparedPolicy:
    """``elems`` with its k + 1 RIGHT points prepared: what a server keeps per record."""
    modifiers = math.prod(elems.plcy_modifiers, start=ctx.group_identity(Side.RIGHT))
    return PreparedPolicy(
        attrs=elems.attrs,
        transferors=tuple(map(ctx.prepare, elems.ac_transferors)),
        modifiers_inverse=ctx.prepare(ctx.group_inverse(modifiers)),
        plcy=elems.plcy,
    )


def abe_verify(
    ctx: PairingContext,
    policy: PreparedPolicy,
    creds: Sequence[AttributeCredential],
    blinded: BlindedIdentity,
) -> bool:
    """Check the policy equation; False is an ordinary verification failure,
    while missing credentials raise IncompletePolicy.  The pairings run over
    the record side's lines (``prepare_policy``: a one-off caller pays its
    k + 1 walks there), so the request's points need no preparation."""
    by_attr = {c.attribute_id: c.credential for c in creds}
    missing = [a for a in policy.attrs if a not in by_attr]
    if missing:
        raise IncompletePolicy(f"no credential for: {', '.join(missing)}")
    # prod_i e(U, M_i) = e(U, prod_i M_i), moved left as e(U, (prod_i M_i)^-1):
    # one product of k + 1 pairings, so k + 1 Miller loops and one final exp
    pairs = list(zip(map(by_attr.get, policy.attrs), policy.transferors))
    pairs.append((blinded.element, policy.modifiers_inverse))
    return ctx.pairing_product(pairs) == policy.plcy
