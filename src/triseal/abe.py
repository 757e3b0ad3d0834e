"""Layer 2: anonymous attribute credentials against AND-policies.

Each attribute authority holds a_i and publishes apk_i = g^(1/a_i).  The
owner encodes the policy P (a conjunction of attribute ids) as

    transferor_i = apk_i^(s_i) = g^(s_i / a_i),   modifier_i = g^(s_i),
    plcy = e(g, g)^(sum_{i in P} s_i),

so the AND over attributes becomes a sum in the exponents.  A requesting
user blinds their global identity as U = H(GID)^r with a fresh nonce per
request, and each authority signs

    credential_i = (g * U)^(a_i),

which the user cannot forge for a different U (a_i is secret).  The server
accepts iff

    prod_{i in P} e(credential_i, transferor_i)
        = plcy * prod_{i in P} e(U, modifier_i),

learning only the boolean: the GID never appears unblinded, and because
every credential is bound to one U, credentials issued to different users
(or to the same user in a different request) cannot be mixed.

Passing ``blinded=None`` selects the unblinded legacy form credential =
g^(a_i); it verifies the bare equation prod e(cred_i, transferor_i) = plcy
and is collusion-prone by design.  Only the worked vectors use it: an
``actors.Authority`` refuses to sign it and the server refuses a search
request without a blinding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BadAttribute, IncompletePolicy, InvalidBlinding
from .pairing import GroupElement, GtElement, PairingContext


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
) -> AttributeKeyPair:
    """Fresh attribute key pair; ``ask`` injectable for worked vectors."""
    if ask is None:
        if rng is None:
            raise ValueError("need rng or an injected secret")
        ask = ctx.random_scalar(rng)
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
    credential: GroupElement  # (g * H(GID)^r)^(a_i), or g^(a_i) unblinded


def issue_credential(
    ctx: PairingContext,
    kp: AttributeKeyPair,
    blinded: BlindedIdentity | None,
) -> AttributeCredential:
    """Sign a credential bound to the caller's blinded identity.

    The authority must have authenticated, out of band, that the requester
    holds the attribute and the claimed GID; the blinding itself cannot be
    checked here.  An identity-element blinding is rejected so that every
    request really carries a fresh nonce.
    """
    if blinded is None:
        return AttributeCredential(kp.attribute_id, ctx.g_left**kp.ask)
    if blinded.element.is_identity:
        raise InvalidBlinding("blinded identity must not be the group identity")
    return AttributeCredential(kp.attribute_id, (ctx.g_left * blinded.element) ** kp.ask)


@dataclass(frozen=True)
class AccessPolicyElements:
    """Owner-installed policy material; one (transferor, modifier) pair per
    attribute, aligned with ``attrs``."""

    attrs: tuple[str, ...]
    ac_transferors: tuple[GroupElement, ...]  # g^(s_i / a_i)
    plcy_modifiers: tuple[GroupElement, ...]  # g^(s_i)
    plcy: GtElement  # e(g, g)^(sum s_i)

    def index_of(self, attribute_id: str) -> int:
        return self.attrs.index(attribute_id)


def abe_policy_encrypt(
    ctx: PairingContext,
    attrs: Sequence[str],
    apks: Mapping[str, GroupElement],
    nonces: Mapping[str, int],
) -> AccessPolicyElements:
    """Encode the conjunction of ``attrs`` under per-attribute nonces s_i."""
    if not attrs:
        raise ValueError("policy needs at least one attribute")
    if len(set(attrs)) != len(attrs):
        raise ValueError("duplicate attribute in policy")
    transferors = []
    modifiers = []
    exponent_sum = 0
    for attr in attrs:
        if attr not in apks:
            raise BadAttribute(f"no public key for attribute {attr!r}")
        s = ctx.require_nonzero(nonces[attr], f"policy nonce for {attr!r}")
        transferors.append(apks[attr] ** s)
        modifiers.append(ctx.g_right**s)
        exponent_sum += s
    return AccessPolicyElements(
        attrs=tuple(attrs),
        ac_transferors=tuple(transferors),
        plcy_modifiers=tuple(modifiers),
        plcy=ctx.gt_generator**exponent_sum,
    )


def abe_verify(
    ctx: PairingContext,
    elems: AccessPolicyElements,
    creds: Sequence[AttributeCredential],
    blinded: BlindedIdentity | None,
) -> bool:
    """Check the policy equation; False is an ordinary verification failure,
    while missing credentials raise IncompletePolicy."""
    by_attr = {c.attribute_id: c.credential for c in creds}
    missing = [a for a in elems.attrs if a not in by_attr]
    if missing:
        raise IncompletePolicy(f"no credential for: {', '.join(missing)}")
    lhs = ctx.gt_identity()
    rhs = elems.plcy
    for attr, transferor, modifier in zip(
        elems.attrs, elems.ac_transferors, elems.plcy_modifiers
    ):
        lhs = lhs * ctx.pair(by_attr[attr], transferor)
        if blinded is not None:
            rhs = rhs * ctx.pair(blinded.element, modifier)
    return lhs == rhs
