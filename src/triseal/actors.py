"""Role drivers composing the protocol flows.

Owner: encrypts and tags data, grants search/decryption consents, and holds
the update secret for re-encryption.  Authority: authenticates one
attribute and signs blinded credentials and decryption tokens.  User:
blinds their identity per request, collects credentials, and recovers
payload keys locally.  The server side lives in :mod:`triseal.server`.

Every operation draws randomness from an injectable ``random.Random`` so
whole scenarios replay deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import abe, payload, recovery, sse
from .errors import AuthenticationFailure, MissingApk, WrongKey
from .pairing import GroupElement, HashDomain, PairingContext
from .server import USER_RECOVERY, DataRecord, EscrowServer, SearchRequest, SearchResponse
from .server import UpdateRequest


@dataclass(frozen=True)
class AuthorityPublic:
    """What an authority publishes: public halves of both key pairs."""

    attribute_id: str
    apk: GroupElement
    apk_dtk: GroupElement


@dataclass(frozen=True)
class ConsentGrant:
    """Owner-issued capabilities for one keyword over one data-set subset."""

    search_token: sse.SearchToken
    owner_decrypt_token: GroupElement
    subset: tuple[int, ...]


class Authority:
    """One attribute authority; keeps separate secrets for the credential
    and key-recovery layers."""

    def __init__(
        self,
        ctx: PairingContext,
        attribute_id: str,
        kp: abe.AttributeKeyPair,
        kp_dtk: recovery.RecoveryAttributeKeyPair,
    ):
        self.ctx = ctx
        self.attribute_id = attribute_id
        self.kp = kp
        self.kp_dtk = kp_dtk

    @classmethod
    def create(cls, ctx: PairingContext, attribute_id: str, rng: random.Random) -> "Authority":
        kp = abe.aa_setup(ctx, attribute_id, rng)
        kp_dtk = recovery.recovery_aa_setup(ctx, attribute_id, rng, distinct_from=(kp.ask,))
        return cls(ctx, attribute_id, kp, kp_dtk)

    def public(self) -> AuthorityPublic:
        return AuthorityPublic(self.attribute_id, self.kp.apk, self.kp_dtk.apk_dtk)

    def issue_credential(self, blinded: abe.BlindedIdentity) -> abe.AttributeCredential:
        return abe.issue_credential(self.ctx, self.kp, blinded)

    def issue_decrypt_token(self, blinded_r: abe.BlindedIdentity) -> GroupElement:
        return recovery.issue_decrypt_token(self.ctx, self.kp_dtk, blinded_r)


class Owner:
    def __init__(
        self,
        ctx: PairingContext,
        owner_id: str,
        sse_key: sse.OwnerSseKey,
        recovery_key: recovery.OwnerRecoveryKey,
        update_id: str,
        rng: random.Random,
    ):
        self.ctx = ctx
        self.owner_id = owner_id
        self.sse_key = sse_key
        self.recovery_key = recovery_key
        self.update_id = update_id
        self.rng = rng

    # the identities never change, so each is hashed once, on first use
    @cached_property
    def owner_point(self) -> GroupElement:
        return self.ctx.hash_to_group(HashDomain.KEYWORD, self.owner_id)

    @cached_property
    def update_point(self) -> GroupElement:
        return self.ctx.hash_to_group(HashDomain.UPDATE_ID, self.update_id)

    @classmethod
    def create(cls, ctx: PairingContext, owner_id: str, rng: random.Random) -> "Owner":
        sse_key = sse.new_sse_key(ctx, rng)
        recovery_key = recovery.new_recovery_key(ctx, rng, distinct_from=(sse_key.sk,))
        update_id = rng.getrandbits(128).to_bytes(16, "big").hex()
        return cls(ctx, owner_id, sse_key, recovery_key, update_id, rng)

    # -- publishing ----------------------------------------------------------

    def _layers(
        self,
        keywords: Sequence[bytes | str] | None,
        policy: Sequence[str] | None,
        authorities: Mapping[str, AuthorityPublic] | None,
        plaintext: bytes | None,
    ) -> tuple[
        sse.SseRecordElements | None,
        abe.AccessPolicyElements | None,
        recovery.KeyRecoveryElements | None,
        payload.PayloadCiphertext | None,
    ]:
        """New (search, policy, key-recovery, payload) layers: the search
        layer for ``keywords`` and the other three for ``policy``, each None
        when its argument is.  Layer 3's nonces avoid those of layers 1 and 2
        and each other, so the layers stay algebraically independent."""
        missing = [a for a in policy or () if a not in authorities]
        if missing:  # checked before any draw
            raise MissingApk(f"no authority public keys for: {', '.join(missing)}")
        ctx, rng = self.ctx, self.rng
        new_sse = new_abe = new_recovery = new_payload = None
        reserved: set[int] = set()  # nonces spent by layers 1 and 2
        if keywords is not None:
            r = ctx.random_scalar(rng)
            reserved.add(r)
            new_sse = sse.sse_encrypt(
                ctx, self.sse_key, keywords, self.update_point, r, owner_point=self.owner_point
            )
        if policy is not None:
            s = {a: ctx.random_scalar(rng) for a in policy}
            reserved.update(s.values())
            apks = {a: authorities[a].apk for a in policy}
            new_abe = abe.abe_policy_encrypt(ctx, policy, apks, s)
            spent = set(reserved)

            def fresh() -> int:  # a layer-3 nonce unlike every nonce drawn so far
                spent.add(nonce := ctx.random_scalar(rng, spent))
                return nonce

            r_prime = fresh()
            s_primes = {a: fresh() for a in policy}
            mask = ctx.random_gt(rng)
            apks_dtk = {a: authorities[a].apk_dtk for a in policy}
            new_recovery = recovery.wrap_key(
                ctx,
                self.recovery_key,
                policy,
                apks_dtk,
                r_prime,
                s_primes,
                mask,
                reserved_nonces=reserved,
            )
            key = payload.derive_key(ctx, mask)
            new_payload = payload.encrypt_payload(key, plaintext, rng=rng)
        return new_sse, new_abe, new_recovery, new_payload

    def publish(
        self,
        plaintext: bytes,
        keywords: Sequence[bytes | str],
        policy: Sequence[str],
        set_index: int,
        authorities: Mapping[str, AuthorityPublic],
    ) -> DataRecord:
        """Compose all three layers into a record (id assigned at store)."""
        if not keywords:
            raise ValueError("need at least one keyword")
        return DataRecord("", set_index, *self._layers(keywords, policy, authorities, plaintext))

    # -- consents --------------------------------------------------------------

    def consent(
        self, keyword: bytes | str, subset: Iterable[int], pks: sse.SetPublicKeys
    ) -> ConsentGrant:
        """Search and decryption tokens are granted together, the latter
        prepared: its holder unwraps every match under it."""
        token = sse.consent_search_token(self.ctx, self.sse_key, keyword, subset, pks)
        owner_dtk = recovery.consent_decrypt_token(self.ctx, self.recovery_key, token.subset, pks)
        return ConsentGrant(
            search_token=token, owner_decrypt_token=self.ctx.prepare(owner_dtk), subset=token.subset
        )

    # -- updates -------------------------------------------------------------

    def reencryption_token(self, subset: Iterable[int], pks: sse.SetPublicKeys) -> GroupElement:
        """rtk = (prod_{i in S} pk_i * H(ID_RTk))^sk under the update-id
        hash domain."""
        subset = pks.check_subset(subset)
        return (pks.left_product(subset) * self.update_point) ** self.sse_key.sk

    def update_request(
        self,
        record_id: str,
        subset: Iterable[int],
        pks: sse.SetPublicKeys,
        *,
        keywords: Sequence[bytes | str] | None = None,
        policy: Sequence[str] | None = None,
        plaintext: bytes | None = None,
        authorities: Mapping[str, AuthorityPublic] | None = None,
    ) -> UpdateRequest:
        """Build a re-encryption request replacing whole layers.

        ``keywords`` rebuilds the search layer under a fresh nonce.
        ``policy`` rebuilds the access-control, key-recovery, and payload
        layers (requires ``plaintext`` and ``authorities``: a new policy
        means a new mask, and a new mask means re-encrypting the payload).
        """
        subset = pks.check_subset(subset)
        if policy is not None and (plaintext is None or authorities is None):
            raise ValueError("policy update needs the plaintext and authority keys")
        if policy is None and plaintext is not None:
            raise ValueError("key rotation needs the policy for the new wrapping")
        layers = self._layers(keywords, policy, authorities, plaintext)
        return UpdateRequest(record_id, self.reencryption_token(subset, pks), subset, *layers)


@dataclass
class UserSession:
    """One request worth of blinding state and collected tokens; never
    reused across requests."""

    blinded: abe.BlindedIdentity
    blinded_r: abe.BlindedIdentity
    credentials: dict[str, abe.AttributeCredential] = field(default_factory=dict)
    decrypt_tokens: dict[str, GroupElement] = field(default_factory=dict)


class User:
    def __init__(self, ctx: PairingContext, gid: str, rng: random.Random):
        self.ctx = ctx
        self.gid = gid
        self.rng = rng

    @cached_property
    def gid_point(self) -> GroupElement:
        return self.ctx.hash_to_group(HashDomain.GID, self.gid)

    def new_session(self) -> UserSession:
        """Fresh per-request blindings for the credential and recovery layers."""
        ctx, gid_point = self.ctx, self.gid_point
        return UserSession(
            blinded=abe.blind_identity(ctx, gid_point, ctx.random_scalar(self.rng)),
            blinded_r=abe.blind_identity(ctx, gid_point, ctx.random_scalar(self.rng)),
        )

    def collect(self, session: UserSession, authority: Authority) -> None:
        """Obtain both token types from one authority under this session's
        blindings (authority-side authentication is out of band)."""
        session.credentials[authority.attribute_id] = authority.issue_credential(session.blinded)
        session.decrypt_tokens[authority.attribute_id] = authority.issue_decrypt_token(
            session.blinded_r
        )

    def build_search_request(self, session: UserSession, consent: ConsentGrant) -> SearchRequest:
        return SearchRequest(
            token=consent.search_token,
            credentials=tuple(session.credentials[a] for a in sorted(session.credentials)),
            blinded=session.blinded,
        )

    def decrypt_matches(
        self,
        session: UserSession,
        consent: ConsentGrant,
        response: SearchResponse,
        pks: sse.SetPublicKeys,
    ) -> list[tuple[str, bytes]]:
        """Recover each returned record locally; no server involvement."""
        if not response.matches:
            return []
        prepare, policies = self.ctx.prepare, set().union(*(m.policy for m in response.matches))
        tokens = recovery.DecryptionTokenSet(  # left points prepared once per response
            owner_token=prepare(consent.owner_decrypt_token),  # the subset product is kept
            subset=consent.subset,
            aa_tokens={a: prepare(t) for a, t in session.decrypt_tokens.items() if a in policies},
            blinded_r=abe.BlindedIdentity(prepare(session.blinded_r.element)),
        )
        results = []
        for match in response.matches:
            elems = match.recovery  # an in-process search's is the server's held wire form
            if not isinstance(elems, recovery.KeyRecoveryElements):
                elems = USER_RECOVERY.decode(self.ctx, elems.wire)
            mask = recovery.recover_key(self.ctx, elems, tokens, pks)
            key = payload.derive_key(self.ctx, mask)
            try:
                plaintext = payload.decrypt_payload(key, match.payload)
            except AuthenticationFailure as exc:
                raise WrongKey(f"recovered key rejected for record {match.record_id}") from exc
            results.append((match.record_id, plaintext))
        return results


def user_request(
    user: User,
    owner: Owner,
    authorities: Sequence[Authority],
    server: EscrowServer,
    keyword: bytes | str,
    subset: Iterable[int],
) -> list[tuple[str, bytes]]:
    """The full data-request flow: consent, credential collection, server
    search, and local decryption."""
    session = user.new_session()
    for authority in authorities:
        user.collect(session, authority)
    consent = owner.consent(keyword, subset, server.pks)
    request = user.build_search_request(session, consent)
    response = server.search(request)
    return user.decrypt_matches(session, consent, response, server.pks)
