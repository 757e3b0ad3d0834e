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
from .errors import AuthenticationFailure, InvalidBlinding, MissingApk, WrongKey
from .pairing import GroupElement, HashDomain, PairingContext
from .server import DataRecord, EscrowServer, SearchRequest, SearchResponse, UpdateRequest


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
        if blinded is None:
            raise InvalidBlinding("authorities sign only blinded identities")
        return abe.issue_credential(self.ctx, self.kp, blinded)

    def issue_decrypt_token(self, blinded_r: abe.BlindedIdentity) -> GroupElement:
        if blinded_r is None:
            raise InvalidBlinding("authorities sign only blinded identities")
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

    def _check_apks(self, policy: Sequence[str], authorities: Mapping[str, AuthorityPublic]):
        missing = [a for a in policy if a not in authorities]
        if missing:
            raise MissingApk(f"no authority public keys for: {', '.join(missing)}")

    def _sse_layer(self, keywords: Sequence[bytes | str]) -> tuple[sse.SseRecordElements, int]:
        r = self.ctx.random_scalar(self.rng)
        elems = sse.sse_encrypt(
            self.ctx, self.sse_key, keywords, self.update_point, r, owner_point=self.owner_point
        )
        return elems, r

    def _abe_layer(
        self, policy: Sequence[str], authorities: Mapping[str, AuthorityPublic]
    ) -> tuple[abe.AccessPolicyElements, dict[str, int]]:
        nonces = {a: self.ctx.random_scalar(self.rng) for a in policy}
        apks = {a: authorities[a].apk for a in policy}
        return abe.abe_policy_encrypt(self.ctx, policy, apks, nonces), nonces

    def _recovery_layer(
        self,
        policy: Sequence[str],
        authorities: Mapping[str, AuthorityPublic],
        plaintext: bytes,
        reserved: Iterable[int],
    ) -> tuple[recovery.KeyRecoveryElements, payload.PayloadCiphertext]:
        reserved = set(reserved)  # nonces spent by the other layers
        spent = set(reserved)
        r_prime = self._fresh_scalar(spent)
        s_primes = {a: self._fresh_scalar(spent) for a in policy}
        mask = self.ctx.random_gt(self.rng)
        apks_dtk = {a: authorities[a].apk_dtk for a in policy}
        elems = recovery.wrap_key(
            self.ctx,
            self.recovery_key,
            policy,
            apks_dtk,
            r_prime,
            s_primes,
            mask,
            reserved_nonces=reserved,
        )
        key = payload.derive_key(self.ctx, mask)
        return elems, payload.encrypt_payload(key, plaintext, rng=self.rng)

    def _fresh_scalar(self, reserved: set[int]) -> int:
        while True:
            s = self.ctx.random_scalar(self.rng)
            if s not in reserved:
                reserved.add(s)
                return s

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
        self._check_apks(policy, authorities)
        sse_elems, r = self._sse_layer(keywords)
        abe_elems, s_nonces = self._abe_layer(policy, authorities)
        rec_elems, ct = self._recovery_layer(
            policy, authorities, plaintext, {r, *s_nonces.values()}
        )
        return DataRecord(
            record_id="",
            set_index=set_index,
            sse=sse_elems,
            abe=abe_elems,
            recovery=rec_elems,
            payload=ct,
        )

    # -- consents --------------------------------------------------------------

    def consent(
        self, keyword: bytes | str, subset: Iterable[int], pks: sse.SetPublicKeys
    ) -> ConsentGrant:
        """Search and decryption tokens are granted together."""
        token = sse.consent_search_token(self.ctx, self.sse_key, keyword, subset, pks)
        owner_dtk = recovery.consent_decrypt_token(self.ctx, self.recovery_key, token.subset, pks)
        return ConsentGrant(
            search_token=token, owner_decrypt_token=owner_dtk, subset=token.subset
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
        new_sse = new_abe = new_recovery = new_payload = None
        reserved: set[int] = set()
        if keywords is not None:
            new_sse, r = self._sse_layer(keywords)
            reserved.add(r)
        if policy is not None:
            if plaintext is None or authorities is None:
                raise ValueError("policy update needs the plaintext and authority keys")
            self._check_apks(policy, authorities)
            new_abe, s_nonces = self._abe_layer(policy, authorities)
            reserved.update(s_nonces.values())
            new_recovery, new_payload = self._recovery_layer(
                policy, authorities, plaintext, reserved
            )
        elif plaintext is not None:
            raise ValueError("key rotation needs the policy for the new wrapping")
        return UpdateRequest(
            record_id=record_id,
            rtk=self.reencryption_token(subset, pks),
            subset=subset,
            new_sse=new_sse,
            new_abe=new_abe,
            new_recovery=new_recovery,
            new_payload=new_payload,
        )


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
        results = []
        for match in response.matches:
            tokens = recovery.DecryptionTokenSet(
                owner_token=consent.owner_decrypt_token,
                subset=consent.subset,
                aa_tokens={a: session.decrypt_tokens[a] for a in match.policy},
                blinded_r=session.blinded_r,
            )
            mask = recovery.recover_key(self.ctx, match.recovery, tokens, pks)
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
