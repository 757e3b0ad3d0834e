"""Layer 1: encrypted keyword search with subset restriction.

Per record the owner installs a search-token transferor g^(r/sk), a keyword
modifier g^r, and one tagged keyword e(H(w_j), g)^r per keyword w_j (the
owner id is always tagged as one extra keyword, and a separate update id is
tagged under its own hash domain for the re-encryption gate).  A consented
user holds

    token = (prod_{i in S} pk_i * H(w))^sk

for a data-set subset S, and the server accepts record j as a match iff

    e(token, g^(r/sk)) = e(prod_{i in S} pk_i, g^r) * e(H(w_j), g)^r.

Both sides equal e(prod pk_i, g)^r * e(H(w), g)^r exactly when the keyword
and the declared subset agree with the token, and the server learns nothing
but the boolean.  The subset is never empty: tokens and matches both reject
S = (), so there is no modifier-free form of the equation.  The server checks
e(token, g^(r/sk)) * ``subset_term`` = e(H(w_j), g)^r: one pairing times a kept term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadSetIndex, EmptySubset
from .pairing import GroupElement, GtElement, HashDomain, PairingContext


@dataclass(frozen=True)
class OwnerSseKey:
    """Owner search secret; signs consent tokens and record transferors."""

    sk: int


def new_sse_key(ctx: PairingContext, rng: random.Random) -> OwnerSseKey:
    return OwnerSseKey(ctx.random_scalar(rng))


@dataclass(frozen=True)
class SetPublicKeys:
    """Server-published per-data-set public keys pk_i = g^(a_i), i = 1..n, under
    g_left: every equation pairs a product of them, in a token or a subset term,
    with a record's owner-installed points.  The exponents a_i are discarded after setup.
    """

    left: tuple[GroupElement, ...]

    @property
    def n(self) -> int:
        return len(self.left)

    def check_subset(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Normalize to a sorted tuple; empty or out-of-range subsets fail."""
        normalized = tuple(sorted(set(int(i) for i in subset)))
        if not normalized:
            raise EmptySubset("data-set subset must be non-empty")
        for i in normalized:
            if not 1 <= i <= self.n:
                raise BadSetIndex(f"set index {i} outside 1..{self.n}")
        return normalized

    def left_product(self, subset: Iterable[int]) -> GroupElement:
        """prod_{i in S} pk_i for a checked, non-empty S."""
        subset = tuple(subset)
        product = self.left[subset[0] - 1]
        for i in subset[1:]:
            product = product * self.left[i - 1]
        return product


def server_setup(
    ctx: PairingContext,
    n: int,
    rng: random.Random | None = None,
    *,
    exponents: Sequence[int] | None = None,
) -> SetPublicKeys:
    """Publish n distinct per-set public keys.

    ``exponents`` injects the a_i for worked vectors; otherwise they are
    drawn from ``rng`` and never retained.
    """
    if n < 1:
        raise ValueError("need at least one data set")
    if exponents is None:
        if rng is None:
            raise ValueError("need rng or injected exponents")
        exponents = []
        for _ in range(n):
            exponents.append(ctx.random_scalar(rng, avoid=exponents))
    elif len(exponents) != n:
        raise ValueError("need exactly one exponent per set")
    left = tuple(ctx.g_left ** a for a in exponents)
    if len(set(left)) != n:
        raise ValueError("set public keys must be distinct")
    return SetPublicKeys(left=left)


@dataclass(frozen=True)
class SseRecordElements:
    """Owner-installed search material for one record, all under one nonce r."""

    stk_transferor: GroupElement  # g^(r/sk)
    kw_modifier: GroupElement  # g^r
    tagged_keywords: tuple[GtElement, ...]  # e(H(w_j), g)^r
    update_keyword: GtElement  # e(H(ID_RTk), g)^r under the update-id domain


@dataclass(frozen=True)
class SearchToken:
    """Owner-consented capability for one keyword over data sets S."""

    token: GroupElement
    subset: tuple[int, ...]


def sse_encrypt(
    ctx: PairingContext,
    owner: OwnerSseKey,
    keywords: Sequence[bytes | str],
    update_point: GroupElement,
    nonce: int,
    *,
    owner_point: GroupElement,
) -> SseRecordElements:
    """Build the per-record search elements.  Keywords are labels; the
    owner's fixed identities come hashed: ``update_point`` = H(ID_RTk) under
    the update-id domain, and ``owner_point`` = H(owner_id) under the
    keyword domain, tagged as one extra trailing keyword."""
    if not keywords:
        raise ValueError("need at least one keyword")
    r = ctx.require_nonzero(nonce, "record nonce")
    sk_inv = ctx.scalar_inverse(owner.sk)
    g_right = ctx.g_right
    points = [ctx.hash_to_group(HashDomain.KEYWORD, w) for w in keywords]
    tagged = tuple(ctx.pair(h, g_right) ** r for h in (*points, owner_point))
    update_tag = ctx.pair(update_point, g_right) ** r
    return SseRecordElements(
        stk_transferor=g_right ** (r * sk_inv),
        kw_modifier=g_right**r,
        tagged_keywords=tagged,
        update_keyword=update_tag,
    )


def consent_search_token(
    ctx: PairingContext,
    owner: OwnerSseKey,
    keyword: bytes | str,
    subset: Iterable[int],
    pks: SetPublicKeys,
) -> SearchToken:
    """token = (prod_{i in S} pk_i * H(w))^sk; deterministic in (sk, w, S)."""
    subset = pks.check_subset(subset)
    base = pks.left_product(subset) * ctx.hash_to_group(HashDomain.KEYWORD, keyword)
    return SearchToken(token=base**owner.sk, subset=subset)


def subset_product(ctx: PairingContext, pks: SetPublicKeys, subset: Iterable[int]):
    """prod_{i in S} pk_i for a checked S, prepared and kept across requests
    (``ctx.kept``): the user-side point a subset term pairs with the inverted keyword
    modifier, and a key recovery with the inverted owner modifier."""
    return ctx.kept(ctx.element_to_bytes(pks.left_product(pks.check_subset(subset))))


def subset_term(ctx: PairingContext, elems: SseRecordElements, product: GroupElement) -> GtElement:
    """e(prod_{i in S} pk_i, (g^r)^-1): the half of the match fixed by the record's
    layer 1 and the declared subset, which a server keeps across requests.  The
    division inverts the owner-installed point, so the kept ``product`` stays prepared."""
    return ctx.pair(product, ctx.group_inverse(elems.kw_modifier))


def sse_match_any(
    ctx: PairingContext,
    elems: SseRecordElements,
    token: SearchToken,
    term: GtElement,
) -> bool:
    """The match as one pairing times the kept term: e(token, g^(r/sk)) * ``term``,
    with ``term`` = ``subset_term(ctx, elems, subset_product(ctx, pks, token.subset))``.
    The request does not say which keyword slot to try, so every tagged keyword is
    checked against that one value."""
    target = ctx.pair(token.token, elems.stk_transferor) * term
    return any(target == tag for tag in elems.tagged_keywords)
