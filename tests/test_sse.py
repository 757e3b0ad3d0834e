"""Search layer: worked vectors at q = 101 plus randomized properties."""

import random

import pytest

from exponent_oracle import brute_inverse, sum_mod
from hash_pins import pin_hash
from keyword_match import sse_match
from triseal import sse
from triseal.errors import BadSetIndex, EmptySubset, NonInvertible
from triseal.pairing import HashDomain, OracleContext


def vector_ctx():
    """q = 101 context with the worked-vector hash H("bp") = g^5."""
    ctx = OracleContext(101)
    pin_hash(ctx, HashDomain.KEYWORD, b"bp", 5)
    pin_hash(ctx, HashDomain.KEYWORD, b"w2", 6)
    return ctx


def vector_pks(ctx):
    return sse.server_setup(ctx, 2, exponents=[10, 20])


def test_server_setup_vector():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    assert [e.data for e in pks.left] == [10, 20]
    assert pks.n == 2


def test_server_setup_minimal_and_distinct():
    ctx = OracleContext()
    single = sse.server_setup(ctx, 1, random.Random(1))
    assert single.n == 1
    a = sse.server_setup(ctx, 3, random.Random(2))
    b = sse.server_setup(ctx, 3, random.Random(3))
    assert set(a.left).isdisjoint(set(b.left))
    with pytest.raises(ValueError):
        sse.server_setup(ctx, 0, random.Random(4))
    with pytest.raises(ValueError):
        sse.server_setup(ctx, 2, exponents=[7, 7])  # identical keys
    with pytest.raises(ValueError):
        sse.server_setup(ctx, 2, exponents=[7])
    with pytest.raises(ValueError):
        sse.server_setup(ctx, 2)  # neither rng nor exponents


def test_sse_encrypt_vector():
    ctx = vector_ctx()
    elems = sse.sse_encrypt(
        ctx,
        sse.OwnerSseKey(sk=7),
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"rtk-id"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"owner"),
    )
    # g^(r/sk) with r=3, sk=7: 3 * 7^-1 = 3 * 29 = 87 (mod 101)
    assert elems.stk_transferor.data == 3 * brute_inverse(7) % 101 == 87
    assert elems.kw_modifier.data == 3
    assert elems.tagged_keywords[0].data == 5 * 3 % 101 == 15
    assert len(elems.tagged_keywords) == 2  # "bp" plus the owner id


def test_sse_encrypt_unit_key_and_nonce():
    ctx = vector_ctx()
    elems = sse.sse_encrypt(
        ctx,
        sse.OwnerSseKey(sk=1),
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        1,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    assert elems.stk_transferor == ctx.g_right
    assert elems.kw_modifier == ctx.g_right
    assert elems.tagged_keywords[0] == ctx.pair(
        ctx.hash_to_group(HashDomain.KEYWORD, b"bp"), ctx.g_right
    )


def test_sse_encrypt_fresh_nonce_changes_everything():
    ctx = vector_ctx()
    owner = sse.OwnerSseKey(sk=7)
    a = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    b = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        4,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    assert a.stk_transferor != b.stk_transferor
    assert a.kw_modifier != b.kw_modifier
    assert all(x != y for x, y in zip(a.tagged_keywords, b.tagged_keywords))
    assert a.update_keyword != b.update_keyword


def test_sse_encrypt_errors():
    ctx = vector_ctx()
    with pytest.raises(NonInvertible):
        sse.sse_encrypt(
            ctx,
            sse.OwnerSseKey(sk=7),
            [b"bp"],
            ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
            0,
            owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
        )
    with pytest.raises(NonInvertible):
        sse.sse_encrypt(
            ctx,
            sse.OwnerSseKey(sk=0),
            [b"bp"],
            ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
            3,
            owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
        )
    with pytest.raises(ValueError):
        sse.sse_encrypt(
            ctx,
            sse.OwnerSseKey(sk=7),
            [],
            ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
            3,
            owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
        )


def test_consent_token_vectors():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    t1 = sse.consent_search_token(ctx, owner, b"bp", [1], pks)
    assert t1.token.data == (10 + 5) * 7 % 101 == 4
    t12 = sse.consent_search_token(ctx, owner, b"bp", [1, 2], pks)
    assert t12.token.data == (10 + 20 + 5) * 7 % 101 == 43
    again = sse.consent_search_token(ctx, owner, b"bp", [1, 2], pks)
    assert again == t12  # deterministic


def test_consent_token_errors():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    with pytest.raises(EmptySubset):
        sse.consent_search_token(ctx, owner, b"bp", [], pks)
    with pytest.raises(BadSetIndex):
        sse.consent_search_token(ctx, owner, b"bp", [3], pks)
    with pytest.raises(BadSetIndex):
        sse.consent_search_token(ctx, owner, b"bp", [0], pks)


def test_match_vector_true():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    token = sse.consent_search_token(ctx, owner, b"bp", [1], pks)
    # left side: e(g^4, g^87) = gT^45; right side: gT^(10*3) * gT^15 = gT^45
    assert ctx.pair(token.token, elems.stk_transferor).data == 4 * 87 % 101 == 45
    assert sum_mod([10 * 3, 15]) == 45
    assert sse_match(ctx, elems, token, 0, pks) is True


def test_match_vector_wrong_subset_declared():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    token_s1 = sse.consent_search_token(ctx, owner, b"bp", [1], pks)
    lying = sse.SearchToken(token=token_s1.token, subset=(2,))
    # right side becomes gT^(20*3 + 15) = gT^75 != gT^45
    assert sum_mod([20 * 3, 15]) == 75
    assert sse_match(ctx, elems, lying, 0, pks) is False


def test_match_vector_wrong_keyword():
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    token = sse.consent_search_token(ctx, owner, b"w2", [1], pks)  # H(w2) = g^6
    assert sse_match(ctx, elems, token, 0, pks) is False
    term = sse.subset_term(ctx, elems, sse.subset_product(ctx, pks, token.subset))
    assert sse.sse_match_any(ctx, elems, token, term) is False


def _random_trial(ctx, rng, *, wrong_keyword=False, wrong_subset=False):
    n = rng.randrange(2, 5) if wrong_subset else rng.randrange(1, 5)
    pks = sse.server_setup(ctx, n, rng)
    owner = sse.new_sse_key(ctx, rng)
    keywords = [f"kw-{rng.randrange(10**9)}".encode() for _ in range(rng.randrange(1, 4))]
    r = ctx.random_scalar(rng)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        keywords,
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"upd"),
        r,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"owner-x"),
    )
    subset = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
    j = rng.randrange(len(keywords))
    keyword = b"other-keyword" if wrong_keyword else keywords[j]
    token = sse.consent_search_token(ctx, owner, keyword, subset, pks)
    if wrong_subset:
        while True:
            other = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
            if other != list(subset):
                return sse_match(ctx, elems, sse.SearchToken(token.token, tuple(other)), j, pks)
    return sse_match(ctx, elems, token, j, pks)


def test_completeness_random(oracle_big):
    rng = random.Random(21)
    assert all(_random_trial(oracle_big, rng) for _ in range(100))


def test_keyword_soundness_exhaustive_universe(oracle_big):
    """Injective test hash over a small keyword universe: every cross pair
    mismatches."""
    ctx = oracle_big
    universe = [f"u{i}".encode() for i in range(8)]
    for i, w in enumerate(universe):
        pin_hash(ctx, HashDomain.KEYWORD, w, 1000 + i)
    rng = random.Random(22)
    pks = sse.server_setup(ctx, 2, rng)
    owner = sse.new_sse_key(ctx, rng)
    for w_record in universe:
        elems = sse.sse_encrypt(
            ctx,
            owner,
            [w_record],
            ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
            ctx.random_scalar(rng),
            owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
        )
        for w_query in universe:
            token = sse.consent_search_token(ctx, owner, w_query, [1, 2], pks)
            assert sse_match(ctx, elems, token, 0, pks) is (w_record == w_query)


def test_subset_binding_random(oracle_big):
    rng = random.Random(23)
    for _ in range(100):
        assert _random_trial(oracle_big, rng, wrong_subset=True) is False


def test_record_unlinkability(oracle_big):
    ctx = oracle_big
    rng = random.Random(24)
    owner = sse.new_sse_key(ctx, rng)
    kws = [b"alpha", b"beta"]
    a = sse.sse_encrypt(
        ctx,
        owner,
        kws,
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        ctx.random_scalar(rng),
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    b = sse.sse_encrypt(
        ctx,
        owner,
        kws,
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        ctx.random_scalar(rng),
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    elements_a = {a.stk_transferor, a.kw_modifier} | set(a.tagged_keywords) | {a.update_keyword}
    elements_b = {b.stk_transferor, b.kw_modifier} | set(b.tagged_keywords) | {b.update_keyword}
    assert elements_a.isdisjoint(elements_b)


def test_match_rejects_empty_declared_subset():
    """A token declaring S = () has no modifier-free equation to fall back
    on: both match forms refuse it instead of checking e(token, .) alone
    (the server form through the subset term of the kept ``subset_product``)."""
    ctx = vector_ctx()
    pks = vector_pks(ctx)
    owner = sse.OwnerSseKey(sk=7)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    bare = sse.SearchToken(token=ctx.hash_to_group(HashDomain.KEYWORD, b"bp") ** 7, subset=())
    with pytest.raises(EmptySubset):
        sse.subset_term(ctx, elems, sse.subset_product(ctx, pks, bare.subset))
    with pytest.raises(EmptySubset):
        sse_match(ctx, elems, bare, 0, pks)
