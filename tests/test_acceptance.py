"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Expected values for the worked-vector sweep are recomputed here by
the independent exponent calculator in exponent_oracle.py (brute-force
inversion, plain modular arithmetic) and compared byte-exactly against what
the library produces.
"""

import random
import time
from contextlib import contextmanager

import pytest

from cores import cores
from exponent_oracle import brute_inverse, sum_mod
from hash_pins import pin_hash
from keyword_match import sse_match
from triseal import abe, payload, recovery, sse
from triseal.actors import Authority, Owner, User, user_request
from triseal.errors import AuthenticationFailure, UpdateRejected
from triseal.pairing import HashDomain, OracleContext
from triseal.server import EscrowServer, UpdateRequest, record_bytes


@contextmanager
def report(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description} ({time.perf_counter() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. worked-vector suite at q = 101, byte-exact, independent oracle
# ---------------------------------------------------------------------------


def test_criterion_1_worked_vectors():
    with report(1, "worked-vector suite re-verified byte-exact at q=101 (<1s)"):
        started = time.perf_counter()
        _worked_vector_sweep()
        assert time.perf_counter() - started < 1.0


def _worked_vector_sweep():
    q = 101
    ctx = OracleContext(q)
    pin_hash(ctx, HashDomain.KEYWORD, b"bp", 5)
    pin_hash(ctx, HashDomain.KEYWORD, b"w2", 6)
    pin_hash(ctx, HashDomain.GID, b"gid", 9)
    pin_hash(ctx, HashDomain.UPDATE_ID, b"rtk-id", 11)
    g, gr, gt = ctx.g_left, ctx.g_right, ctx.gt_generator

    def eq_g(produced, exponent, side="left"):
        base = g if side == "left" else gr
        assert ctx.element_to_bytes(produced) == ctx.element_to_bytes(base ** (exponent % q))

    def eq_gt(produced, exponent):
        assert ctx.gt_to_bytes(produced) == ctx.gt_to_bytes(gt ** (exponent % q))

    # pairing core
    eq_gt(ctx.pair(g**2, gr**3), 2 * 3)
    rng = random.Random(0)
    for _ in range(25):
        u, v = rng.randrange(q), rng.randrange(q)
        eq_gt(ctx.pair(g**u, gr**v), v * u)  # symmetric emulation
    eq_g(g**70 * g**35, (70 + 35) % q)
    eq_gt(ctx.gt_div(gt**88, gt**80), 88 - 80)
    assert ctx.scalar_inverse(7) == brute_inverse(7)
    assert ctx.hash_to_group(HashDomain.KEYWORD, b"bp") != ctx.hash_to_group(
        HashDomain.GID, b"bp"
    )

    # search layer
    pks = sse.server_setup(ctx, 2, exponents=[10, 20])
    eq_g(pks.left[0], 10)
    eq_g(pks.left[1], 20)
    assert len(set(sse.server_setup(ctx, 2, exponents=[30, 40]).left) & set(pks.left)) == 0
    owner = sse.OwnerSseKey(sk=7)
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"rtk-id"),
        3,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"owner"),
    )
    eq_g(elems.stk_transferor, 3 * brute_inverse(7), "right")
    eq_g(elems.kw_modifier, 3, "right")
    eq_gt(elems.tagged_keywords[0], 5 * 3)
    eq_gt(elems.update_keyword, 11 * 3)
    other = sse.sse_encrypt(
        ctx,
        owner,
        [b"bp"],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"rtk-id"),
        4,
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"owner"),
    )
    assert other.stk_transferor != elems.stk_transferor
    assert other.tagged_keywords[0] != elems.tagged_keywords[0]
    token1 = sse.consent_search_token(ctx, owner, b"bp", [1], pks)
    eq_g(token1.token, (10 + 5) * 7)
    token12 = sse.consent_search_token(ctx, owner, b"bp", [1, 2], pks)
    eq_g(token12.token, (10 + 20 + 5) * 7)
    assert token12 == sse.consent_search_token(ctx, owner, b"bp", [1, 2], pks)
    eq_gt(ctx.pair(token1.token, elems.stk_transferor), 4 * 87)
    assert sum_mod([4 * 87]) == sum_mod([10 * 3, 15]) == 45
    assert sse_match(ctx, elems, token1, 0, pks) is True
    lying = sse.SearchToken(token1.token, (2,))
    assert sum_mod([20 * 3, 15]) == 75 != 45
    assert sse_match(ctx, elems, lying, 0, pks) is False
    token_w2 = sse.consent_search_token(ctx, owner, b"w2", [1], pks)
    assert sse_match(ctx, elems, token_w2, 0, pks) is False

    # credential layer
    kp1 = abe.aa_setup(ctx, "A1", ask=11)
    kp2 = abe.aa_setup(ctx, "A2", ask=13)
    eq_g(kp1.apk, brute_inverse(11), "right")
    assert abe.aa_setup(ctx, "A1", ask=12).apk != kp1.apk
    blinded = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 2)
    eq_g(blinded.element, 9 * 2)
    cred1 = abe.issue_credential(ctx, kp1, blinded)
    cred2 = abe.issue_credential(ctx, kp2, blinded)
    eq_g(cred1.credential, (1 + 18) * 11)
    eq_g(cred2.credential, (1 + 18) * 13)
    policy = abe.abe_policy_encrypt(
        ctx, ["A1", "A2"], {"A1": kp1.apk, "A2": kp2.apk}, {"A1": 4, "A2": 6}
    )
    eq_g(policy.ac_transferors[0], 4 * brute_inverse(11), "right")
    eq_g(policy.ac_transferors[1], 6 * brute_inverse(13), "right")
    eq_g(policy.plcy_modifiers[0], 4, "right")
    eq_g(policy.plcy_modifiers[1], 6, "right")
    eq_gt(policy.plcy, 4 + 6)
    assert sum_mod([7 * 83, 45 * 16]) == sum_mod([10, 18 * 4, 18 * 6]) == 89
    prepared = abe.prepare_policy(ctx, policy)
    assert abe.abe_verify(ctx, prepared, [cred1, cred2], blinded) is True
    blinded3 = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 3)
    mixed = [cred1, abe.issue_credential(ctx, kp2, blinded3)]
    assert abe.abe_verify(ctx, prepared, mixed, blinded) is False

    # key-recovery layer
    rk1 = recovery.recovery_aa_setup(ctx, "A1", ask=17)
    rk2 = recovery.recovery_aa_setup(ctx, "A2", ask=19)
    owner_r = recovery.OwnerRecoveryKey(sk_dtk=5)
    mask = gt**50
    wrap = recovery.wrap_key(
        ctx, owner_r, ["A1", "A2"], {"A1": rk1.apk_dtk, "A2": rk2.apk_dtk},
        8, {"A1": 12, "A2": 14}, mask,
    )
    eq_g(wrap.dtk_transferor, 8 * brute_inverse(5), "right")
    eq_g(wrap.dtk_owner_modifier, 8, "right")
    eq_g(wrap.dtk_aa_transferors[0], 12 * brute_inverse(17), "right")
    eq_g(wrap.dtk_aa_transferors[1], 14 * brute_inverse(19), "right")
    eq_g(wrap.dtk_aa_modifiers[0], 12, "right")
    eq_g(wrap.dtk_aa_modifiers[1], 14, "right")
    eq_gt(wrap.wrapped_key, 50 + 12 + 14 + 8)
    owner_tok1 = recovery.consent_decrypt_token(ctx, owner_r, [1], pks)
    eq_g(owner_tok1, (10 + 1) * 5)
    eq_g(recovery.consent_decrypt_token(ctx, owner_r, [1, 2], pks), (10 + 20 + 1) * 5)
    blinded_r = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid"), 8)
    aa_tok1 = recovery.issue_decrypt_token(ctx, rk1, blinded_r)
    aa_tok2 = recovery.issue_decrypt_token(ctx, rk2, blinded_r)
    eq_g(aa_tok1, (1 + 72) * 17)
    eq_g(aa_tok2, (1 + 72) * 19)
    tokens = recovery.DecryptionTokenSet(
        owner_token=owner_tok1, subset=(1,),
        aa_tokens={"A1": aa_tok1, "A2": aa_tok2}, blinded_r=blinded_r,
    )
    assert (55 * 42 - 10 * 8) % q == 8
    assert (29 * 72 + 74 * 22 - 72 * 12 - 72 * 14) % q == 26
    assert (84 - (8 + 26)) % q == 50
    recovered = recovery.recover_key(ctx, wrap, tokens, pks)
    assert ctx.gt_to_bytes(recovered) == ctx.gt_to_bytes(mask)
    wrap_id = recovery.wrap_key(
        ctx, owner_r, ["A1", "A2"], {"A1": rk1.apk_dtk, "A2": rk2.apk_dtk},
        8, {"A1": 12, "A2": 14}, ctx.gt_identity(),
    )
    assert recovery.recover_key(ctx, wrap_id, tokens, pks).is_identity
    pin_hash(ctx, HashDomain.GID, b"gid2", 25)
    foreign = abe.blind_identity(ctx, ctx.hash_to_group(HashDomain.GID, b"gid2"), 8)
    bad_tokens = recovery.DecryptionTokenSet(
        owner_token=owner_tok1, subset=(1,),
        aa_tokens={
            "A1": recovery.issue_decrypt_token(ctx, rk1, foreign),
            "A2": recovery.issue_decrypt_token(ctx, rk2, foreign),
        },
        blinded_r=blinded_r,
    )
    assert recovery.recover_key(ctx, wrap, bad_tokens, pks) != mask

    # re-encryption gate
    rtk = (pks.left_product((1,)) * ctx.hash_to_group(HashDomain.UPDATE_ID, b"rtk-id")) ** 7
    eq_g(rtk, (10 + 11) * 7)
    lhs = ctx.pair(rtk, elems.stk_transferor)
    rhs = ctx.pair(pks.left_product((1,)), elems.kw_modifier) * elems.update_keyword
    eq_gt(lhs, 46 * 87)
    assert sum_mod([46 * 87]) == sum_mod([10 * 3, 11 * 3]) == 63
    assert lhs == rhs
    assert ctx.pair(token1.token, elems.stk_transferor) != rhs  # search token fails the gate


# ---------------------------------------------------------------------------
# 2. completeness / soundness on both backends
# ---------------------------------------------------------------------------


def _sse_trial(ctx, rng, *, mismatch):
    n = rng.randrange(1, 4)
    pks = sse.server_setup(ctx, n, rng)
    owner = sse.new_sse_key(ctx, rng)
    keyword = f"kw-{rng.randrange(10**9)}".encode()
    elems = sse.sse_encrypt(
        ctx,
        owner,
        [keyword],
        ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
        ctx.random_scalar(rng),
        owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
    )
    subset = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
    query = b"wrong-" + keyword if mismatch else keyword
    token = sse.consent_search_token(ctx, owner, query, subset, pks)
    return sse_match(ctx, elems, token, 0, pks)


def test_criterion_2_sse_completeness_soundness(curve_ctx):
    with report(2, "SSE completeness+soundness: 500+500 oracle, 100+100 curve (<30s)"):
        started = time.perf_counter()
        oracle = OracleContext()
        rng = random.Random(201)
        assert all(_sse_trial(oracle, rng, mismatch=False) for _ in range(500))
        assert not any(_sse_trial(oracle, rng, mismatch=True) for _ in range(500))
        rng = random.Random(202)
        assert all(_sse_trial(curve_ctx, rng, mismatch=False) for _ in range(100))
        assert not any(_sse_trial(curve_ctx, rng, mismatch=True) for _ in range(100))
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 3. subset binding
# ---------------------------------------------------------------------------


def test_criterion_3_subset_binding():
    with report(3, "subset binding: 500 random wrong-subset declarations all fail"):
        ctx = OracleContext()
        rng = random.Random(301)
        for _ in range(500):
            n = rng.randrange(2, 6)
            pks = sse.server_setup(ctx, n, rng)
            owner = sse.new_sse_key(ctx, rng)
            kw = f"kw{rng.random()}".encode()
            elems = sse.sse_encrypt(
                ctx,
                owner,
                [kw],
                ctx.hash_to_group(HashDomain.UPDATE_ID, b"u"),
                ctx.random_scalar(rng),
                owner_point=ctx.hash_to_group(HashDomain.KEYWORD, b"o"),
            )
            subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
            token = sse.consent_search_token(ctx, owner, kw, subset, pks)
            while True:
                declared = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
                if declared != subset:
                    break
            assert sse_match(ctx, elems, sse.SearchToken(token.token, declared), 0, pks) is False


# ---------------------------------------------------------------------------
# 4. anti-collusion (credentials and recovery tokens)
# ---------------------------------------------------------------------------


def test_criterion_4_anti_collusion():
    with report(4, "anti-collusion: 500 mixed-credential + 500 mixed-token trials all fail"):
        ctx = OracleContext()
        rng = random.Random(401)
        for trial in range(500):
            attrs = [f"A{i}" for i in range(rng.randrange(2, 5))]
            kps = {a: abe.aa_setup(ctx, a, rng) for a in attrs}
            elems = abe.abe_policy_encrypt(
                ctx, attrs, {a: kp.apk for a, kp in kps.items()},
                {a: ctx.random_scalar(rng) for a in attrs},
            )
            gid_a = f"gid-a-{trial}"
            gid_b = gid_a if trial % 2 else f"gid-b-{trial}"  # same GID, new nonce / other GID
            blinded_a = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, gid_a), ctx.random_scalar(rng)
            )
            blinded_b = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, gid_b), ctx.random_scalar(rng)
            )
            mixed_at = rng.randrange(len(attrs))
            creds = [
                abe.issue_credential(ctx, kps[a], blinded_b if i == mixed_at else blinded_a)
                for i, a in enumerate(attrs)
            ]
            prepared = abe.prepare_policy(ctx, elems)
            assert abe.abe_verify(ctx, prepared, creds, blinded_a) is False

        rng = random.Random(402)
        for trial in range(500):
            n = rng.randrange(1, 4)
            pks = sse.server_setup(ctx, n, rng)
            attrs = [f"A{i}" for i in range(rng.randrange(2, 4))]
            kps = {a: recovery.recovery_aa_setup(ctx, a, rng) for a in attrs}
            owner = recovery.new_recovery_key(ctx, rng)
            mask = ctx.random_gt(rng)
            elems = recovery.wrap_key(
                ctx, owner, attrs, {a: kp.apk_dtk for a, kp in kps.items()},
                ctx.random_scalar(rng), {a: ctx.random_scalar(rng) for a in attrs}, mask,
            )
            subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
            blinded_r = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, f"g{trial}"), ctx.random_scalar(rng)
            )
            foreign = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, f"g{trial}x"), ctx.random_scalar(rng)
            )
            mixed_at = rng.randrange(len(attrs))
            tokens = recovery.DecryptionTokenSet(
                owner_token=recovery.consent_decrypt_token(ctx, owner, subset, pks),
                subset=subset,
                aa_tokens={
                    a: recovery.issue_decrypt_token(
                        ctx, kps[a], foreign if i == mixed_at else blinded_r
                    )
                    for i, a in enumerate(attrs)
                },
                blinded_r=blinded_r,
            )
            assert recovery.recover_key(ctx, elems, tokens, pks) != mask


# ---------------------------------------------------------------------------
# 5. key-recovery round trip and wrong-token detection
# ---------------------------------------------------------------------------


def test_criterion_5_key_recovery_round_trip():
    with report(5, "recover(wrap(m)) = m on 500 sets; wrong tokens fail payload auth"):
        ctx = OracleContext()
        rng = random.Random(501)
        for trial in range(500):
            n = rng.randrange(1, 4)
            pks = sse.server_setup(ctx, n, rng)
            attrs = [f"A{i}" for i in range(rng.randrange(1, 4))]
            kps = {a: recovery.recovery_aa_setup(ctx, a, rng) for a in attrs}
            owner = recovery.new_recovery_key(ctx, rng)
            mask = ctx.random_gt(rng)
            elems = recovery.wrap_key(
                ctx, owner, attrs, {a: kp.apk_dtk for a, kp in kps.items()},
                ctx.random_scalar(rng), {a: ctx.random_scalar(rng) for a in attrs}, mask,
            )
            subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
            blinded_r = abe.blind_identity(
                ctx, ctx.hash_to_group(HashDomain.GID, f"gid{trial}"), ctx.random_scalar(rng)
            )
            good = recovery.DecryptionTokenSet(
                owner_token=recovery.consent_decrypt_token(ctx, owner, subset, pks),
                subset=subset,
                aa_tokens={a: recovery.issue_decrypt_token(ctx, kps[a], blinded_r) for a in attrs},
                blinded_r=blinded_r,
            )
            recovered = recovery.recover_key(ctx, elems, good, pks)
            assert recovered == mask
            ct = payload.encrypt_payload(payload.derive_key(ctx, mask), b"payload", rng=rng)
            assert payload.decrypt_payload(payload.derive_key(ctx, recovered), ct) == b"payload"

            if trial % 5 == 0:
                # a single wrong token must break payload authentication
                kind = trial // 5 % 3
                if kind == 0:
                    sabotaged = recovery.DecryptionTokenSet(
                        owner_token=recovery.consent_decrypt_token(
                            ctx, recovery.new_recovery_key(ctx, rng), subset, pks
                        ),
                        subset=subset, aa_tokens=good.aa_tokens, blinded_r=blinded_r,
                    )
                elif kind == 1:
                    other = abe.blind_identity(
                        ctx,
                        ctx.hash_to_group(HashDomain.GID, f"gid{trial}"),
                        ctx.random_scalar(rng),
                    )
                    bad = dict(good.aa_tokens)
                    bad[attrs[0]] = recovery.issue_decrypt_token(ctx, kps[attrs[0]], other)
                    sabotaged = recovery.DecryptionTokenSet(
                        owner_token=good.owner_token, subset=subset,
                        aa_tokens=bad, blinded_r=blinded_r,
                    )
                else:
                    other = abe.blind_identity(
                        ctx,
                        ctx.hash_to_group(HashDomain.GID, f"gid{trial}"),
                        ctx.random_scalar(rng),
                    )
                    sabotaged = recovery.DecryptionTokenSet(
                        owner_token=good.owner_token, subset=subset,
                        aa_tokens=good.aa_tokens, blinded_r=other,
                    )
                wrong_mask = recovery.recover_key(ctx, elems, sabotaged, pks)
                with pytest.raises(AuthenticationFailure):
                    payload.decrypt_payload(payload.derive_key(ctx, wrong_mask), ct)


# ---------------------------------------------------------------------------
# 6. pipeline ordering over a 1000-record fuzz
# ---------------------------------------------------------------------------


def _fuzz_world(ctx, rng, n_records, n_sets=4, attr_pool=("A1", "A2", "A3")):
    pks = sse.server_setup(ctx, n_sets, rng)
    server = EscrowServer(ctx, pks)
    authorities = {
        a: Authority.create(ctx, a, random.Random(rng.randrange(10**9)))
        for a in attr_pool
    }
    publics = {a: auth.public() for a, auth in authorities.items()}
    owner = Owner.create(ctx, "owner", random.Random(rng.randrange(10**9)))
    keywords = [f"kw{i}" for i in range(10)]
    for i in range(n_records):
        server.store_record(
            owner.publish(
                f"rec-{i}".encode(),
                rng.sample(keywords, rng.randrange(1, 4)),
                list(rng.sample(attr_pool, rng.randrange(1, len(attr_pool) + 1))),
                rng.randrange(1, n_sets + 1),
                publics,
            )
        )
    return pks, server, authorities, owner, keywords


def test_criterion_6_pipeline_ordering():
    with report(6, "pipeline ordering: policy checks <= keyword hits on every fuzz search"):
        ctx = OracleContext()
        rng = random.Random(601)
        pks, server, authorities, owner, keywords = _fuzz_world(ctx, rng, 1000)
        user = User(ctx, "fuzz-user", random.Random(602))
        n_sets = pks.n
        for trial in range(50):
            session = user.new_session()
            for a in rng.sample(sorted(authorities), rng.randrange(1, len(authorities) + 1)):
                user.collect(session, authorities[a])
            keyword = rng.choice(keywords + ["missing-kw"])
            subset = sorted(rng.sample(range(1, n_sets + 1), rng.randrange(1, n_sets + 1)))
            consent = owner.consent(keyword, subset, pks)
            stats = server.search(user.build_search_request(session, consent)).stats
            assert stats.abe_verified <= stats.sse_matched <= stats.candidates


# ---------------------------------------------------------------------------
# 7. linear search scaling and parallel consistency
# ---------------------------------------------------------------------------


def test_criterion_7_linear_scaling():
    with report(7, "search scales linearly over 1k..8k records (R^2 >= 0.95); "
                   "4-worker search equals serial (<2min)"):
        started = time.perf_counter()
        ctx = OracleContext()
        rng = random.Random(701)
        pks = sse.server_setup(ctx, 2, rng)
        authority = Authority.create(ctx, "A1", random.Random(702))
        publics = {"A1": authority.public()}
        owner = Owner.create(ctx, "owner", random.Random(703))
        user = User(ctx, "scale-user", random.Random(704))

        sizes = [1000, 2000, 4000, 8000]
        records = []
        for i in range(max(sizes)):
            keyword = "needle" if i % 100 == 0 else f"hay-{i}"
            records.append(
                owner.publish(f"r{i}".encode(), [keyword], ["A1"], 1 + i % 2, publics)
            )

        session = user.new_session()
        user.collect(session, authority)
        consent = owner.consent("needle", [1, 2], pks)
        request = user.build_search_request(session, consent)

        times = []
        big_server = None
        for size in sizes:
            server = EscrowServer(ctx, pks)
            for rec in records[:size]:
                server.store_record(rec)
            best = min(
                _timed_search(server, request) for _ in range(5)
            )
            times.append(best)
            if size == max(sizes):
                big_server = server

        # least-squares fit of time vs size
        n = len(sizes)
        mean_x = sum(sizes) / n
        mean_y = sum(times) / n
        sxx = sum((x - mean_x) ** 2 for x in sizes)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, times))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, times))
        ss_tot = sum((y - mean_y) ** 2 for y in times)
        r_squared = 1.0 - ss_res / ss_tot
        print(f"    sizes={sizes} times={[f'{t*1000:.1f}ms' for t in times]} R^2={r_squared:.4f}")
        assert r_squared >= 0.95, f"R^2 {r_squared:.4f} below 0.95 (times {times})"
        assert slope > 0

        with cores(1):
            serial = big_server.search(request)
        with cores(4):
            parallel = big_server.search(request)
        assert parallel == serial
        assert len(serial.matches) == max(sizes) // 100
        assert time.perf_counter() - started < 120.0


def _timed_search(server, request):
    t0 = time.perf_counter()
    server.search(request)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 8. re-encryption gate over a 20-record fixture
# ---------------------------------------------------------------------------


def test_criterion_8_reencryption_gate():
    with report(8, "re-encryption gate: valid rtk accepted, forged/lying rtk rejected "
                   "with records byte-identical, over 20 records"):
        ctx = OracleContext()
        rng = random.Random(801)
        pks, server, authorities, owner, keywords = _fuzz_world(
            ctx, rng, 20, n_sets=3, attr_pool=("A1", "A2")
        )
        stranger = Owner.create(ctx, "stranger", random.Random(802))
        for record_id in server.record_ids():
            rec = server.fetch(record_id)
            subset = (rec.set_index,)
            before = record_bytes(ctx, rec)

            search_token = owner.consent(keywords[0], subset, pks).search_token.token
            layers = [owner.update_request(record_id, subset, pks, keywords=["x"]).new_sse
                      for _ in range(2)]
            forged = [
                UpdateRequest(record_id=record_id, rtk=search_token, subset=subset,
                              new_sse=layers[0]),
                UpdateRequest(record_id=record_id,
                              rtk=owner.reencryption_token((1, 2, 3), pks), subset=subset,
                              new_sse=layers[1]),
                stranger.update_request(record_id, subset, pks, keywords=["x"]),
            ]
            for req in forged:
                with pytest.raises(UpdateRejected):
                    server.reencrypt(req)
                assert record_bytes(ctx, server.fetch(record_id)) == before

            assert server.reencrypt(
                owner.update_request(record_id, subset, pks, keywords=["rotated"])
            ) == record_id
            assert record_bytes(ctx, server.fetch(record_id)) != before


# ---------------------------------------------------------------------------
# 9. backend equivalence under an identical seeded scenario
# ---------------------------------------------------------------------------


def _scenario_outcomes(ctx, seed):
    """A fixed protocol script returning only boolean outcomes; randomness
    comes from one seeded stream of scalars."""
    rng = random.Random(seed)
    outcomes = []
    pks = sse.server_setup(ctx, 3, rng)
    server = EscrowServer(ctx, pks)
    a1 = Authority.create(ctx, "A1", random.Random(seed + 1))
    a2 = Authority.create(ctx, "A2", random.Random(seed + 2))
    publics = {"A1": a1.public(), "A2": a2.public()}
    owner = Owner.create(ctx, "owner", random.Random(seed + 3))
    user = User(ctx, "user-gid", random.Random(seed + 4))

    rid = server.store_record(owner.publish(b"secret-data", ["bp"], ["A1", "A2"], 2, publics))
    server.store_record(owner.publish(b"other", ["hr"], ["A1"], 1, publics))

    results = user_request(user, owner, [a1, a2], server, "bp", [1, 2])
    outcomes.append(len(results) == 1 and results[0] == (rid, b"secret-data"))
    outcomes.append(user_request(user, owner, [a1, a2], server, "absent", [1, 2]) == [])
    outcomes.append(user_request(user, owner, [a1, a2], server, "bp", [1]) == [])
    outcomes.append(user_request(user, owner, [a1], server, "bp", [1, 2]) == [])

    # collusion: mix credential blindings inside one request
    session = user.new_session()
    user.collect(session, a1)
    rogue = user.new_session()
    user.collect(rogue, a2)
    session.credentials["A2"] = rogue.credentials["A2"]
    consent = owner.consent("bp", [1, 2], pks)
    response = server.search(user.build_search_request(session, consent))
    outcomes.append(len(response.matches) == 0)

    # update gate
    try:
        server.reencrypt(
            UpdateRequest(record_id=rid, rtk=consent.search_token.token, subset=(1, 2),
                          new_sse=owner.update_request(rid, (1, 2), pks, keywords=["x"]).new_sse)
        )
        outcomes.append(False)
    except UpdateRejected:
        outcomes.append(True)
    server.reencrypt(owner.update_request(rid, (2,), pks, keywords=["bp-v2"]))
    outcomes.append(user_request(user, owner, [a1, a2], server, "bp", [2]) == [])
    after = user_request(user, owner, [a1, a2], server, "bp-v2", [2])
    outcomes.append(after == [(rid, b"secret-data")])
    return outcomes


def test_criterion_9_backend_equivalence(curve_ctx):
    with report(9, "identical seeded scenario gives identical booleans on both backends"):
        oracle_outcomes = _scenario_outcomes(OracleContext(), 901)
        curve_outcomes = _scenario_outcomes(curve_ctx, 901)
        assert oracle_outcomes == curve_outcomes
        assert oracle_outcomes == [True] * len(oracle_outcomes)
