"""Bilinear-group interface: worked vectors, group laws, serialization."""

import random

import pytest

from curve_points import ORDER, affine_mul, malformed_encodings, raw_point, small_order_points
from exponent_oracle import brute_inverse
from hash_pins import pin_hash
from triseal.errors import BackendMismatch, InvalidElement, NonInvertible, SideMismatch
from triseal.pairing import GroupElement, HashDomain, OracleContext, Side
from triseal.pairing.curve import CURVE_H, CURVE_P, CURVE_Q, _pt_add, _pt_mul, _point_from_label


def test_pair_exponent_vector(oracle101):
    ctx = oracle101
    out = ctx.pair(ctx.g_left**2, ctx.g_right**3)
    assert out.data == 2 * 3 % 101
    assert out == ctx.gt_generator**6


def test_pair_zero_exponent_gives_identity(oracle101):
    ctx = oracle101
    for v in (1, 17, 100):
        assert ctx.pair(ctx.g_left**0, ctx.g_right**v).is_identity


def test_oracle_pairing_symmetric_emulation(oracle101):
    ctx = oracle101
    rng = random.Random(5)
    for _ in range(50):
        u, v = rng.randrange(101), rng.randrange(101)
        assert ctx.pair(ctx.g_left**u, ctx.g_right**v) == ctx.pair(
            ctx.g_left**v, ctx.g_right**u
        )


def test_scalar_inverse_vectors(oracle101):
    assert oracle101.scalar_inverse(7) == brute_inverse(7) == 29
    assert oracle101.scalar_inverse(1) == 1
    with pytest.raises(NonInvertible):
        oracle101.scalar_inverse(0)
    with pytest.raises(NonInvertible):
        oracle101.scalar_inverse(101)  # zero mod q


def test_scalar_inverse_random_against_brute(oracle101):
    rng = random.Random(3)
    for _ in range(30):
        s = rng.randrange(1, 101)
        assert oracle101.scalar_inverse(s) == brute_inverse(s)
        assert s * oracle101.scalar_inverse(s) % 101 == 1


class ScriptedRng:
    """Hands out scripted draws and records every ``randrange`` call."""

    def __init__(self, draws):
        self.draws, self.calls = list(draws), []

    def randrange(self, start, stop):
        self.calls.append((start, stop))
        return self.draws.pop(0)


def test_random_scalar_redraws_only_past_avoided_values(oracle101):
    rng = ScriptedRng([5, 7, 5, 9])
    assert oracle101.random_scalar(rng, avoid=[5, 108]) == 9  # 108 = 7 mod q
    assert rng.calls == [(1, 101)] * 4
    for avoid in ((), {5}):
        rng = ScriptedRng([42])
        assert oracle101.random_scalar(rng, avoid) == 42
        assert rng.calls == [(1, 101)]  # nothing collides: exactly one draw


def test_group_ops_vectors(oracle101):
    ctx = oracle101
    assert (ctx.g_left**70 * ctx.g_left**35).data == (70 + 35) % 101
    x = ctx.g_left**41
    assert x**1 == x
    gt = ctx.gt_generator
    assert ctx.gt_div(gt**88, gt**80) == gt ** ((88 - 80) % 101)
    assert x != x.data and gt != gt.data  # not elements: unequal


def test_hash_determinism_and_domains(oracle_big):
    ctx = oracle_big
    a = ctx.hash_to_group(HashDomain.KEYWORD, b"bp")
    b = ctx.hash_to_group(HashDomain.KEYWORD, b"bp")
    assert a == b
    assert a.side is Side.LEFT
    assert ctx.hash_to_group(HashDomain.KEYWORD, b"bp") != ctx.hash_to_group(
        HashDomain.GID, b"bp"
    )
    assert ctx.hash_to_group(HashDomain.KEYWORD, b"bp") != ctx.hash_to_group(
        HashDomain.UPDATE_ID, b"bp"
    )
    assert ctx.hash_to_group(HashDomain.KEYWORD, "bp") == a  # str encodes as UTF-8


def test_hash_injection_hook(oracle101):
    ctx = oracle101
    plain = OracleContext(101)
    pin_hash(ctx, HashDomain.KEYWORD, b"bp", 5)
    assert ctx.hash_to_group(HashDomain.KEYWORD, b"bp") == ctx.g_left**5
    # other inputs keep the regular hash
    assert (
        ctx.hash_to_group(HashDomain.KEYWORD, b"hr").data
        == plain.hash_to_group(HashDomain.KEYWORD, b"hr").data
    )


def test_side_mismatch_errors(oracle101):
    ctx = oracle101
    with pytest.raises(SideMismatch):
        ctx.group_mul(ctx.g_left, ctx.g_right)
    with pytest.raises(SideMismatch):
        ctx.pair(ctx.g_right, ctx.g_left)
    with pytest.raises(SideMismatch):
        ctx.pair(ctx.g_left, ctx.g_left)


def test_backend_mismatch(oracle101, oracle_big):
    with pytest.raises(BackendMismatch):
        oracle101.group_mul(oracle101.g_left, oracle_big.g_left)
    with pytest.raises(BackendMismatch):
        oracle_big.pair(oracle101.g_left, oracle_big.g_right)


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_pairing_product_equals_product_of_pairs(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    rng = random.Random(15)
    for k in range(4):
        pairs = [
            (ctx.g_left ** rng.randrange(1, ctx.order), ctx.g_right ** rng.randrange(1, ctx.order))
            for _ in range(k)
        ]
        expected = ctx.gt_identity()
        for x, y in pairs:
            expected = expected * ctx.pair(x, y)
        assert ctx.pairing_product(pairs) == expected
    assert ctx.pairing_product([]) == ctx.gt_identity()
    x, y = ctx.g_left**5, ctx.g_right**7
    assert ctx.pairing_product([(ctx.group_identity(Side.LEFT), y)]).is_identity
    assert ctx.pairing_product([(x, ctx.group_identity(Side.RIGHT))]).is_identity
    assert ctx.group_inverse(ctx.group_identity(Side.LEFT)).is_identity
    assert ctx.pair(ctx.group_inverse(x), y) == ctx.gt_identity() / ctx.pair(x, y)
    assert ctx.pairing_product([(x, y), (ctx.group_inverse(x), y)]).is_identity


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_pairing_product_checks_sides_and_context(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    x, y = ctx.g_left, ctx.g_right
    with pytest.raises(SideMismatch):
        ctx.pairing_product([(x, y), (y, x)])
    with pytest.raises(SideMismatch):
        ctx.pairing_product([(x, x)])
    foreign = OracleContext(101)
    with pytest.raises(BackendMismatch):
        ctx.pairing_product([(x, y), (foreign.g_left, y)])
    with pytest.raises(BackendMismatch):
        ctx.pairing_product([(x, foreign.g_right)])
    with pytest.raises(BackendMismatch):
        ctx.group_inverse(foreign.g_left)


def test_oracle_requires_prime_order(oracle101):
    for order in (1, 2, 100, 1763):  # 2 is not odd; 1763 = 41 * 43 passes trial division
        with pytest.raises(ValueError):
            OracleContext(order)
    with pytest.raises(InvalidElement):
        oracle101.element_from_bytes(bytes([101]), Side.LEFT)  # 101 = q is no exponent


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_bilinearity_property(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    trials = 1000 if backend == "oracle" else 200
    rng = random.Random(11)
    g, gr = ctx.g_left, ctx.g_right
    egg = ctx.gt_generator
    for _ in range(trials):
        u = rng.randrange(ctx.order)
        v = rng.randrange(ctx.order)
        assert ctx.pair(g**u, gr**v) == egg ** (u * v % ctx.order)


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_multiplicativity_property(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    rng = random.Random(12)
    gr = ctx.g_right
    for _ in range(20):
        x1 = ctx.g_left ** rng.randrange(ctx.order)
        x2 = ctx.g_left ** rng.randrange(ctx.order)
        y = gr ** rng.randrange(ctx.order)
        assert ctx.pair(x1 * x2, y) == ctx.pair(x1, y) * ctx.pair(x2, y)


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_non_degeneracy(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    assert not ctx.gt_generator.is_identity


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_serialization_round_trip(backend, oracle_big, curve_ctx):
    ctx = oracle_big if backend == "oracle" else curve_ctx
    rng = random.Random(13)
    for side in (Side.LEFT, Side.RIGHT):
        e = (ctx.g_left if side is Side.LEFT else ctx.g_right) ** rng.randrange(1, ctx.order)
        assert ctx.element_from_bytes(ctx.element_to_bytes(e), side) == e
        ident = ctx.group_identity(side)
        assert ctx.element_from_bytes(ctx.element_to_bytes(ident), side) == ident
    z = ctx.pair(ctx.g_left ** rng.randrange(1, ctx.order), ctx.g_right)
    assert ctx.gt_from_bytes(ctx.gt_to_bytes(z)) == z


@pytest.mark.parametrize("backend", ["oracle", "curve"])
def test_gt_equality_is_canonical(backend, oracle_big, curve_ctx):
    """Two different computation paths to the same GT value serialize
    byte-identically."""
    ctx = oracle_big if backend == "oracle" else curve_ctx
    rng = random.Random(14)
    u, v = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
    a = ctx.pair(ctx.g_left**u, ctx.g_right**v)
    b = ctx.pair(ctx.g_left, ctx.g_right**v) ** u
    c = ctx.pair(ctx.g_left**u, ctx.g_right) ** v
    assert ctx.gt_to_bytes(a) == ctx.gt_to_bytes(b) == ctx.gt_to_bytes(c)


def test_curve_rejects_malformed_points(curve_ctx):
    ctx = curve_ctx
    for raw in malformed_encodings(ctx.element_to_bytes(ctx.g_left)).values():
        with pytest.raises(InvalidElement):
            ctx.element_from_bytes(raw, Side.LEFT)
    one, past = (1).to_bytes(64, "big"), CURVE_P.to_bytes(64, "big")
    for raw in (bytes(128), one + bytes(63), one + bytes(65), past + bytes(64), one + past):
        with pytest.raises(InvalidElement):
            ctx.gt_from_bytes(raw)
    inv5 = pow(5, -1, CURVE_P)
    for a, b in (
        (2, 0),  # norm 4
        (CURVE_P - 1, 0),  # -1: norm 1, order 2
        (3 * inv5 % CURVE_P, -4 * inv5 % CURVE_P),  # (2 - i)/(2 + i): norm 1, order not q
    ):
        with pytest.raises(InvalidElement):
            ctx.gt_from_bytes(a.to_bytes(64, "big") + b.to_bytes(64, "big"))


def test_curve_rejects_out_of_subgroup_point(curve_ctx):
    ctx = curve_ctx
    # a raw hashed point before cofactor clearing has order != q almost surely
    raw = _point_from_label(b"subgroup-test")  # this one IS in the subgroup
    assert _pt_mul(raw, ctx.order) is None
    import hashlib

    x = int.from_bytes(hashlib.sha256(b"outside").digest() * 2, "big")
    from triseal.pairing.curve import CURVE_P, _SQRT_EXP

    while True:
        x %= CURVE_P
        rhs = (x * x * x + x) % CURVE_P
        y = pow(rhs, int(_SQRT_EXP), CURVE_P)
        if rhs and y * y % CURVE_P == rhs:
            break
        x += 1
    assert _pt_mul((x, y), ctx.order) is not None  # not killed by q: outside subgroup
    encoded = bytes([2 + (y & 1)]) + x.to_bytes(64, "big")
    with pytest.raises(InvalidElement):
        ctx.element_from_bytes(encoded, Side.LEFT)
    # (0, 0) under either tag and points of order 4, 1151 and h*q
    for raw in small_order_points().values():
        for side in Side:
            with pytest.raises(InvalidElement, match="order-q subgroup"):
                ctx.element_from_bytes(raw, side)


def test_curve_point_sum_with_infinity_is_the_point(curve_ctx):
    g = curve_ctx.g_left.data
    assert _pt_add(g, None) == _pt_add(None, g) == g


def test_ladder_matches_affine_double_and_add(curve_ctx):
    """The x-only ladder with y recovery equals plain affine double-and-add
    on points in and outside the subgroup, (0, 0) included, for edge
    scalars (k = q - 1 and k = #E - 1 give -P) and random ones up to 512
    bits."""
    rng = random.Random(1987)
    points = [
        _point_from_label(b"ladder-test"),
        curve_ctx.g_right.data,
        *(raw_point(b"ladder-raw-%d" % i) for i in range(3)),
        (0, 0),
    ]
    scalars = [0, 1, 2, 3, CURVE_Q - 1, CURVE_Q, CURVE_Q + 1, CURVE_H, ORDER - 1, ORDER]
    scalars += [rng.getrandbits(rng.randrange(1, 513)) for _ in range(8)]
    for pt in points:
        for k in scalars:
            assert _pt_mul(pt, k) == affine_mul(pt, k), (pt, k)
    assert _pt_mul(points[0], CURVE_Q - 1) == (points[0][0], CURVE_P - points[0][1])
    assert _pt_mul((0, 0), 3) == (0, 0) and _pt_mul((0, 0), 2) is None


def test_prepare_is_the_subgroup_check(curve_ctx):
    """The line preparation walks [q]P, so ``prepare`` refuses every point
    outside the order-q subgroup: (0, 0), orders 4, 1151 and h*q, and raw
    try-and-increment points.  It accepts hashed points and both generators,
    returning an equal element with equal bytes and hash, idempotently, that
    pairs as the point does.  Over seeded random points of E(F_p) and their
    multiples it agrees with [q]P = O by the ladder."""
    ctx = curve_ctx

    def prepared(pt):
        return ctx.prepare(GroupElement(ctx, Side.LEFT, pt))

    for raw in small_order_points().values():
        with pytest.raises(InvalidElement, match="order-q subgroup"):
            prepared(ctx._g_from_bytes(raw, False))
    for i in range(3):
        with pytest.raises(InvalidElement, match="order-q subgroup"):
            prepared(raw_point(b"prepare-raw-%d" % i))
    right = ctx.g_right ** 12345
    for point in (ctx.hash_to_group(HashDomain.KEYWORD, b"prepare"), ctx.g_left, ctx.g_right):
        left = GroupElement(ctx, Side.LEFT, point.data)
        p = ctx.prepare(left)
        assert p == left and hash(p) == hash(left) and p.data.lines
        assert ctx.element_to_bytes(p) == ctx.element_to_bytes(left)
        assert ctx.prepare(p).data is p.data
        assert ctx.pair(p, right) == ctx.pairing_product([(left, right)])
    assert ctx.prepare(ctx.group_identity(Side.LEFT)).is_identity
    rng = random.Random(2010)
    agreed = {True: 0, False: 0}
    for i in range(5):
        base = raw_point(b"prepare-random-%d" % rng.getrandbits(64))
        multiples = (1, 2, 4, 1151, CURVE_H // 4, CURVE_H // 1151, CURVE_H)
        for m in (*multiples, CURVE_H * rng.randrange(1, CURVE_Q)):
            pt = _pt_mul(base, m)
            if pt is None:
                continue
            in_g = _pt_mul(pt, CURVE_Q) is None
            try:
                prepared(pt)
                assert in_g, (i, m)
            except InvalidElement:
                assert not in_g, (i, m)
            agreed[in_g] += 1
    assert agreed[True] >= 5 and agreed[False] >= 20


def test_curve_generators_have_order_q(curve_ctx):
    ctx = curve_ctx
    assert (ctx.g_left ** ctx.order).is_identity
    assert (ctx.g_right ** ctx.order).is_identity
    assert not ctx.g_left.is_identity and not ctx.g_right.is_identity
    assert ctx.g_left != ctx.g_right.ctx.group_identity(Side.LEFT)


def test_param_header_round_trip(oracle101, oracle_big, curve_ctx):
    from triseal.pairing import context_from_header, make_context

    for ctx in (oracle101, oracle_big, curve_ctx):
        rebuilt = context_from_header(ctx.param_header())
        assert rebuilt.fingerprint == ctx.fingerprint
        assert rebuilt.order == ctx.order
    with pytest.raises(InvalidElement):
        context_from_header({"format": 99, "backend": "oracle", "q": "65"})
    with pytest.raises(InvalidElement):  # no supported context has this header
        context_from_header({**curve_ctx.param_header(), "p": "7"})
    with pytest.raises(ValueError):
        make_context("curve", order=101)
    with pytest.raises(ValueError):
        make_context("lattice")


def test_cofactor_structure():
    # group order p + 1 = h*q with q^2 not dividing it; regenerating either
    # generator from its label reproduces the built-in one
    from triseal.pairing.curve import CURVE_P, CURVE_Q

    assert (CURVE_P + 1) == CURVE_H * CURVE_Q
    assert CURVE_H % CURVE_Q != 0
    assert _point_from_label(b"triseal/v1/base/left") == _point_from_label(
        b"triseal/v1/base/left"
    )


# SHA-256 of curve output bytes, recorded from the affine Miller loop and the
# double-and-add scalar multiplication.  A rewrite of the pairing or of G
# exponentiation must reproduce them exactly: a Miller loop that is bilinear
# but scaled differently would pass the property tests above, yet change the
# tags of every stored record.
_KAT_K = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276B  # fixed 160-bit exponent
_KAT_GEN_PAIR = "394f6b7662b922482b281f1f0e197c6a1525733777cd1400e16a711cda49f4ab"
_KAT_KEYWORD_PAIR = {
    1: "a82c32d21ba8774432894ada54c0e8f21b08c5c8e3bfc0050bf18791c318a1fc",
    2: "ecae667a0c9025336c959959021fc89cfd10c67fe8afd1305937efb99336d3f4",
    _KAT_K: "aebd893b28f55fd94da86e2f564735a0e0bb0bdd419beb5ac60f35244b2fd710",
}
_KAT_G_EXP = {  # k -> (g_left^k, g_right^k); k = -1 stands for q - 1
    1: (
        "f96b5c9b8ec3c3a7f6f150970f53898284f6a3577cedb39384e9403d87c5409b",
        "1137424262cf83c1d8571e5553e056e595f71c228d27c1057d5f8035da96de8f",
    ),
    2: (
        "1c0b397dd6a910737f1b056e7056118c91731c6ff0894979b51522d57d6b1317",
        "7e5aabff09658ab6f384df29dbb34f3df1133a59396976ca5bd11c2ea5a7f975",
    ),
    -1: (
        "cfa33f2915361cb0f429b304cef9d0fed30443e9dfc27ac1ef02c183c4541993",
        "e1829762cc435c51caa9ce78cb3dd81ea174ac448085098002492845a4b7e6e9",
    ),
    _KAT_K: (
        "fcefd9eae7fe26c81c9e9cc7d3d1810b9bf5c4622d1183ee9338bbdda38d26dd",
        "2b14476cf5dbfa64b72b43b90eb78f6fd1e2fea7379aa009d6b421572e43f056",
    ),
}
_KAT_HASH_BP = (
    "02302fc48c1cc0a5cb7b72de84fa4128e7c943c7caaea33568ed065391f7a091bb"
    "890b2348f8703b94545d8a2c736ecd7d168ff05eb532a434e833b927c9eedaea"
)


def test_curve_known_answers(curve_ctx):
    import hashlib

    ctx = curve_ctx

    def digest(raw):
        return hashlib.sha256(raw).hexdigest()

    h = ctx.hash_to_group(HashDomain.KEYWORD, b"bp")
    assert ctx.element_to_bytes(h).hex() == _KAT_HASH_BP
    assert digest(ctx.gt_to_bytes(ctx.pair(ctx.g_left, ctx.g_right))) == _KAT_GEN_PAIR
    for k, expected in _KAT_KEYWORD_PAIR.items():
        assert digest(ctx.gt_to_bytes(ctx.pair(h, ctx.g_right**k))) == expected
    # e(h, g^2) * e(h^-1, g) as one product gives the pinned bytes of e(h, g)
    ratio = ctx.pairing_product([(h, ctx.g_right**2), (ctx.group_inverse(h), ctx.g_right)])
    assert digest(ctx.gt_to_bytes(ratio)) == _KAT_KEYWORD_PAIR[1]
    one = ctx.pair(ctx.group_identity(Side.LEFT), ctx.g_right)
    assert ctx.gt_to_bytes(one) == (1).to_bytes(64, "big") + bytes(64)
    for k, (left, right) in _KAT_G_EXP.items():
        assert digest(ctx.element_to_bytes(ctx.g_left**k)) == left
        assert digest(ctx.element_to_bytes(ctx.g_right**k)) == right


_STUB_GMPY2 = """
import sys, types

stub = types.ModuleType("gmpy2")
stub.mpz = lambda x: int(x)
stub.invert = lambda a, m: pow(a, -1, m)
stub.powmod = lambda a, e, m: pow(a, e, m)
sys.modules["gmpy2"] = stub

from triseal.pairing import HashDomain, curve

ctx = curve.CurveContext()
print(curve._powmod is pow)
print(ctx.element_to_bytes(ctx.hash_to_group(HashDomain.KEYWORD, b"bp")).hex())
"""


def test_curve_computes_on_built_in_integers_even_with_gmpy2_importable():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _STUB_GMPY2], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["True", _KAT_HASH_BP]
