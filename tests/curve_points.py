"""Curve points outside the order-q subgroup, and a reference multiplier.

E(F_p) is cyclic of order p + 1 = h*q with h = 4 * 1151 * r (r a 339-bit
prime): y^2 = x^3 + x has the single point (0, 0) of order 2, because -1 is
a non-square mod p.  So points of every order dividing h*q exist, and
``small_order_points`` builds one of each kind a decoder must refuse, and
``malformed_encodings`` the byte strings that encode no point at all.
"""

import hashlib

from triseal.pairing.curve import CURVE_H, CURVE_P, CURVE_Q, _pt_add, _pt_mul

ORDER = CURVE_H * CURVE_Q  # #E(F_p) = p + 1
R339 = CURVE_H // (4 * 1151)


def affine_mul(pt, k):
    """[k]P by affine double-and-add over ``_pt_add``: slow and plain."""
    acc = None
    for bit in bin(k)[2:]:
        acc = _pt_add(acc, acc)
        if bit == "1":
            acc = _pt_add(acc, pt)
    return acc


def raw_point(label: bytes):
    """A curve point before cofactor clearing: try-and-increment from a
    SHA-256 x, so its order is almost surely not q."""
    x = int.from_bytes(hashlib.sha256(label).digest() * 2, "big") % CURVE_P
    while True:
        rhs = (x * x * x + x) % CURVE_P
        y = pow(rhs, (CURVE_P + 1) // 4, CURVE_P)
        if rhs and y * y % CURVE_P == rhs:
            return x, y
        x += 1


def encode(pt) -> bytes:
    """Compressed encoding with the tag of y's parity, as the backend writes."""
    x, y = pt
    return bytes([2 + (y & 1)]) + x.to_bytes(64, "big")


def small_order_points() -> dict:
    """name -> compressed bytes of a point the order-q check must refuse."""
    # x = -1 is a point of order 4: 2P = (0, 0), and y^2 = -2 is a square
    # because p = 3 (mod 8)
    assert CURVE_P % 8 == 3
    y4 = pow(CURVE_P - 2, (CURVE_P + 1) // 4, CURVE_P)
    order4 = (CURVE_P - 1, y4)
    assert _pt_mul(order4, 2) == (0, 0)
    order1151 = _pt_mul(raw_point(b"order-1151"), ORDER // 1151)
    assert order1151 is not None and _pt_mul(order1151, 1151) is None
    full = raw_point(b"order-hq-4")  # the first label of full order
    assert all(_pt_mul(full, ORDER // f) is not None for f in (2, 1151, R339, CURVE_Q))
    return {
        "(0,0) tag 2": b"\x02" + bytes(64),
        "(0,0) tag 3": b"\x03" + bytes(64),
        "order 4": encode(order4),
        "order 1151": encode(order1151),
        "order h*q": encode(full),
    }


def malformed_encodings(good: bytes) -> dict:
    """name -> bytes, made from the valid encoding ``good``, that no G decoder
    may accept: they encode no curve point."""
    return {
        "short": good[:-1],
        "bad tag": b"\x07" + good[1:],
        "identity tag with a payload": b"\x00" + good[1:],
        "x off the curve": b"\x02" + bytes(63) + b"\x05",  # x^3 + x is a non-square
    }
