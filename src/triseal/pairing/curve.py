"""Supersingular-curve backend with the modified Tate pairing.

Curve: E : y^2 = x^3 + x over F_p with p = 3 (mod 4), so E is supersingular
with #E(F_p) = p + 1 and embedding degree 2.  G is the order-q subgroup of
E(F_p) (q prime, p + 1 = h*q, q^2 does not divide p + 1), GT is the order-q
subgroup of F_{p^2}^*, and the pairing is

    e(P, Q) = f_{q,P}(phi(Q)) ^ ((p^2 - 1) / q),

where phi(x, y) = (-x, i*y) is the distortion map into E(F_{p^2}) and
f_{q,P} is the Miller function.  Every F_p factor of f vanishes under the
final exponentiation (Barreto-Kim-Lynn-Scott), so the Miller loop skips the
vertical lines.  The lines of f_{q,P} depend on P alone: they are computed
over the non-adjacent form of q with T in Jacobian coordinates
(Chatterjee-Sarkar-Barua), made monic with one batched inversion, and
carried by a point that ``prepare`` returns (fixed-argument precomputation,
Scott); that walk ends at [q]P, so it is also P's subgroup check.  The two
generators' lines are kept for good, and so is e(g_L, g_R), computed at its
first use: ``pair`` of the two generators still runs, but answers with the
constant instead of a Miller loop.  Every point of G lies in the one cyclic
order-q subgroup, so the pairing is symmetric, e(P, Q) = e(Q, P): a pair whose
second point is a generator, or carries lines while its first does not, runs
over the second point's lines at phi(P) (Costello-Stebila).  So the argument
that lasts is the one prepared, in either position.  A product of pairings
squares one F_{p^2} accumulator per digit, multiplies in each pair's line, and
shares one final exponentiation (Granger-Smart); a single pairing is the
one-pair product.  After the (p - 1) step of the final exponentiation the
value has norm 1, and the (p + 1)/q step runs as a Lucas ladder over F_p
(Scott-Barreto).  F_{p^2} is realised as F_p[i] / (i^2 + 1), elements stored
as (a, b) for a + b*i.

Parameters: q is the first prime above a fixed 160-bit hash seed, and
p = 4k*q - 1 is the first 512-bit prime found scanning k upward from a
base derived from a second seed.  This is the same parameter class (and
security level) as the widely deployed 512-bit supersingular pairing
groups.

A power of g_L, g_R or e(g_L, g_R) multiplies in one entry of the base's
4-bit window table per nonzero base-16 digit of the exponent, at most 40
(fixed-base windowing, Brickell-Gordon-McCurley-Wilson); the table is built
at the base's first power and kept for the process.  A power of any other GT
value is that Lucas ladder.  Every other scalar multiplication (the order-q
check of a decoded point, cofactor clearing in hash-to-group, powers of any
other point) is the x-only Montgomery ladder: E is the Montgomery curve
y^2 = x^3 + A*x^2 + x with A = 0, whose ladder formulas are complete since
A^2 - 4 is a non-square mod p (Montgomery; Bernstein), and y is recovered
at the end (Okeya-Sakurai) with the one inversion an affine result needs.
"""

from __future__ import annotations

import functools
import hashlib

from ..errors import InvalidElement
from .base import WIRE_FORMAT, HashDomain, PairingContext


def _inv(a, m):
    return pow(a, -1, m)


_powmod = pow

CURVE_Q = 0xE67713B1616219729B6B8B5F4EFCBAA8DC14B8FF
CURVE_H = 0x8E2E98EF3B25B2EF02D7CE22A0E5D0F3F9E770AEB202CB919778B6478AAE5A0880595CD3DA44207B74FD19D4
CURVE_P = CURVE_H * CURVE_Q - 1

assert CURVE_P % 4 == 3 and CURVE_H % CURVE_Q != 0

_P = CURVE_P
_P_BYTES = 64
_SQRT_EXP = (CURVE_P + 1) // 4
_FINAL_EXP = (CURVE_P + 1) // CURVE_Q  # applied after the Frobenius step f^(p-1)

_H2G_PREFIX = b"triseal/v1/h2g/"

Point = tuple  # affine (x, y); None is the point at infinity
Fp2 = tuple  # (a, b) meaning a + b*i with i^2 = -1

_ONE = (1, 0)


# -- F_{p^2} arithmetic ----------------------------------------------------


def _fp2_mul(x, y):
    a, b = x
    c, d = y
    ac = a * c % _P
    bd = b * d % _P
    return (ac - bd) % _P, ((a + b) * (c + d) - ac - bd) % _P


def _fp2_sqr(x):
    a, b = x
    return (a + b) * (a - b) % _P, 2 * a * b % _P


def _unitary_pow(x, e):
    """x^e for x = a + b*i of norm 1, by a Lucas ladder over F_p.

    W(n) = Re(x^n) = V(n) / 2 for the Lucas sequence V(n) = x^n + x^-n, so
    W(2n) = 2*W(n)^2 - 1 and W(2n+1) = 2*W(n)*W(n+1) - a, and the imaginary
    part follows from two consecutive terms: Im(x^n) = (a*W(n) - W(n+1)) / b."""
    a, b = x
    if b == 0:  # x = +-1: the ladder's division by b is undefined
        return _powmod(a, e, _P), b
    w0, w1 = 1, a  # (W(n), W(n+1)) for n = 0
    for bit in bin(e)[2:]:
        if bit == "1":
            w0, w1 = (2 * w0 * w1 - a) % _P, (2 * w1 * w1 - 1) % _P
        else:
            w0, w1 = (2 * w0 * w0 - 1) % _P, (2 * w0 * w1 - a) % _P
    return w0, (a * w0 - w1) * _inv(b, _P) % _P


# -- E(F_p) arithmetic -------------------------------------------------------


def _pt_add(a, b):
    if a is None or b is None:
        return a or b
    if a[0] == b[0] and (a[1] + b[1]) % _P == 0:
        return None
    return _affine_adds([(a, b)])[0]


def _affine_adds(pairs):
    """P + Q for each pair of affine points with P != -Q, the chord or tangent
    slopes sharing one batched inversion."""
    invs = _batch_inv([2 * p[1] if p == q else q[0] - p[0] for p, q in pairs])
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, invs):
        slope = (3 * x1 * x1 + 1 if x1 == x2 else y2 - y1) * inv % _P
        x3 = (slope * slope - x1 - x2) % _P
        out.append((x3, (slope * (x1 - x3) - y1) % _P))
    return out


def _naf(k):
    """Non-adjacent form of k > 0, most significant digit first: digits in
    {-1, 0, 1}, a third of them nonzero on average instead of a half."""
    digits = []
    while k:
        d = 2 - (k & 3) if k & 1 else 0
        digits.append(d)
        k = (k - d) >> 1
    return digits[::-1]


_Q_NAF = _naf(CURVE_Q)[1:]  # digits below the leading one


def _ladder(x, k):
    """([k]P, [k+1]P) as projective (X : Z) pairs from x = x(P) alone, with
    Z = 0 at infinity: the Montgomery ladder, 5M + 4S per bit of k.  Each
    step doubles one point and adds the two, whose difference is P; that
    differential addition multiplies by x(P), so x = 0, the point (0, 0) of
    order 2, is the caller's.  For any other x the formulas hold for every
    input, infinity included, because A^2 - 4 = -4 (A = 0) is a non-square
    mod p = 3 (mod 4) (Bernstein, "Curve25519", Thm 2.1)."""
    X0, Z0, X1, Z1 = 1, 0, x, 1
    for bit in bin(k)[2:]:
        s0, d0, s1, d1 = X0 + Z0, X0 - Z0, X1 + Z1, X1 - Z1
        u, v = d0 * s1 % _P, s0 * d1 % _P
        add = (u + v) * (u + v) % _P, x * ((u - v) * (u - v)) % _P
        if bit == "1":
            s0, d0 = s1, d1  # double [n+1]P instead of [n]P
        aa, bb = s0 * s0 % _P, d0 * d0 % _P
        dbl = 2 * aa * bb % _P, (aa - bb) * (aa + bb) % _P
        (X0, Z0), (X1, Z1) = (add, dbl) if bit == "1" else (dbl, add)
    return X0, Z0, X1, Z1


def _pt_mul(a, k):
    """[k]P for k >= 0 by the ladder, then y by Okeya-Sakurai from P, [k]P
    and [k+1]P with one inversion.  P = (0, 0) gives O for even k and P for
    odd k, before the ladder.  Z = 0 in [k]P gives O before any y recovery,
    so a subgroup check [q]P stops there; Z = 0 in [k+1]P means [k]P = -P."""
    if a is None or k == 0:
        return None
    x, y = a
    if x == 0:
        return a if k & 1 else None
    X0, Z0, X1, Z1 = _ladder(x, k)
    if Z0 == 0:
        return None
    if Z1 == 0:
        return x, -y % _P
    # y([k]P) = (Z1*(X0 + x*Z0)*(x*X0 + Z0) - X1*(X0 - x*Z0)^2) / (2*y*Z0^2*Z1)
    xz = x * Z0 % _P
    num = (Z1 * ((X0 + xz) * (x * X0 + Z0) % _P) - X1 * ((X0 - xz) * (X0 - xz) % _P)) % _P
    d = 2 * y * Z0 * Z1 % _P
    inv = _inv(d * Z0 % _P, _P)
    return X0 * d % _P * inv % _P, num * inv % _P


def _jac_add_affine(T, pt):
    """Mixed addition of Jacobian T = (X, Y, Z), None at infinity, and the affine
    pt = (x2, y2) != +-T, so h != 0: in a window power T is [m]g after digit j
    and pt is [d*16^j]g, with m < 16^j <= d*16^j and m + d*16^j <= k < q."""
    if T is None:
        return (*pt, 1)
    (X, Y, Z), (x2, y2) = T, pt
    zz = Z * Z % _P
    u2 = x2 * zz % _P
    s2 = y2 * Z * zz % _P
    h = (u2 - X) % _P
    r = 2 * (s2 - Y) % _P
    hh = h * h % _P
    i = 4 * hh % _P
    j = h * i % _P
    v = X * i % _P
    X3 = (r * r - j - 2 * v) % _P
    return X3, (r * (v - X3) - 2 * Y * j) % _P, ((Z + h) * (Z + h) - zz - hh) % _P


def _jac_double(T):
    """[2]T for Jacobian T = (X, Y, Z) != O of odd order: M = 3*X^2 + Z^4."""
    X, Y, Z = T
    yy = Y * Y % _P
    zz = Z * Z % _P
    m = (3 * X * X + zz * zz) % _P
    s = 4 * X * yy % _P
    X3 = (m * m - 2 * s) % _P
    return X3, (m * (s - X3) - 8 * yy * yy) % _P, 2 * Y * Z % _P


def _to_affine(points):
    """Affine forms of Jacobian points != O, with one batched inversion."""
    out = []
    for (X, Y, _), zi in zip(points, _batch_inv([z for _, _, z in points])):
        zi2 = zi * zi % _P
        out.append((X * zi2 % _P, Y * zi2 * zi % _P))
    return out


def _window_table(base, double, adds, settle=list):
    """Row j < 40 (q < 16^40) holds [d * 16^j]base for d = 1..15: row bases by
    ``double``, put by ``settle`` in the form ``adds`` takes, then column d as
    ``adds`` of ([d-1]b, b) over every row base b at once."""
    bases = [base]
    while len(bases) < 40:
        bases.append(functools.reduce(lambda t, _: double(t), range(4), bases[-1]))
    rows = [[b] for b in settle(bases)]
    for _ in range(14):
        for row, entry in zip(rows, adds([(row[-1], row[0]) for row in rows])):
            row.append(entry)
    return rows


def _window_digits(rows, k):
    """The entries rows[j][d - 1] whose sum is [k]base, k < q: d is k's 16^j digit."""
    for row in rows:
        if k & 15:
            yield row[(k & 15) - 1]
        k >>= 4


def _batch_inv(values):
    """Inverses of nonzero values mod p with one field inversion
    (Montgomery's trick)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % _P)
    inv = _inv(prefix[-1], _P)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % _P
        inv = inv * values[i] % _P
    return out


def _miller_lines(p_pt):
    """Every line of the Miller loop of P, independent of the other argument.

    Four slots per NAF digit of q below the leading one: the tangent at T
    and the chord through T and digit*P, each as (a, b) with value
    (a + b*x_Q) + y_Q*i at phi(Q), i.e. the affine line divided by its F_p
    denominator; (None, None) where a step has no chord.  T = [n]P stays in
    Jacobian coordinates and all denominators share one batched inversion.
    The walk is P's subgroup check: T is [n]P exactly while no doubling meets
    O (Z = 0) and no chord is vertical (h = 0), so it raises InvalidElement
    unless the last chord alone is, at T = -digit*P (r != 0): [q]P = O."""
    xp, yp0 = p_pt
    X, Y, Z = xp, yp0, 1
    nums = []  # (a*D, b*D, D) per line, None for a missing chord
    for i, digit in enumerate(_Q_NAF, 1 - len(_Q_NAF)):  # i = 0 at the last digit
        # tangent slope M / (2*Y*Z), M = 3*X^2 + Z^4; D = 2*Y*Z^3
        xx = X * X % _P
        yy = Y * Y % _P
        zz = Z * Z % _P
        m = (3 * xx + zz * zz) % _P
        z3 = 2 * Y * Z % _P
        nums.append((m * X - 2 * yy, m * zz, z3 * zz))
        s = 4 * X * yy % _P
        X = (m * m - 2 * s) % _P
        Y = (m * (s - X) - 8 * yy * yy) % _P
        Z = z3
        if not digit:
            nums.append(None)
            continue
        # chord through (xp, yp) with slope r / (Z*h); D = Z*h
        yp = yp0 if digit > 0 else -yp0 % _P
        zz = Z * Z % _P
        h = (xp * zz - X) % _P
        r = (yp * Z * zz - Y) % _P
        if h == 0 or i == 0:  # T = -digit*P may only close the walk, at [q]P = O
            if h == 0 and r and i == 0:
                nums.append(None)  # a vertical chord: an F_p factor
            break
        z3 = Z * h % _P
        nums.append((r * xp - yp * z3, r, z3))
        hh = h * h % _P
        hhh = h * hh % _P
        v = X * hh % _P
        X = (r * r - hhh - 2 * v) % _P
        Y = (r * (v - X) - Y * hhh) % _P
        Z = z3
    if Z == 0 or len(nums) != 2 * len(_Q_NAF):  # Z = 0 from the first doubling that met O
        raise InvalidElement("point is not in the order-q subgroup")
    invs = iter(_batch_inv([n[2] for n in nums if n is not None]))
    lines = []
    for n in nums:
        if n is None:
            lines += (None, None)
        else:
            d = next(invs)
            lines += (n[0] * d % _P, n[1] * d % _P)
    return tuple(lines)


class _Lined(tuple):
    """An affine point carrying its Miller ``lines``: equal, hashed and encoded alike."""


def _prepared(p_pt, q_pt):
    """(lines, x, y) for e(P, Q): one argument's lines, the other's point.  P and
    Q lie in the one order-q subgroup, so e(P, Q) = e(Q, P): a generator's kept
    lines serve in either position, and so do Q's where P carries none."""
    for g, lines in map(_base_table, (False, True)):
        if p_pt == g:
            return (lines, *q_pt)
        if q_pt == g:
            return (lines, *p_pt)
    if not hasattr(p_pt, "lines") and hasattr(q_pt, "lines"):
        return (q_pt.lines, *p_pt)
    return (getattr(p_pt, "lines", None) or _miller_lines(p_pt), *q_pt)


def _multi_pairing(pairs):
    """prod e(P, Q) over (P, Q) pairs: one F_{p^2} accumulator squared once
    per NAF digit, each pair's lines (carried or computed) evaluated at the
    other point's phi image, and one final exponentiation for the product."""
    prepared = [_prepared(p, q) for p, q in pairs if p is not None and q is not None]
    if not prepared:
        return _ONE
    f0, f1 = 1, 0
    for s in range(0, 4 * len(_Q_NAF), 4):
        f0, f1 = (f0 + f1) * (f0 - f1) % _P, 2 * f0 * f1 % _P
        for lines, xq, yq in prepared:
            for k in (s, s + 2):
                a = lines[k]
                if a is not None:
                    # f * (re + yq*i) with three multiplications
                    re = (a + lines[k + 1] * xq) % _P
                    t0 = f0 * re
                    t1 = f1 * yq
                    f0, f1 = (t0 - t1) % _P, ((f0 + f1) * (re + yq) - t0 - t1) % _P
    return _final_exp((f0, f1))


def _final_exp(f):
    """f^((p^2 - 1)/q) for nonzero f in F_{p^2}, as (p - 1) then (p + 1)/q.
    The Frobenius on F_{p^2} is conjugation since p = 3 (mod 4), so
    f^(p-1) = conj(f) / f = conj(f)^2 / norm(f), which has norm 1."""
    f0, f1 = f
    norm_inv = _inv(f0 * f0 + f1 * f1, _P)
    a, b = _fp2_sqr((f0, -f1))
    return _unitary_pow((a * norm_inv % _P, b * norm_inv % _P), _FINAL_EXP)


def _point_from_label(label: bytes):
    """Deterministic try-and-increment hash onto the order-q subgroup."""
    for counter in range(512):
        seed = label + counter.to_bytes(4, "big")
        wide = hashlib.sha256(seed + b"\x00").digest() + hashlib.sha256(seed + b"\x01").digest()
        x = int.from_bytes(wide, "big") % _P
        rhs = (x * x * x + x) % _P
        if rhs == 0:
            continue
        y = _powmod(rhs, _SQRT_EXP, _P)
        if y * y % _P != rhs:
            continue
        if y % 2 == 1:
            y = _P - y
        pt = _pt_mul((x, y), CURVE_H)
        if pt is not None:
            return pt
    raise RuntimeError("hash-to-curve failed to find a point")  # pragma: no cover


_BASE_LABELS = (b"triseal/v1/base/left", b"triseal/v1/base/right")  # g_left, g_right


@functools.cache
def _base_table(right: bool):
    """(generator, Miller lines) of g_right if ``right``, else of g_left.  Both
    depend only on the fixed curve constants, so they are built once per
    process and shared by every context."""
    g = _point_from_label(_BASE_LABELS[right])
    return g, _miller_lines(g)


@functools.cache
def _gt_generator():
    """e(g_L, g_R), a curve constant: one Miller loop per process."""
    return _multi_pairing([(_base_table(False)[0], _base_table(True)[0])])


@functools.cache
def _windows(right: bool | None):
    """Window table of g_right, g_left or e(g_L, g_R) (True, False, None), at first power."""
    if right is None:
        return _window_table(_gt_generator(), _fp2_sqr, lambda ps: [_fp2_mul(*p) for p in ps])
    # affine G rows: each column one batched inversion, [d-1]b != -b as d < q
    return _window_table((*_base_table(right)[0], 1), _jac_double, _affine_adds, _to_affine)


class CurveContext(PairingContext):
    """Production backend over the fixed supersingular parameters above."""

    backend_id = "curve"

    def __init__(self):
        super().__init__(CURVE_Q)
        self._generators = {right: _base_table(right)[0] for right in (False, True)}

    def param_header(self) -> dict:
        return {
            "format": WIRE_FORMAT,
            "backend": "curve",
            "q": format(CURVE_Q, "x"),
            "p": format(CURVE_P, "x"),
        }

    # -- backend hooks --------------------------------------------------------

    def _g_generator_data(self, right: bool):
        return self._generators[right]

    def _g_identity_data(self):
        return None

    def _g_mul(self, a, b):
        return _pt_add(a, b)

    def _g_inv(self, a):
        return None if a is None else (a[0], -a[1] % _P)

    def _g_exp(self, a, k: int):
        for right, g in self._generators.items():
            if a == g:
                T = functools.reduce(_jac_add_affine, _window_digits(_windows(right), k), None)
                return None if T is None else _to_affine([T])[0]
        return _pt_mul(a, k)

    def _pair_product(self, pairs):
        if pairs == [tuple(self._generators.values())]:
            return _gt_generator()
        return _multi_pairing(pairs)

    def _g_prepare(self, a):
        if a is not None and not isinstance(a, _Lined):
            a = _Lined(a)
            a.lines = _miller_lines(a)
        return a

    def _hash(self, domain: HashDomain, data: bytes):
        return _point_from_label(_H2G_PREFIX + domain.value + b":" + data)

    def _gt_identity_data(self):
        return _ONE

    def _gt_mul(self, a, b):
        return _fp2_mul(a, b)

    def _gt_inv(self, a):
        # GT elements are unitary (norm 1), so the inverse is the conjugate
        return a[0], -a[1] % _P

    def _gt_exp(self, a, k: int):
        if a == _gt_generator():
            return functools.reduce(_fp2_mul, _window_digits(_windows(None), k), _ONE)
        return _unitary_pow(a, k)  # GT elements have norm 1

    def _g_to_bytes(self, a) -> bytes:
        if a is None:
            return b"\x00" + bytes(_P_BYTES)
        x, y = a
        return bytes([2 + (y & 1)]) + x.to_bytes(_P_BYTES, "big")

    def _g_from_bytes(self, raw: bytes, check_order: bool = True):
        if len(raw) != 1 + _P_BYTES:
            raise InvalidElement(f"expected {1 + _P_BYTES} bytes, got {len(raw)}")
        tag, xb = raw[0], raw[1:]
        if tag == 0:
            if any(xb):
                raise InvalidElement("nonzero payload on identity encoding")
            return None
        if tag not in (2, 3):
            raise InvalidElement(f"bad point compression tag {tag}")
        x = int.from_bytes(xb, "big")
        if x >= _P:
            raise InvalidElement("x coordinate out of range")
        rhs = (x * x * x + x) % _P
        y = _powmod(rhs, _SQRT_EXP, _P)
        if y * y % _P != rhs:
            raise InvalidElement("x is not on the curve")
        if (y & 1) != tag - 2:
            y = _P - y
        pt = (x, y)
        if check_order and _pt_mul(pt, CURVE_Q) is not None:
            raise InvalidElement("point is not in the order-q subgroup")
        return pt

    def _gt_to_bytes(self, a) -> bytes:
        return a[0].to_bytes(_P_BYTES, "big") + a[1].to_bytes(_P_BYTES, "big")

    def _gt_from_bytes(self, raw: bytes, check_order: bool = True):
        if len(raw) != 2 * _P_BYTES:
            raise InvalidElement(f"expected {2 * _P_BYTES} bytes, got {len(raw)}")
        a = int.from_bytes(raw[:_P_BYTES], "big")
        b = int.from_bytes(raw[_P_BYTES:], "big")
        if a >= _P or b >= _P:
            raise InvalidElement("coordinate out of range")
        value = (a, b)
        # norm 1 first: the ladder is only valid there, and the order-q
        # subgroup lies in the norm-1 subgroup of order p + 1
        if (a * a + b * b) % _P != 1 or check_order and _unitary_pow(value, CURVE_Q) != _ONE:
            raise InvalidElement("value is not in the order-q subgroup of GT")
        return value
