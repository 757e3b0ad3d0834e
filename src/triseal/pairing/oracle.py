"""Exponent-arithmetic emulation of a symmetric bilinear group.

An element of G is represented by its exponent e, standing for g^e; an
element of GT by the exponent relative to e(g, g).  Pairing is then just
exponent multiplication mod q, which makes every protocol equation directly
checkable by integer arithmetic.  Both generators, g_left and g_right, are
exponent 1, so here they compare equal; the curve's are two distinct points.
Deliberately insecure; intended for worked vectors, property suites, and
cross-backend comparison runs.
"""

from __future__ import annotations

import hashlib

from ..errors import InvalidElement
from .base import WIRE_FORMAT, HashDomain, PairingContext

# Default order for property suites: 2^127 - 1 (prime), far above the
# collision-avoidance floor; worked vectors override with q = 101.
DEFAULT_ORACLE_ORDER = 2**127 - 1

_H2G_PREFIX = b"triseal/v1/h2g/"


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OracleContext(PairingContext):
    """Insecure exponent-arithmetic backend over a caller-chosen prime q."""

    backend_id = "oracle"

    def __init__(self, order: int = DEFAULT_ORACLE_ORDER):
        if not _is_probable_prime(order):
            raise ValueError(f"oracle group order must be prime, got {order}")
        super().__init__(order)
        self._width = (order.bit_length() + 7) // 8

    def param_header(self) -> dict:
        return {"format": WIRE_FORMAT, "backend": "oracle", "q": format(self.order, "x")}

    # -- backend hooks ---------------------------------------------------------

    def _g_generator_data(self, right: bool) -> int:
        return 1

    def _g_identity_data(self) -> int:
        return 0

    def _g_mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def _g_exp(self, a: int, k: int) -> int:
        return a * k % self.order

    def _g_inv(self, a: int) -> int:
        return -a % self.order

    def _pair_product(self, pairs: list[tuple[int, int]]) -> int:
        return sum(x * y for x, y in pairs) % self.order

    def _hash(self, domain: HashDomain, data: bytes) -> int:
        digest = hashlib.sha256(_H2G_PREFIX + domain.value + b":" + data).digest()
        # never the identity: reduce into [1, q)
        return 1 + int.from_bytes(digest, "big") % (self.order - 1)

    def _gt_identity_data(self) -> int:
        return 0

    def _gt_mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def _gt_inv(self, a: int) -> int:
        return -a % self.order

    def _gt_exp(self, a: int, k: int) -> int:
        return a * k % self.order

    def _g_to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self._width, "big")

    def _g_from_bytes(self, raw: bytes, check_order: bool = True) -> int:
        # every value below q is a group element: there is no order check to skip
        if len(raw) != self._width:
            raise InvalidElement(f"expected {self._width} bytes, got {len(raw)}")
        value = int.from_bytes(raw, "big")
        if value >= self.order:
            raise InvalidElement("exponent out of range")
        return value

    _gt_to_bytes = _g_to_bytes
    _gt_from_bytes = _g_from_bytes
