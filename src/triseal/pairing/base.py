"""Bilinear-group abstraction used by every protocol layer.

Two interchangeable backends implement this interface:

* ``oracle`` -- an insecure exponent-arithmetic emulation (an element is its
  discrete log).  Pairing is exponent multiplication mod q.  Used for worked
  vectors and algebraic property suites.
* ``curve``  -- a supersingular curve y^2 = x^3 + x over F_p (p = 3 mod 4)
  with the modified Tate pairing, the parameter class used by essentially
  all deployed pairing-based access-control code.

G is one cyclic group of prime order q, with two fixed generators g_left and
g_right and a symmetric pairing e(x, y) = e(y, x): every point has one codec
and pairs in either argument.

Invariant: every decoded element is order-checked before use, unless its
bytes come from a store frame whose tag verifies under this server's key
(``_trusted_decode``, called only from ``server.py``): at open, or for its
layer 2 at a keyword hit that finds no policy kept for it on that server; its
layer 3 is never decoded.
Its line preparation checks a request element that is paired over its own lines
(``prepared_from_bytes``): a search token or an update's ``rtk``.  A search
request's credentials and blinding are paired over a record's lines, which
cannot see a component outside the order-q subgroup, so they take [q]P.  A hit
in the table of points kept across requests (``kept``) is a point whose line walk
ran when it was first kept; a point that fails the walk is never kept.  A hit in
the table of layers 3 (``server.kept_recovery``) is a layer whose every element
passed every check, outside the trusted flag, when it was first decoded.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import hashlib
import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..errors import BackendMismatch, InvalidElement, NonInvertible

WIRE_FORMAT = 1
_TRUSTED = contextvars.ContextVar("trusted_frame", default=False)
KEPT_POINTS = 16  # entries per table of kept prepared points or layers, least recent evicted


def _trusted_decode(trusted: bool, decode: Callable, *args) -> Any:
    """``decode(*args)``, whose element decodes skip the two order checks if
    ``trusted``: only for one store frame whose tag verifies under the key."""
    run = contextvars.copy_context().run  # the flag lives in this copy only
    run(_TRUSTED.set, trusted)
    return run(decode, *args)


class HashDomain(enum.Enum):
    """Domain-separation tags for hash-to-group."""

    KEYWORD = b"kw"
    GID = b"gid"
    UPDATE_ID = b"upd"


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Opaque member of the source group."""

    ctx: "PairingContext" = field(repr=False)
    data: Any

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx.fingerprint == other.ctx.fingerprint and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.ctx.fingerprint, self.data))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.ctx.group_mul(self, other)

    def __pow__(self, exponent: int) -> "GroupElement":
        return self.ctx.group_exp(self, exponent)

    @property
    def is_identity(self) -> bool:
        return self.data == self.ctx._g_identity_data()


@dataclass(frozen=True, eq=False)
class GtElement:
    """Opaque member of the pairing target group."""

    ctx: "PairingContext" = field(repr=False)
    data: Any

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GtElement):
            return NotImplemented
        return self.ctx.fingerprint == other.ctx.fingerprint and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.ctx.fingerprint, self.data))

    def __mul__(self, other: "GtElement") -> "GtElement":
        return self.ctx.gt_mul(self, other)

    def __truediv__(self, other: "GtElement") -> "GtElement":
        return self.ctx.gt_div(self, other)

    def __pow__(self, exponent: int) -> "GtElement":
        return self.ctx.gt_exp(self, exponent)

    @property
    def is_identity(self) -> bool:
        return self.data == self.ctx._gt_identity_data()


class PairingContext(ABC):
    """Group parameters plus every operation the protocol layers need.

    All operations are pure functions over immutable values; a context may
    be shared freely between threads.
    """

    backend_id: str

    def __init__(self, order: int):
        if order < 3:
            raise ValueError("group order must be an odd prime")
        self.order = order
        blob = json.dumps(self.param_header(), sort_keys=True).encode()
        self.fingerprint = hashlib.sha256(blob).hexdigest()[:16]  # read by every equality

    # -- identity / generators ------------------------------------------------

    @property
    def g_left(self) -> GroupElement:
        return GroupElement(self, self._g_generator_data(False))

    @property
    def g_right(self) -> GroupElement:
        return GroupElement(self, self._g_generator_data(True))

    @property
    def gt_generator(self) -> GtElement:
        """e(g_left, g_right), not the GT identity (non-degeneracy): one ``pair``
        call, which the curve backend answers from a constant kept per process."""
        return self.pair(self.g_left, self.g_right)

    def group_identity(self) -> GroupElement:
        return GroupElement(self, self._g_identity_data())

    def gt_identity(self) -> GtElement:
        return GtElement(self, self._gt_identity_data())

    # -- scalar field ----------------------------------------------------------

    def random_scalar(self, rng: random.Random, avoid: Iterable[int] = ()) -> int:
        """Uniform draw from [1, q), drawn again while it is congruent mod q
        to a member of ``avoid``: the one place a secret scalar is drawn, so
        keys and nonces that must differ across layers differ here."""
        avoid = {a % self.order for a in avoid}
        while (s := rng.randrange(1, self.order)) in avoid:
            pass
        return s

    def scalar_inverse(self, s: int) -> int:
        """Multiplicative inverse mod q; zero input is NonInvertible."""
        return pow(self.require_nonzero(s, "inverted scalar"), -1, self.order)

    def require_nonzero(self, s: int, what: str) -> int:
        s %= self.order
        if s == 0:
            raise NonInvertible(f"{what} must be nonzero mod q")
        return s

    # -- group operations --------------------------------------------------------

    def group_mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return GroupElement(self, self._g_mul(a.data, b.data))

    def group_exp(self, a: GroupElement, exponent: int) -> GroupElement:
        self._check(a)
        return GroupElement(self, self._g_exp(a.data, exponent % self.order))

    def group_inverse(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return GroupElement(self, self._g_inv(a.data))

    def pair(self, x: GroupElement, y: GroupElement) -> GtElement:
        """Symmetric bilinear map: e(x, y) = e(y, x)."""
        return self.pairing_product([(x, y)])

    def pairing_product(self, pairs: Iterable[tuple[GroupElement, GroupElement]]) -> GtElement:
        """prod_i e(x_i, y_i), the GT identity if empty.  Equals multiplying
        ``pair`` results, but the curve backend runs one Miller loop over the
        lines each pair carries (x_i's, else y_i's; x_i's walked if neither is
        prepared) and one final exp; write e(a, b) / e(c, d) as e(a, b) * e(c, d^-1)."""
        data = []
        for x, y in pairs:
            self._check(x)
            self._check(y)
            data.append((x.data, y.data))
        return GtElement(self, self._pair_product(data))

    def prepare(self, x: GroupElement) -> GroupElement:
        """``x`` carrying what makes it cheap in a pairing, in either argument (the
        curve's Miller lines); idempotent.  InvalidElement outside the order-q subgroup."""
        self._check(x)
        return GroupElement(self, self._g_prepare(x.data))

    def hash_to_group(self, domain: HashDomain, data: bytes | str) -> GroupElement:
        """Deterministic hash onto G; domains are independent."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        return GroupElement(self, self._hash(domain, data))

    # -- target-group operations ---------------------------------------------

    def gt_mul(self, a: GtElement, b: GtElement) -> GtElement:
        self._check(a)
        self._check(b)
        return GtElement(self, self._gt_mul(a.data, b.data))

    def gt_div(self, a: GtElement, b: GtElement) -> GtElement:
        self._check(a)
        self._check(b)
        return GtElement(self, self._gt_mul(a.data, self._gt_inv(b.data)))

    def gt_exp(self, a: GtElement, exponent: int) -> GtElement:
        self._check(a)
        return GtElement(self, self._gt_exp(a.data, exponent % self.order))

    def random_gt(self, rng: random.Random) -> GtElement:
        """Uniform element of the (cyclic, order-q) target group."""
        return self.gt_exp(self.gt_generator, rng.randrange(self.order))

    # -- serialization ------------------------------------------------------------

    def element_to_bytes(self, e: GroupElement) -> bytes:
        self._check(e)
        return self._g_to_bytes(e.data)

    def element_from_bytes(self, raw: bytes) -> GroupElement:
        return GroupElement(self, self._g_from_bytes(raw, not _TRUSTED.get()))

    def prepared_from_bytes(self, raw: bytes) -> GroupElement:
        """A request element, decoded with no [q]P and checked by ``prepare``."""
        return self.prepare(GroupElement(self, self._g_from_bytes(raw, False)))

    @functools.lru_cache(maxsize=KEPT_POINTS)  # one table per process
    def kept(self, raw: bytes) -> GroupElement:
        """``prepared_from_bytes(raw)`` from the table of the last ``KEPT_POINTS`` such
        points, keyed by (context, encoding): prepared once while kept; never kept if refused."""
        return self.prepared_from_bytes(raw)

    def gt_to_bytes(self, e: GtElement) -> bytes:
        self._check(e)
        return self._gt_to_bytes(e.data)

    def gt_from_bytes(self, raw: bytes) -> GtElement:
        return GtElement(self, self._gt_from_bytes(raw, not _TRUSTED.get()))

    @abstractmethod
    def param_header(self) -> dict:
        """Versioned public-parameter description embedded in every
        serialized artifact; built from ``order`` alone (``__init__`` hashes it)."""

    # -- internal checks ----------------------------------------------------------

    def _check(self, e: GroupElement | GtElement) -> None:
        if e.ctx.fingerprint != self.fingerprint:
            raise BackendMismatch("element belongs to a different pairing context")

    # -- backend hooks -------------------------------------------------------

    @abstractmethod
    def _g_generator_data(self, right: bool) -> Any: ...  # g_right's if ``right``, else g_left's

    @abstractmethod
    def _g_identity_data(self) -> Any: ...

    @abstractmethod
    def _g_mul(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def _g_exp(self, a: Any, k: int) -> Any: ...

    @abstractmethod
    def _g_inv(self, a: Any) -> Any: ...

    @abstractmethod
    def _pair_product(self, pairs: list[tuple[Any, Any]]) -> Any: ...

    def _g_prepare(self, a: Any) -> Any:  # the oracle has no precomputation or order check
        return a

    @abstractmethod
    def _hash(self, domain: HashDomain, data: bytes) -> Any: ...

    @abstractmethod
    def _gt_identity_data(self) -> Any: ...

    @abstractmethod
    def _gt_mul(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def _gt_inv(self, a: Any) -> Any: ...

    @abstractmethod
    def _gt_exp(self, a: Any, k: int) -> Any: ...

    @abstractmethod
    def _g_to_bytes(self, a: Any) -> bytes: ...

    @abstractmethod
    def _g_from_bytes(self, raw: bytes, check_order: bool = True) -> Any: ...

    @abstractmethod
    def _gt_to_bytes(self, a: Any) -> bytes: ...

    @abstractmethod
    def _gt_from_bytes(self, raw: bytes, check_order: bool = True) -> Any: ...


def make_context(backend: str, *, order: int | None = None) -> PairingContext:
    """Build a context by backend name ("oracle" or "curve")."""
    from .curve import CurveContext
    from .oracle import OracleContext

    if backend == "oracle":
        return OracleContext(order) if order is not None else OracleContext()
    if backend == "curve":
        if order is not None:
            raise ValueError("curve backend has a fixed group order")
        return CurveContext()
    raise ValueError(f"unknown backend {backend!r}")


def context_from_header(header: Mapping) -> PairingContext:
    """Rebuild a context from a serialized parameter header."""
    if header.get("format") != WIRE_FORMAT:
        raise InvalidElement(f"unsupported parameter header format: {header.get('format')!r}")
    backend = header.get("backend")
    if backend == "oracle":
        ctx = make_context("oracle", order=int(header["q"], 16))
    elif backend == "curve":
        ctx = make_context("curve")
    else:
        raise InvalidElement(f"unknown backend in header: {backend!r}")
    if ctx.param_header() != dict(header):
        raise InvalidElement("parameter header does not match a supported context")
    return ctx
