"""Pinned hash values for oracle worked vectors: H(w) = g^k for chosen w."""

from triseal.pairing import HashDomain, OracleContext


def pin_hash(ctx: OracleContext, domain: HashDomain, data: bytes | str, exponent: int) -> None:
    """Pin ``ctx.hash_to_group(domain, data)`` to g^exponent; every other
    input of this context keeps the regular hash."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    pins = vars(ctx).get("_pins")
    if pins is None:
        pins = ctx._pins = {}
        regular = ctx._hash
        ctx._hash = lambda d, raw: pins[(d, raw)] if (d, raw) in pins else regular(d, raw)
    pins[(domain, data)] = exponent % ctx.order
