from .base import (
    GroupElement,
    GtElement,
    HashDomain,
    PairingContext,
    WIRE_FORMAT,
    context_from_header,
    make_context,
)
from .curve import CurveContext
from .oracle import DEFAULT_ORACLE_ORDER, OracleContext

__all__ = [
    "GroupElement",
    "GtElement",
    "HashDomain",
    "PairingContext",
    "WIRE_FORMAT",
    "context_from_header",
    "make_context",
    "CurveContext",
    "OracleContext",
    "DEFAULT_ORACLE_ORDER",
]
