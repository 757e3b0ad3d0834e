"""Exception types shared across the protocol layers."""


class ProtocolError(Exception):
    """Base class for all triseal errors."""


class BackendMismatch(ProtocolError):
    """Elements from two different pairing contexts were combined."""


class InvalidElement(ProtocolError):
    """Bytes did not decode to a valid group / target-group member."""


class NonInvertible(ProtocolError):
    """A scalar that must be invertible (secret key, nonce) was zero mod q."""


class EmptySubset(ProtocolError):
    """A data-set subset that must be non-empty was empty."""


class BadSetIndex(ProtocolError):
    """A set index falls outside 1..n for the published set keys."""


class BadAttribute(ProtocolError):
    """Policy references an attribute with no known public key."""


class InvalidBlinding(ProtocolError):
    """A blinded identity was the group identity (nonce omitted or zero)."""


class IncompletePolicy(ProtocolError):
    """Credentials do not cover every attribute of the record policy."""


class NonceReuse(ProtocolError):
    """Key-wrapping nonces collide with nonces already spent in another layer."""


class IncompleteTokens(ProtocolError):
    """Decryption token set does not cover the record policy."""


class WrongKey(ProtocolError):
    """Recovered key mask failed payload authentication (wrong tokens,
    subset, or policy)."""


class AuthenticationFailure(ProtocolError):
    """Authenticated decryption failed: wrong key or corrupted ciphertext."""


class BadRecord(ProtocolError):
    """Structurally invalid record, message or file: missing layer or field,
    bad set index, wrong envelope kind, unreadable or non-JSON input, ..."""


class UpdateRejected(ProtocolError):
    """Re-encryption token failed verification; record left untouched."""


class MissingApk(ProtocolError):
    """Publishing requires attribute public keys that were not supplied."""
