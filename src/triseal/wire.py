"""Layer-level serialization: JSON envelopes with base64url element bytes.

Every message and CLI file is an envelope: a ``format`` version, a ``kind``
naming what it holds, and the versioned parameter header (``params``) so a
reader can rebuild or check the pairing context before decoding elements.
:func:`envelope` writes that header and :func:`open_envelope` checks it;
no other module builds or reads one.  Canonical bytes (sorted keys, compact
separators) make equality checks and record ids stable.

Each element-bearing wire form is declared once, as a :class:`Form`: the one
statement of its wire shape, walked by one encoder and one decoder.  The LEFT
slots of a request that a server pairs over their own lines are decoded with
no [q]P and checked by their Miller-line preparation: an update's ``rtk``
(``PREPARED``), and the search token, which repeats across requests, through
the table of kept points (``KEPT``).  A search request's credentials and
blinding pair over the record's lines, so they decode as any point, with the
[q]P check alone (``G_LEFT``).
"""

from __future__ import annotations

import base64
import json
from typing import Any, Callable, Mapping, NamedTuple

from .abe import AccessPolicyElements, AttributeCredential, BlindedIdentity
from .errors import BackendMismatch, BadRecord
from .pairing import WIRE_FORMAT as WIRE_FORMAT_VERSION
from .pairing import PairingContext, Side, context_from_header
from .payload import payload_from_bytes
from .recovery import KeyRecoveryElements
from .sse import SearchToken, SetPublicKeys, SseRecordElements


def b64e(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).decode("ascii")


def b64d(text: str) -> bytes:
    return base64.urlsafe_b64decode(text.encode("ascii"))


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def parse_json(raw: bytes, what: str) -> Any:
    """Untrusted UTF-8 JSON bytes to a value; bytes that do not decode, do
    not parse or nest past the recursion limit are BadRecord."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise BadRecord(f"{what} is not UTF-8 JSON: {exc}") from exc


def envelope(kind: str, ctx: PairingContext, body: Mapping) -> dict:
    """The self-describing header plus ``body``, ready for canonical_json."""
    return {"format": WIRE_FORMAT_VERSION, "kind": kind, "params": ctx.param_header(), **body}


def open_envelope(
    obj: Any,
    kind: str,
    decode: Callable[[PairingContext, Mapping], Any],
    ctx: PairingContext | None = None,
) -> Any:
    """Check the header of a ``kind`` envelope and return ``decode(ctx, obj)``.

    Given ``ctx``, ``params`` must equal its header (else BackendMismatch);
    without, the context is rebuilt from it.  Any other fault is BadRecord.
    """
    try:
        if obj.get("kind") != kind:
            raise BadRecord(f"expected a {kind} envelope, got {obj.get('kind')!r}")
        if obj.get("format") != WIRE_FORMAT_VERSION:
            raise BadRecord(f"unsupported {kind} envelope format {obj.get('format')!r}")
        if ctx is None:
            ctx = context_from_header(obj["params"])
        elif obj["params"] != ctx.param_header():
            raise BackendMismatch(f"{kind} envelope uses different parameters")
        return decode(ctx, obj)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as exc:
        raise BadRecord(f"malformed {kind} envelope: {type(exc).__name__}: {exc}") from exc


class Shape(NamedTuple):
    """A field on the wire: ``encode(ctx, value)``, ``decode(ctx, wire value)``,
    and whether it is a list in the order of its form's sorted ``attrs``."""

    encode: Callable[[PairingContext, Any], Any]
    decode: Callable[[PairingContext, Any], Any]
    aligned: bool = False


def _typed(value: Any, kind: type, nonempty: bool = False) -> Any:
    """``value`` if exactly of JSON type ``kind`` (a bool is no int), non-empty if ``nonempty``."""
    if type(value) is not kind or (nonempty and not value):
        raise BadRecord(f"{value!r} is not a{' non-empty' * nonempty} JSON {kind.__name__}")
    return value


def _scalar(ctx: PairingContext, text: str) -> int:
    """``text`` if it is how ``format(x, "x")`` writes a scalar x in [1, q), as x."""
    value = int(text, 16) if text and not text.strip("0123456789abcdef") else 0
    if format(value, "x") != text or not 0 < value < ctx.order:
        raise BadRecord("secret scalar is not lowercase hex digits of a value in [1, q)")
    return value


def listed(item: Shape, *, nonempty: bool = False, aligned: bool = False) -> Shape:
    """A JSON list of ``item`` (not empty if ``nonempty``), decoded to a tuple."""
    return Shape(
        lambda ctx, values: [item.encode(ctx, v) for v in values],
        lambda ctx, value: tuple(item.decode(ctx, v) for v in _typed(value, list, nonempty)),
        aligned,
    )


def keyed(item: Shape) -> Shape:
    """A JSON object of ``item`` by attribute name, decoded to a dict."""
    return Shape(
        lambda ctx, values: {k: item.encode(ctx, v) for k, v in values.items()},
        lambda ctx, value: {k: item.decode(ctx, v) for k, v in _typed(value, dict).items()},
    )


def optional(shape: Shape) -> Shape:
    """``shape`` or JSON null."""
    return Shape(
        lambda ctx, value: None if value is None else shape.encode(ctx, value),
        lambda ctx, value: None if value is None else shape.decode(ctx, value),
    )


def blinded(element: Shape) -> Shape:
    """A BlindedIdentity, on the wire as its element alone."""
    return Shape(
        lambda ctx, value: element.encode(ctx, value.element),
        lambda ctx, text: BlindedIdentity(element.decode(ctx, text)),
    )


INDEX = Shape(lambda ctx, value: value, lambda ctx, value: _typed(value, int))
NAME = INDEX._replace(decode=lambda ctx, value: _typed(value, str))
FLAG = INDEX._replace(decode=lambda ctx, value: _typed(value, bool))
SCALAR = Shape(lambda ctx, x: format(x, "x"), lambda ctx, s: _scalar(ctx, _typed(s, str)))
INDICES, NAMES = listed(INDEX), listed(NAME)
ATTRS = listed(NAME, nonempty=True, aligned=True)  # sorted, by Form.decode
G_LEFT = Shape(
    lambda ctx, e: b64e(ctx.element_to_bytes(e)),
    lambda ctx, s: ctx.element_from_bytes(b64d(s), Side.LEFT),
)  # the other G shapes write the same text
G_RIGHT = G_LEFT._replace(decode=lambda ctx, s: ctx.element_from_bytes(b64d(s), Side.RIGHT))
ALIGNED_RIGHT = listed(G_RIGHT, aligned=True)
PREPARED = G_LEFT._replace(decode=lambda ctx, s: ctx.prepared_from_bytes(b64d(s)))
KEPT = G_LEFT._replace(decode=lambda ctx, s: ctx.kept(b64d(s)))
GT = Shape(lambda ctx, e: b64e(ctx.gt_to_bytes(e)), lambda ctx, s: ctx.gt_from_bytes(b64d(s)))
PAYLOAD = Shape(lambda ctx, ct: b64e(ct.to_bytes()), lambda ctx, s: payload_from_bytes(b64d(s)))


class Form:
    """A dataclass on the wire: a JSON object holding each declared field under
    its name, in that field's shape.  A form is also the shape of a nested field."""

    aligned = False

    def __init__(self, cls: type, **fields: Shape):
        self.cls, self.fields = cls, fields

    def encode(self, ctx: PairingContext, obj: Any) -> dict:
        attrs = getattr(obj, "attrs", ())  # written sorted, the aligned lists in its order
        order = sorted(range(len(attrs)), key=attrs.__getitem__)
        out = {}
        for name, shape in self.fields.items():
            value = getattr(obj, name)
            out[name] = shape.encode(ctx, [value[i] for i in order] if shape.aligned else value)
        return out

    def decode(self, ctx: PairingContext, obj: Mapping) -> Any:
        fields: dict[str, Any] = {}
        for name, shape in self.fields.items():  # ``attrs`` is declared first
            value = obj[name]
            if shape.aligned and name != "attrs" and len(value) != len(fields["attrs"]):
                raise BadRecord(f"{name} count does not match the attribute list")
            fields[name] = shape.decode(ctx, value)
            if name == "attrs" and list(fields[name]) != sorted(fields[name]):
                raise BadRecord(f"policy attributes {value!r} are not in sorted order")
        return self.cls(**fields)


SSE = Form(  # layer 1
    SseRecordElements,
    stk_transferor=G_RIGHT,
    kw_modifier=G_RIGHT,
    tagged_keywords=listed(GT, nonempty=True),
    update_keyword=GT,
)
TOKEN = Form(SearchToken, token=KEPT, subset=INDICES)
PKS = Form(SetPublicKeys, left=listed(G_LEFT))
ABE = Form(  # layer 2
    AccessPolicyElements,
    attrs=ATTRS,
    ac_transferors=ALIGNED_RIGHT,
    plcy_modifiers=ALIGNED_RIGHT,
    plcy=GT,
)
CREDENTIAL = Form(AttributeCredential, attribute_id=NAME, credential=G_LEFT)
BLINDED = blinded(G_LEFT)
RECOVERY = Form(  # layer 3
    KeyRecoveryElements,
    attrs=ATTRS,
    dtk_transferor=G_RIGHT,
    dtk_owner_modifier=G_RIGHT,
    dtk_aa_transferors=ALIGNED_RIGHT,
    dtk_aa_modifiers=ALIGNED_RIGHT,
    wrapped_key=GT,
)
