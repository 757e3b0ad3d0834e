"""Layer-level serialization: JSON envelopes with base64url element bytes.

Every message and CLI file is an envelope: a ``format`` version, a ``kind``
naming what it holds, and the versioned parameter header (``params``) so a
reader can rebuild or check the pairing context before decoding elements.
:func:`envelope` writes that header and :func:`open_envelope` checks it;
no other module builds or reads one.  Canonical bytes (sorted keys, compact
separators) make equality checks and record ids stable.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Callable, Mapping

from .abe import AccessPolicyElements, AttributeCredential, BlindedIdentity
from .errors import BackendMismatch, BadRecord
from .pairing import WIRE_FORMAT as WIRE_FORMAT_VERSION
from .pairing import GroupElement, GtElement, PairingContext, Side, context_from_header
from .payload import PayloadCiphertext, payload_from_bytes
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
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise BadRecord(f"malformed {kind} envelope: {type(exc).__name__}: {exc}") from exc


def index_from_wire(value: Any) -> int:
    """A set index or a count: only a JSON integer, not a bool, float or string."""
    if type(value) is not int:
        raise BadRecord(f"{value!r} is not an integer")
    return value


def names_from_wire(value: Any) -> tuple[str, ...]:
    """Attribute names or record ids: only a JSON list of strings."""
    if type(value) is not list or not all(isinstance(v, str) for v in value):
        raise BadRecord(f"{value!r} is not a list of strings")
    return tuple(value)


def enc_elem(ctx: PairingContext, e: GroupElement) -> str:
    return b64e(ctx.element_to_bytes(e))


def dec_elem(ctx: PairingContext, text: str, side: Side) -> GroupElement:
    return ctx.element_from_bytes(b64d(text), side)


def enc_gt(ctx: PairingContext, e: GtElement) -> str:
    return b64e(ctx.gt_to_bytes(e))


def dec_gt(ctx: PairingContext, text: str) -> GtElement:
    return ctx.gt_from_bytes(b64d(text))


# -- layer 1 ----------------------------------------------------------------


def sse_to_wire(ctx: PairingContext, elems: SseRecordElements) -> dict:
    return {
        "stk_transferor": enc_elem(ctx, elems.stk_transferor),
        "kw_modifier": enc_elem(ctx, elems.kw_modifier),
        "tagged_keywords": [enc_gt(ctx, t) for t in elems.tagged_keywords],
        "update_keyword": enc_gt(ctx, elems.update_keyword),
    }


def sse_from_wire(ctx: PairingContext, obj: Mapping) -> SseRecordElements:
    tags = obj["tagged_keywords"]
    if not tags:
        raise BadRecord("record carries no tagged keywords")
    return SseRecordElements(
        stk_transferor=dec_elem(ctx, obj["stk_transferor"], Side.RIGHT),
        kw_modifier=dec_elem(ctx, obj["kw_modifier"], Side.RIGHT),
        tagged_keywords=tuple(dec_gt(ctx, t) for t in tags),
        update_keyword=dec_gt(ctx, obj["update_keyword"]),
    )


def token_to_wire(ctx: PairingContext, token: SearchToken) -> dict:
    return {"token": enc_elem(ctx, token.token), "subset": list(token.subset)}


def token_from_wire(ctx: PairingContext, obj: Mapping) -> SearchToken:
    return SearchToken(
        token=ctx.prepared_from_bytes(b64d(obj["token"])),
        subset=tuple(map(index_from_wire, obj["subset"])),
    )


def pks_to_wire(ctx: PairingContext, pks: SetPublicKeys) -> dict:
    return {
        "left": [enc_elem(ctx, e) for e in pks.left],
        "right": [enc_elem(ctx, e) for e in pks.right],
    }


def pks_from_wire(ctx: PairingContext, obj: Mapping) -> SetPublicKeys:
    return SetPublicKeys(
        left=tuple(dec_elem(ctx, e, Side.LEFT) for e in obj["left"]),
        right=tuple(dec_elem(ctx, e, Side.RIGHT) for e in obj["right"]),
    )


# -- layer 2 --------------------------------------------------------------------


def _attrs_from_wire(obj: Mapping) -> tuple[str, ...]:
    """Attribute names, non-empty and in the sorted order the encoders write."""
    attrs = names_from_wire(obj["attrs"])
    if not attrs or list(attrs) != sorted(attrs):
        raise BadRecord(f"policy attributes {list(attrs)!r} are not sorted strings")
    return attrs


def abe_to_wire(ctx: PairingContext, elems: AccessPolicyElements) -> dict:
    # attributes serialize sorted; element pairs stay aligned with them
    order = sorted(range(len(elems.attrs)), key=lambda i: elems.attrs[i])
    return {
        "attrs": [elems.attrs[i] for i in order],
        "ac_transferors": [enc_elem(ctx, elems.ac_transferors[i]) for i in order],
        "plcy_modifiers": [enc_elem(ctx, elems.plcy_modifiers[i]) for i in order],
        "plcy": enc_gt(ctx, elems.plcy),
    }


def abe_from_wire(ctx: PairingContext, obj: Mapping) -> AccessPolicyElements:
    attrs = _attrs_from_wire(obj)
    if len(obj["ac_transferors"]) != len(attrs) or len(obj["plcy_modifiers"]) != len(attrs):
        raise BadRecord("policy element count does not match the attribute list")
    return AccessPolicyElements(
        attrs=attrs,
        ac_transferors=tuple(dec_elem(ctx, e, Side.RIGHT) for e in obj["ac_transferors"]),
        plcy_modifiers=tuple(dec_elem(ctx, e, Side.RIGHT) for e in obj["plcy_modifiers"]),
        plcy=dec_gt(ctx, obj["plcy"]),
    )


def credential_to_wire(ctx: PairingContext, cred: AttributeCredential) -> dict:
    return {"attribute_id": cred.attribute_id, "credential": enc_elem(ctx, cred.credential)}


def credential_from_wire(ctx: PairingContext, obj: Mapping) -> AttributeCredential:
    attribute_id = obj["attribute_id"]
    if not isinstance(attribute_id, str):
        raise BadRecord(f"credential attribute {attribute_id!r} is not a string")
    return AttributeCredential(attribute_id, ctx.prepared_from_bytes(b64d(obj["credential"])))


def blinded_to_wire(ctx: PairingContext, blinded: BlindedIdentity) -> str:
    return enc_elem(ctx, blinded.element)


def blinded_from_wire(ctx: PairingContext, text: str) -> BlindedIdentity:
    return BlindedIdentity(element=ctx.prepared_from_bytes(b64d(text)))


# -- layer 3 -------------------------------------------------------------


def recovery_to_wire(ctx: PairingContext, elems: KeyRecoveryElements) -> dict:
    order = sorted(range(len(elems.attrs)), key=lambda i: elems.attrs[i])
    return {
        "attrs": [elems.attrs[i] for i in order],
        "dtk_transferor": enc_elem(ctx, elems.dtk_transferor),
        "dtk_owner_modifier": enc_elem(ctx, elems.dtk_owner_modifier),
        "dtk_aa_transferors": [enc_elem(ctx, elems.dtk_aa_transferors[i]) for i in order],
        "dtk_aa_modifiers": [enc_elem(ctx, elems.dtk_aa_modifiers[i]) for i in order],
        "wrapped_key": enc_gt(ctx, elems.wrapped_key),
    }


def recovery_from_wire(ctx: PairingContext, obj: Mapping) -> KeyRecoveryElements:
    attrs = _attrs_from_wire(obj)
    if len(obj["dtk_aa_transferors"]) != len(attrs) or len(obj["dtk_aa_modifiers"]) != len(attrs):
        raise BadRecord("recovery element count does not match the attribute list")
    return KeyRecoveryElements(
        attrs=attrs,
        dtk_transferor=dec_elem(ctx, obj["dtk_transferor"], Side.RIGHT),
        dtk_owner_modifier=dec_elem(ctx, obj["dtk_owner_modifier"], Side.RIGHT),
        dtk_aa_transferors=tuple(dec_elem(ctx, e, Side.RIGHT) for e in obj["dtk_aa_transferors"]),
        dtk_aa_modifiers=tuple(dec_elem(ctx, e, Side.RIGHT) for e in obj["dtk_aa_modifiers"]),
        wrapped_key=dec_gt(ctx, obj["wrapped_key"]),
    )


def payload_to_wire(ct: PayloadCiphertext) -> str:
    return b64e(ct.to_bytes())


def payload_from_wire(text: str) -> PayloadCiphertext:
    return payload_from_bytes(b64d(text))
