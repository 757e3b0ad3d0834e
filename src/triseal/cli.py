"""Command-line drivers for the protocol actors against file-backed state.

Each invocation acts as one role whose state lives under ``--home``; other
actors are referenced by their directories (public files only, except for
``issue``, which simulates the user--authority exchange in one process and
therefore reads the authority's key file while writing only user files).

Exit codes: 0 success, 1 protocol error, 2 usage error, 3 clean no-match.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import string
import sys
from pathlib import Path

from . import abe, recovery, wire
from .actors import Authority, AuthorityPublic, ConsentGrant, Owner, User, UserSession
from .errors import BadRecord, ProtocolError
from .pairing import PairingContext, make_context
from .server import (
    EscrowServer,
    record_to_wire,
    search_request_to_wire,
    search_response_from_wire,
    search_response_to_wire,
)
from .sse import OwnerSseKey, SetPublicKeys, server_setup

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_NO_MATCH = 3

STORE_NAME = "store.log"


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(wire.canonical_json(obj) + b"\n")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise BadRecord(f"cannot read {path}: {exc}") from exc


def _read_json(path: Path):
    return wire.parse_json(_read_bytes(path), str(path))


def _load(path: Path, kind: str, decode, ctx: PairingContext | None = None):
    """Decode one envelope file (see ``wire.open_envelope``)."""
    return wire.open_envelope(_read_json(path), kind, decode, ctx)


def _rng(seed: int | None) -> random.Random:
    return random.SystemRandom() if seed is None else random.Random(seed)


# -- argument types: a malformed argument is a usage error (exit 2) -------------


def _seed(text: str) -> int:
    # hex digits only: a sign, 0x, _ or blanks would alias seeds (Random(-1) is Random(1))
    if not text or text.strip(string.hexdigits):
        raise argparse.ArgumentTypeError(f"{text!r} is not a hex seed")
    return int(text, 16)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of set indices") from None


def _names(text: str) -> list[str]:
    names = [part for part in text.split(",") if part]
    if not names:
        raise argparse.ArgumentTypeError(f"{text!r} names nothing")
    return names


def _policy(text: str) -> list[str]:
    if len(set(names := _names(text))) != len(names):
        raise argparse.ArgumentTypeError(f"{text!r} names an attribute twice")
    return names


# -- actor state files -----------------------------------------------------------


def _server_paths(home: str) -> tuple[Path, Path]:
    root = Path(home)
    return root / "public.json", root / STORE_NAME


def _load_server_public(home: str, ctx: PairingContext | None = None):
    def decode(ctx: PairingContext, obj) -> tuple[PairingContext, SetPublicKeys]:
        return ctx, wire.PKS.decode(ctx, obj["pks"])

    return _load(_server_paths(home)[0], "server-public", decode, ctx)


def _open_server(home: str) -> EscrowServer:
    return EscrowServer.open(_server_paths(home)[1])


def _owner_from_wire(ctx: PairingContext, state) -> Owner:
    return Owner(
        ctx=ctx,
        owner_id=wire.NAME.decode(ctx, state["owner_id"]),
        sse_key=OwnerSseKey(wire.SCALAR.decode(ctx, state["sk"])),
        recovery_key=recovery.OwnerRecoveryKey(wire.SCALAR.decode(ctx, state["sk_dtk"])),
        update_id=wire.NAME.decode(ctx, state["update_id"]),
        rng=_rng(None),
    )


def _load_owner(home: str) -> Owner:
    return _load(Path(home) / "owner.json", "owner-secret", _owner_from_wire)


def _authority_from_wire(ctx: PairingContext, state) -> Authority:
    attr, ask = wire.NAME.decode(ctx, state["attribute_id"]), wire.SCALAR.decode(ctx, state["ask"])
    return Authority(
        ctx=ctx,
        attribute_id=attr,
        kp=abe.aa_setup(ctx, attr, ask=ask),
        kp_dtk=recovery.recovery_aa_setup(
            ctx, attr, ask=wire.SCALAR.decode(ctx, state["ask_dtk"]), distinct_from=(ask,)
        ),
    )


_AA_PUBLIC = wire.Form(AuthorityPublic, attribute_id=wire.NAME, apk=wire.G, apk_dtk=wire.G)
_CONSENT = wire.Form(
    ConsentGrant, search_token=wire.TOKEN, owner_decrypt_token=wire.G, subset=wire.INDICES
)
_DECRYPT_CONSENT = wire.Form(  # decrypt pairs the owner's token alone, checked by its lines
    lambda **f: ConsentGrant(None, **f), owner_decrypt_token=wire.PREPARED, subset=wire.INDICES
)


def _load_user(home: str, ctx: PairingContext) -> str:
    """The user's global identity, from a file under ``ctx``."""
    return _load(
        Path(home) / "user.json", "user", lambda ctx, obj: wire.NAME.decode(ctx, obj["gid"]), ctx
    )


# -- session files -----------------------------------------------------------

# issue and search never pair the session's points: each is decoded with its order
# check alone.  decrypt reads only the points it pairs, each checked once, by its lines
_SESSION = wire.Form(
    UserSession,
    blinded=wire.BLINDED,
    blinded_r=wire.BLINDED,
    credentials=wire.keyed(wire.CREDENTIAL),
    decrypt_tokens=wire.keyed(wire.G),
)
_DECRYPT_SESSION = wire.Form(
    lambda **f: UserSession(None, **f),
    blinded_r=wire.blinded(wire.PREPARED),
    decrypt_tokens=wire.keyed(wire.PREPARED),
)


def _session_path(home: str) -> Path:
    return Path(home) / "session.json"


def _session_to_file(ctx: PairingContext, session: UserSession, used: bool, home: str) -> None:
    body = {"used": used, **_SESSION.encode(ctx, session)}
    _write_json(_session_path(home), wire.envelope("session", ctx, body))


def _session_from_wire(ctx: PairingContext, obj) -> tuple[PairingContext, UserSession, bool]:
    return ctx, _SESSION.decode(ctx, obj), wire.FLAG.decode(ctx, obj["used"])


def _load_session(home: str, ctx: PairingContext | None = None):
    return _load(_session_path(home), "session", _session_from_wire, ctx)


# -- commands ---------------------------------------------------------------


def _cmd_setup_server(args) -> int:
    public_path, store_path = _server_paths(args.home)
    if store_path.exists():
        raise ProtocolError(f"{args.home} already holds a store")
    ctx = make_context(args.backend)
    pks = server_setup(ctx, args.sets, _rng(args.seed))
    store_path.parent.mkdir(parents=True, exist_ok=True)
    key = None if args.seed is None else hashlib.sha256(b"store-key/%x" % args.seed).digest()
    EscrowServer(ctx, pks, store_path=store_path, store_key=key).close()
    body = {"pks": wire.PKS.encode(ctx, pks)}
    _write_json(public_path, wire.envelope("server-public", ctx, body))
    print(f"server ready: backend={args.backend} sets={args.sets} home={args.home}")
    return EXIT_OK


def _cmd_setup_aa(args) -> int:
    ctx, _ = _load_server_public(args.server)
    rng = _rng(args.seed)
    authority = Authority.create(ctx, args.attr, rng)
    home = Path(args.home)
    secret = {
        "attribute_id": authority.attribute_id,
        "ask": wire.SCALAR.encode(ctx, authority.kp.ask),
        "ask_dtk": wire.SCALAR.encode(ctx, authority.kp_dtk.ask_dtk),
    }
    _write_json(home / "aa.json", wire.envelope("aa-secret", ctx, secret))
    body = _AA_PUBLIC.encode(ctx, authority.public())
    _write_json(home / "public.json", wire.envelope("aa-public", ctx, body))
    print(f"authority ready: attr={args.attr} home={args.home}")
    return EXIT_OK


def _cmd_setup_owner(args) -> int:
    ctx, _ = _load_server_public(args.server)
    rng = _rng(args.seed)
    owner = Owner.create(ctx, args.owner_id, rng)
    secret = {
        "owner_id": owner.owner_id,
        "sk": wire.SCALAR.encode(ctx, owner.sse_key.sk),
        "sk_dtk": wire.SCALAR.encode(ctx, owner.recovery_key.sk_dtk),
        "update_id": owner.update_id,
    }
    _write_json(Path(args.home) / "owner.json", wire.envelope("owner-secret", ctx, secret))
    print(f"owner ready: id={args.owner_id} home={args.home}")
    return EXIT_OK


def _authority_publics(ctx: PairingContext, homes) -> dict[str, AuthorityPublic]:
    publics = {}
    for home in homes or []:
        public = _load(Path(home) / "public.json", "aa-public", _AA_PUBLIC.decode, ctx)
        publics[public.attribute_id] = public
    return publics


def _cmd_publish(args) -> int:
    owner = _load_owner(args.home)
    if args.seed is not None:
        owner.rng = _rng(args.seed)
    server = _open_server(args.server)
    try:
        publics = _authority_publics(owner.ctx, args.aa)
        record = owner.publish(
            plaintext=_read_bytes(Path(args.file)),
            keywords=args.keywords,
            policy=args.policy,
            set_index=args.set_index,
            authorities=publics,
        )
        record_id = server.store_record(record)
    finally:
        server.close()
    print(f"record {record_id}")
    return EXIT_OK


def _cmd_consent(args) -> int:
    owner = _load_owner(args.home)
    _, pks = _load_server_public(args.server, owner.ctx)
    grant = owner.consent(args.keyword, args.subset, pks)
    body = _CONSENT.encode(owner.ctx, grant)
    _write_json(Path(args.out), wire.envelope("consent", owner.ctx, body))
    print(f"consent written: {args.out}")
    return EXIT_OK


def _cmd_issue(args) -> int:
    authority = _load(Path(args.aa) / "aa.json", "aa-secret", _authority_from_wire)
    ctx = authority.ctx
    user_file = Path(args.home) / "user.json"
    if user_file.exists():
        gid = _load_user(args.home, ctx)
        if args.gid not in (None, gid):
            raise ProtocolError(f"this home's user is {gid!r}, not {args.gid!r}")
    else:
        if args.gid is None:
            raise ProtocolError("first issue for this home needs --gid")
        gid = args.gid
        _write_json(user_file, wire.envelope("user", ctx, {"gid": gid}))
    user = User(ctx, gid, _rng(args.seed))
    if _session_path(args.home).exists():
        _, session, used = _load_session(args.home, ctx)
        if used:
            session = user.new_session()
    else:
        session = user.new_session()
    user.collect(session, authority)
    _session_to_file(ctx, session, used=False, home=args.home)
    print(f"issued {authority.attribute_id} credentials into session")
    return EXIT_OK


def _cmd_search(args) -> int:
    ctx, session, used = _load_session(args.home)
    if used:  # a second request under the same blinding would be linkable to the first
        raise ProtocolError("this session already searched; run issue again for a fresh one")
    grant = _load(Path(args.consent), "consent", _CONSENT.decode, ctx)
    user = User(ctx, _load_user(args.home, ctx), _rng(args.seed))
    request = user.build_search_request(session, grant)

    server = _open_server(args.server)  # before the request is written: a failed open writes none
    try:
        outbox = Path(args.home) / "outbox"
        outbox.mkdir(parents=True, exist_ok=True)
        serial = len(list(outbox.glob("request-*.json"))) + 1
        _write_json(outbox / f"request-{serial:04d}.json", search_request_to_wire(ctx, request))
        response = server.search(request)
    finally:
        server.close()
    _write_json(Path(args.out), search_response_to_wire(ctx, response))
    _session_to_file(ctx, session, used=True, home=args.home)
    stats = response.stats
    print(
        f"matches {len(response.matches)} "
        f"(candidates={stats.candidates} keyword_hits={stats.sse_matched} "
        f"policy_checks={stats.abe_verified})"
    )
    return EXIT_OK if response.matches else EXIT_NO_MATCH


def _cmd_decrypt(args) -> int:
    ctx, session = _load(
        _session_path(args.home), "session", lambda c, obj: (c, _DECRYPT_SESSION.decode(c, obj))
    )
    grant = _load(Path(args.consent), "consent", _DECRYPT_CONSENT.decode, ctx)
    response = search_response_from_wire(ctx, _read_json(Path(args.results)))
    _, pks = _load_server_public(args.server, ctx)
    user = User(ctx, _load_user(args.home, ctx), _rng(args.seed))
    results = user.decrypt_matches(session, grant, response, pks)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for record_id, plaintext in results:
        (out_dir / f"{record_id}.bin").write_bytes(plaintext)
        print(f"decrypted {record_id} ({len(plaintext)} bytes)")
    return EXIT_OK if results else EXIT_NO_MATCH


def _cmd_update(args) -> int:
    owner = _load_owner(args.home)
    if args.seed is not None:
        owner.rng = _rng(args.seed)
    server = _open_server(args.server)
    try:
        publics = _authority_publics(owner.ctx, args.aa) if args.aa else None
        request = owner.update_request(
            record_id=args.record_id,
            subset=args.subset,
            pks=server.pks,
            keywords=args.keywords,
            policy=args.policy,
            plaintext=_read_bytes(Path(args.file)) if args.file else None,
            authorities=publics,
        )
        record_id = server.reencrypt(request)
    finally:
        server.close()
    print(f"updated {record_id}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    server = _open_server(args.server)
    try:
        ids = [args.record_id] if args.record_id else sorted(server.record_ids())
        print(f"records: {server.record_count}")
        for record_id in ids:
            rec = server.fetch(record_id)
            obj = record_to_wire(server.ctx, rec)
            print(
                f"  {record_id}: set={rec.set_index} "
                f"policy={','.join(rec.abe.attrs)} "
                f"tags={len(rec.sse.tagged_keywords)} "
                f"payload={len(wire.b64d(obj['payload']))}B"
            )
    finally:
        server.close()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triseal",
        description="Privacy-preserving data sharing: encrypted search, "
        "anonymous credentials, local key recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup-server", help="create server parameters and store")
    p.add_argument("--home", required=True)
    p.add_argument("--sets", type=_positive, required=True, help="number of data sets n")
    p.add_argument("--backend", choices=["oracle", "curve"], default="curve")
    p.add_argument("--seed", type=_seed, help="hex seed for reproducible runs")
    p.set_defaults(func=_cmd_setup_server)

    p = sub.add_parser("setup-aa", help="create one attribute authority")
    p.add_argument("--home", required=True)
    p.add_argument("--server", required=True)
    p.add_argument("--attr", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_setup_aa)

    p = sub.add_parser("setup-owner", help="create owner key material")
    p.add_argument("--home", required=True)
    p.add_argument("--server", required=True)
    p.add_argument("--owner-id", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_setup_owner)

    p = sub.add_parser("publish", help="encrypt, tag, and store one file")
    p.add_argument("--home", required=True, help="owner home")
    p.add_argument("--server", required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--keywords", type=_names, required=True, help="comma-separated")
    p.add_argument("--policy", type=_policy, required=True, help="comma-separated attribute ids")
    p.add_argument("--set-index", type=int, required=True)
    p.add_argument("--aa", action="append", required=True, help="authority home (repeatable)")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_publish)

    p = sub.add_parser("consent", help="grant search + decryption tokens")
    p.add_argument("--home", required=True, help="owner home")
    p.add_argument("--server", required=True)
    p.add_argument("--keyword", required=True)
    p.add_argument("--subset", type=_subset, required=True, help="e.g. 1,3,5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_consent)

    p = sub.add_parser("issue", help="obtain credentials from one authority")
    p.add_argument("--home", required=True, help="user home")
    p.add_argument("--aa", required=True, help="authority home")
    p.add_argument("--gid", help="user identity (first call only)")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_issue)

    p = sub.add_parser("search", help="submit the session request to the server")
    p.add_argument("--home", required=True, help="user home")
    p.add_argument("--server", required=True)
    p.add_argument("--consent", required=True)
    p.add_argument("--out", required=True, help="results file")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("decrypt", help="recover keys locally and decrypt results")
    p.add_argument("--home", required=True, help="user home")
    p.add_argument("--server", required=True, help="server home (public keys only)")
    p.add_argument("--consent", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("update", help="re-encrypt a record's layers")
    p.add_argument("--home", required=True, help="owner home")
    p.add_argument("--server", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument("--subset", type=_subset, required=True)
    p.add_argument("--keywords", type=_names, help="replace the search layer")
    p.add_argument("--policy", type=_policy, help="replace policy + key wrapping + payload")
    p.add_argument("--file", help="plaintext, required with --policy")
    p.add_argument("--aa", action="append", help="authority home (repeatable)")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("inspect", help="print record structure (no secrets)")
    p.add_argument("--server", required=True)
    p.add_argument("--record-id")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "update" and args.policy is not None and not (args.file and args.aa):
        parser.error("update --policy needs --file and --aa")
    if args.command == "update" and args.policy is None and args.file is not None:
        parser.error("update --file needs --policy")
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
