"""Primitive-level timings of the curve backend, one JSON line of medians.

    python3 tools/bench_primitives.py --repeat 51 --out BENCH_primitives.json

Run from any directory; triseal is imported from the ``src/`` next to this
script.  Standard library only.  Each of ``--repeat`` rounds times every
primitive once with ``time.perf_counter`` on fixed inputs, round-robin, so a
burst of load moves every row alike and two checkouts measured on the same
machine are comparable; the line holds the median per primitive in
milliseconds, the Python version, the number of usable cores and
``src_lines``, the line count of every ``src/**/*.py`` (counted as
``perfbench/run.py`` counts it).  ``store_open_ms_per_record``
reopens a fixed 6-record store log, each record given new keywords or a new
policy and payload after publishing, and divides by the record count: the
trusted path, whose tags verify under the store key, so no order check runs
and only layer 1 is decoded.  ``store_open_untagged_ms_per_record`` reopens a
copy of the same log without its key file, so every element takes every check.
``search_after_open_ms`` reopens the tagged log and runs one wire-decoded search
over all three sets under keyword k1: 6 candidates, 3 of them hits (k = 2) whose
policy lines no server has kept yet, as the first search after a reopen or every
CLI ``search`` meets them; request decode, open and search, per call.
``held_policy_hit_decode_ms`` decodes the held layer 2 of a 2-attribute record
as a reopened tagged store does at a keyword hit: without the order checks.
``request_element_decode_ms`` decodes a search request's blinding as the server
decodes it and each credential: with the [q]P check, no line walk.
``kept_token_decode_ms`` decodes a consent's search token that an earlier
request kept: a hit in the table of kept points.
``response_layer_decode_ms`` decodes that record's layer 3 (k = 2) as a user
decodes a search response's, with every check, from an emptied table of kept
layers 3; ``kept_response_layer_decode_ms`` decodes the same bytes again: a hit
in that table, which a record returned again in the process meets instead.
``policy_check_kept_lines_ms`` is ``abe_verify`` of that record's policy (k = 2)
over the record side's kept lines (``prepare_policy``) and the request's plain
credentials and blinding, as a search runs it at a hit; ``policy_lines_cold_ms``
is ``prepare_policy`` itself, the k + 1 line walks a record pays at its first
hit on a server; ``policy_check_ms`` is ``prepare_policy`` then ``abe_verify``,
as a one-off caller runs them: those walks and the check.
``keyword_check_ms`` is ``sse_match_any`` of that record under a kept token and
the record's kept subset term, as a search runs it on a candidate after the
first search over the subset; ``subset_term_ms`` is that term's cold cost,
paid once per record and subset.
``g_exp_generator_ms`` and ``gt_exp_generator_ms`` raise g_L and e(g_L, g_R)
to a fixed 160-bit exponent over their window tables, and ``gt_generator_ms``
is ``ctx.gt_generator``, a ``pair`` call answered from the kept constant;
``generator_tables_ms`` builds the three window tables cold, as the first
power of each base in a process does.  ``publish_ms`` is one
``Owner.publish`` of 256 bytes under 2 keywords and 2 attributes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
K160 = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276B  # fixed 160-bit exponent
STORE_RECORDS = 6
PER_CALL = {  # rows timed per unit, not per call
    "store_open_ms_per_record": STORE_RECORDS,
    "store_open_untagged_ms_per_record": STORE_RECORDS,
}


def primitives():
    """name -> zero-argument callable, built on fixed inputs."""
    import random

    from triseal import wire
    from triseal.abe import AccessPolicyElements, abe_verify, prepare_policy
    from triseal.actors import Authority, Owner, User
    from triseal.pairing import CurveContext, HashDomain, curve
    from triseal.server import USER_RECOVERY, EscrowServer, _layer_from_wire, kept_recovery
    from triseal.server import record_from_wire, record_to_wire, search_request_from_wire
    from triseal.server import search_request_to_wire
    from triseal.sse import server_setup, sse_match_any, subset_product, subset_term

    ctx = CurveContext()
    h = ctx.hash_to_group(HashDomain.KEYWORD, b"bench")
    right = ctx.g_right**K160
    h_raw = ctx.element_to_bytes(h)
    gt_raw = ctx.gt_to_bytes(ctx.pair(h, right))
    h = ctx.prepare(h)
    # a point before cofactor clearing, as hash_to_group meets it
    x = curve._P - 1
    while True:
        x -= 1
        rhs = (x * x * x + x) % curve._P
        y = curve._powmod(rhs, curve._SQRT_EXP, curve._P)
        if y * y % curve._P == rhs:
            break
    raw = (x, y)
    labels = itertools.count()
    # one stored record, as a store reopen decodes it: 2 keywords, 2 attributes
    rng = random.Random(1)
    authorities = [Authority.create(ctx, a, rng) for a in ("A1", "A2")]
    publics = {auth.attribute_id: auth.public() for auth in authorities}
    owner = Owner.create(ctx, "bench-owner", rng)
    record = owner.publish(b"bench", ["k1", "k2"], ["A1", "A2"], 1, publics)
    record_wire = record_to_wire(ctx, record)
    # a store log as a reopen reads it: keyword and policy rotations alternate
    tmp = tempfile.TemporaryDirectory()  # kept alive by the closure below
    store = Path(tmp.name) / "store.log"
    pks = server_setup(ctx, 3, rng)
    server = EscrowServer(ctx, pks, store_path=store)
    for i in range(STORE_RECORDS):
        subset = [1 + i % 3]
        published = owner.publish(b"r%d" % i, ["k1", "k2"], ["A1", "A2"], subset[0], publics)
        rid = server.store_record(published)
        if i % 2:
            update = owner.update_request(rid, subset, pks, keywords=["k3", "k4"])
        else:
            update = owner.update_request(
                rid, subset, pks, policy=["A1", "A2"], plaintext=b"v2", authorities=publics
            )
        server.reencrypt(update)
    server.close()
    keyless = Path(tmp.name) / "keyless" / store.name  # the same log, no key file beside it
    keyless.parent.mkdir()
    shutil.copyfile(store, keyless)
    user = User(ctx, "bench-user", rng)
    session = user.new_session()
    for auth in authorities:
        user.collect(session, auth)
    blinded, creds = session.blinded, list(session.credentials.values())
    cold_request = search_request_to_wire(
        ctx, user.build_search_request(session, owner.consent("k1", [1, 2, 3], pks))
    )

    def search_after_open():
        with closing(EscrowServer.open(store)) as revived:
            found = revived.search(search_request_from_wire(revived.ctx, cold_request))
        assert found.stats.candidates == 6 and found.stats.matched == 3

    policy = prepare_policy(ctx, record.abe)
    assert abe_verify(ctx, policy, creds, blinded)
    blinded_text = wire.b64e(ctx.element_to_bytes(blinded.element))
    token = owner.consent("k1", [1, 2], pks).search_token
    token_raw = ctx.element_to_bytes(token.token)
    token = replace(token, token=ctx.kept(token_raw))  # as the first request under the consent
    product = subset_product(ctx, pks, token.subset)
    term = subset_term(ctx, record.sse, product)
    assert sse_match_any(ctx, record.sse, token, term)
    layer = record_wire["recovery"]
    assert USER_RECOVERY.decode(ctx, layer) == record.recovery  # kept from here on
    return {
        "pt_mul_q_ms": lambda: curve._pt_mul(h.data, curve.CURVE_Q),
        "pt_mul_h_ms": lambda: curve._pt_mul(raw, curve.CURVE_H),
        "pt_mul_160_ms": lambda: curve._pt_mul(h.data, K160),
        "g_exp_generator_ms": lambda: ctx.g_left**K160,
        "gt_generator_ms": lambda: ctx.gt_generator,
        "gt_exp_generator_ms": lambda: ctx.gt_generator**K160,
        "generator_tables_ms": lambda: (
            curve._windows.cache_clear(), [curve._windows(base) for base in (False, True, None)]
        ),
        "publish_ms": lambda: owner.publish(bytes(256), ["k1", "k2"], ["A1", "A2"], 1, publics),
        "element_from_bytes_ms": lambda: ctx.element_from_bytes(h_raw),
        "gt_from_bytes_ms": lambda: ctx.gt_from_bytes(gt_raw),
        "hash_to_group_ms": lambda: ctx.hash_to_group(
            HashDomain.KEYWORD, b"bench-%d" % next(labels)
        ),
        "request_element_decode_ms": lambda: wire.BLINDED.decode(ctx, blinded_text),
        "kept_token_decode_ms": lambda: ctx.kept(token_raw),
        "miller_lines_ms": lambda: curve._miller_lines(h.data),
        "pair_cached_lines_ms": lambda: ctx.pair(h, right),
        "keyword_check_ms": lambda: sse_match_any(ctx, record.sse, token, term),
        "subset_term_ms": lambda: subset_term(ctx, record.sse, product),
        "policy_check_ms": lambda: abe_verify(
            ctx, prepare_policy(ctx, record.abe), creds, blinded
        ),
        "policy_check_kept_lines_ms": lambda: abe_verify(ctx, policy, creds, blinded),
        "policy_lines_cold_ms": lambda: prepare_policy(ctx, record.abe),
        "final_exp_ms": lambda: curve._final_exp(raw),  # any nonzero F_p^2 value
        "record_from_wire_ms": lambda: record_from_wire(ctx, record_wire),
        "held_policy_hit_decode_ms": lambda: _layer_from_wire(
            ctx, record_wire["abe"], AccessPolicyElements, trusted=True
        ),
        "response_layer_decode_ms": lambda: (
            kept_recovery.cache_clear(), USER_RECOVERY.decode(ctx, layer)
        ),
        "kept_response_layer_decode_ms": lambda: USER_RECOVERY.decode(ctx, layer),
        "store_open_ms_per_record": lambda: EscrowServer.open(Path(tmp.name) / store.name).close(),
        "store_open_untagged_ms_per_record": lambda: EscrowServer.open(
            Path(tmp.name) / "keyless" / store.name
        ).close(),
        "search_after_open_ms": search_after_open,
    }


def measure(repeat: int) -> dict:
    fns = primitives()
    times = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - t0) * 1000.0 / PER_CALL.get(name, 1))
    medians = {name: round(statistics.median(ts), 3) for name, ts in times.items()}
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": repeat,
        "median_ms": medians,
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=21)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_primitives.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))
    line = json.dumps(measure(args.repeat), sort_keys=True)
    print(line)
    args.out.write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
