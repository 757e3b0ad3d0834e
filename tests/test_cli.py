"""Command-line drivers: workflows, exit codes, isolation, replayability."""

import hashlib
import io
import json
import os
import shutil
from collections import Counter
from contextlib import closing, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_mutations import JSON, key_paths, parent
from triseal import cli, wire
from triseal.cli import EXIT_NO_MATCH, EXIT_OK, EXIT_PROTOCOL, main
from triseal.pairing import OracleContext, PairingContext, curve
from triseal.server import _read_frames


def run(*argv):
    return main([str(a) for a in argv])


def bootstrap(root: Path, *, backend="oracle", seeds=None):
    """Standard two-authority deployment with one published record."""
    seeds = seeds or {}
    data = root / "data.txt"
    data.write_bytes(b"vitals: bp 120/80\n")
    assert run(
        "setup-server", "--home", root / "srv", "--sets", 3,
        "--backend", backend, "--seed", seeds.get("server", "a1"),
    ) == EXIT_OK
    assert run(
        "setup-aa", "--home", root / "aa1", "--server", root / "srv",
        "--attr", "DOCTOR", "--seed", seeds.get("aa1", "b1"),
    ) == EXIT_OK
    assert run(
        "setup-aa", "--home", root / "aa2", "--server", root / "srv",
        "--attr", "RESEARCHER", "--seed", seeds.get("aa2", "b2"),
    ) == EXIT_OK
    assert run(
        "setup-owner", "--home", root / "own", "--server", root / "srv",
        "--owner-id", "alice", "--seed", seeds.get("owner", "c1"),
    ) == EXIT_OK
    assert run(
        "publish", "--home", root / "own", "--server", root / "srv",
        "--file", data, "--keywords", "bp,vitals", "--policy", "DOCTOR,RESEARCHER",
        "--set-index", 2, "--aa", root / "aa1", "--aa", root / "aa2",
        "--seed", seeds.get("publish", "d1"),
    ) == EXIT_OK
    return data


def test_full_workflow_and_exit_codes(tmp_path, capsys):
    data = bootstrap(tmp_path)
    assert run(
        "consent", "--home", tmp_path / "own", "--server", tmp_path / "srv",
        "--keyword", "bp", "--subset", "1,2", "--out", tmp_path / "consent.json",
    ) == EXIT_OK
    assert run(
        "issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa1",
        "--gid", "bob", "--seed", "e1",
    ) == EXIT_OK
    assert run(
        "issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa2", "--seed", "e2",
    ) == EXIT_OK
    assert run(
        "search", "--home", tmp_path / "usr", "--server", tmp_path / "srv",
        "--consent", tmp_path / "consent.json", "--out", tmp_path / "results.json",
    ) == EXIT_OK
    assert run(
        "decrypt", "--home", tmp_path / "usr", "--server", tmp_path / "srv",
        "--consent", tmp_path / "consent.json", "--results", tmp_path / "results.json",
        "--out-dir", tmp_path / "plain",
    ) == EXIT_OK
    plain = list((tmp_path / "plain").glob("*.bin"))
    assert len(plain) == 1 and plain[0].read_bytes() == data.read_bytes()

    assert run("inspect", "--server", tmp_path / "srv") == EXIT_OK
    out = capsys.readouterr().out
    assert "records: 1" in out and "policy=DOCTOR,RESEARCHER" in out

    # no-match searches exit cleanly but distinguishably
    assert run(
        "consent", "--home", tmp_path / "own", "--server", tmp_path / "srv",
        "--keyword", "absent", "--subset", "1,2", "--out", tmp_path / "c2.json",
    ) == EXIT_OK
    assert run(
        "issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa1", "--seed", "e3",
    ) == EXIT_OK
    assert run(
        "search", "--home", tmp_path / "usr", "--server", tmp_path / "srv",
        "--consent", tmp_path / "c2.json", "--out", tmp_path / "r2.json",
    ) == EXIT_NO_MATCH


def test_update_workflow(tmp_path, capsys):
    bootstrap(tmp_path)
    assert run("inspect", "--server", tmp_path / "srv") == EXIT_OK
    detail = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")
    ][0]
    record_id = detail.strip().split(":")[0]

    assert run(
        "update", "--home", tmp_path / "own", "--server", tmp_path / "srv",
        "--record-id", record_id, "--subset", "2", "--keywords", "pulse", "--seed", "f1",
    ) == EXIT_OK
    # stranger cannot update
    assert run(
        "setup-owner", "--home", tmp_path / "mallory", "--server", tmp_path / "srv",
        "--owner-id", "mallory", "--seed", "99",
    ) == EXIT_OK
    assert run(
        "update", "--home", tmp_path / "mallory", "--server", tmp_path / "srv",
        "--record-id", record_id, "--subset", "2", "--keywords", "evil",
    ) == EXIT_PROTOCOL


def test_role_isolation_no_foreign_secrets_on_disk(tmp_path):
    bootstrap(tmp_path)
    run("consent", "--home", tmp_path / "own", "--server", tmp_path / "srv",
        "--keyword", "bp", "--subset", "2", "--out", tmp_path / "consent.json")
    run("issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa1", "--gid", "bob",
        "--seed", "e1")
    run("issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa2", "--seed", "e2")
    run("search", "--home", tmp_path / "usr", "--server", tmp_path / "srv",
        "--consent", tmp_path / "consent.json", "--out", tmp_path / "results.json")

    owner_state = json.loads((tmp_path / "own" / "owner.json").read_text())
    secrets = {
        "owner sk": owner_state["sk"],
        "owner sk_dtk": owner_state["sk_dtk"],
        "owner update_id": owner_state["update_id"],
    }
    for aa in ("aa1", "aa2"):
        aa_state = json.loads((tmp_path / aa / "aa.json").read_text())
        secrets[f"{aa} ask"] = aa_state["ask"]
        secrets[f"{aa} ask_dtk"] = aa_state["ask_dtk"]
    gid = json.loads((tmp_path / "usr" / "user.json").read_text())["gid"]

    foreign = {
        "srv": [v for v in secrets.values()] + [gid],
        "usr": [secrets["owner sk"], secrets["owner sk_dtk"], secrets["owner update_id"],
                secrets["aa1 ask"], secrets["aa2 ask"]],
        "own": [secrets["aa1 ask"], secrets["aa2 ask"], gid],
        "aa1": [secrets["owner sk"], gid],
    }
    for home, values in foreign.items():
        for path in (tmp_path / home).rglob("*"):
            if path.is_file():
                text = path.read_text(errors="ignore")
                for value in values:
                    assert value not in text, f"{value[:12]}... leaked into {path}"


def test_deterministic_replay_produces_identical_trees(tmp_path):
    """The same seeded script run twice yields byte-identical state and
    wire files."""

    def script(root: Path):
        root.mkdir()
        bootstrap(root)
        run("consent", "--home", root / "own", "--server", root / "srv",
            "--keyword", "bp", "--subset", "1,2", "--out", root / "consent.json")
        run("issue", "--home", root / "usr", "--aa", root / "aa1", "--gid", "bob",
            "--seed", "e1")
        run("issue", "--home", root / "usr", "--aa", root / "aa2", "--seed", "e2")
        run("search", "--home", root / "usr", "--server", root / "srv",
            "--consent", root / "consent.json", "--out", root / "results.json")
        run("decrypt", "--home", root / "usr", "--server", root / "srv",
            "--consent", root / "consent.json", "--results", root / "results.json",
            "--out-dir", root / "plain")

    script(tmp_path / "run1")
    script(tmp_path / "run2")
    files1 = sorted(p.relative_to(tmp_path / "run1") for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "run2") for p in (tmp_path / "run2").rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (tmp_path / "run1" / rel).read_bytes() == (tmp_path / "run2" / rel).read_bytes(), rel


def test_store_key_comes_from_its_own_seed_label_or_secrets(tmp_path):
    """Under --seed the store key is derived from the seed under its own label,
    so the set exponents drawn from the seeded stream do not move; without a
    seed it comes from ``secrets``."""
    for home, seed in (("s1", "a1"), ("s2", "a1"), ("u1", None), ("u2", None)):
        argv = ["setup-server", "--home", tmp_path / home, "--sets", 3, "--backend", "oracle"]
        assert run(*argv, *(("--seed", seed) if seed else ())) == EXIT_OK
    keys = {home: (tmp_path / home / "store.log.key").read_bytes() for home in ("s1", "u1", "u2")}
    assert (tmp_path / "s2" / "store.log.key").read_bytes() == keys["s1"]
    assert keys["s1"] == hashlib.sha256(b"store-key/a1").digest()
    assert len(keys["u1"]) == 32 and len({keys["s1"], keys["u1"], keys["u2"]}) == 3
    assert (tmp_path / "s1/public.json").read_bytes() == (tmp_path / "s2/public.json").read_bytes()


def test_request_transcripts_show_fresh_blindings(tmp_path):
    bootstrap(tmp_path)
    run("consent", "--home", tmp_path / "own", "--server", tmp_path / "srv",
        "--keyword", "bp", "--subset", "2", "--out", tmp_path / "consent.json")
    for seed, seed2 in (("e1", "e101"), ("e2", "e202")):
        run("issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa1",
            "--gid", "bob", "--seed", seed)
        run("issue", "--home", tmp_path / "usr", "--aa", tmp_path / "aa2", "--seed", seed2)
        run("search", "--home", tmp_path / "usr", "--server", tmp_path / "srv",
            "--consent", tmp_path / "consent.json", "--out", tmp_path / f"res-{seed}.json")
    requests = sorted((tmp_path / "usr" / "outbox").glob("request-*.json"))
    assert len(requests) == 2
    a, b = (json.loads(p.read_text()) for p in requests)
    assert a["blinded"] != b["blinded"]
    assert a["credentials"] != b["credentials"]
    assert a["token"] == b["token"]  # same consented keyword and subset


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["search"])  # missing required flags
    assert exc.value.code == 2


def test_issue_requires_gid_on_first_use(tmp_path):
    bootstrap(tmp_path)
    assert run(
        "issue", "--home", tmp_path / "usr2", "--aa", tmp_path / "aa1",
    ) == EXIT_PROTOCOL


def walkthrough(root: Path, backend: str = "oracle") -> None:
    """bootstrap, consent, two issues, search and decrypt, every step seeded."""
    root.mkdir(parents=True)
    bootstrap(root, backend=backend)
    assert run("consent", "--home", root / "own", "--server", root / "srv",
               "--keyword", "bp", "--subset", "1,2", "--out", root / "consent.json") == EXIT_OK
    assert run("issue", "--home", root / "usr", "--aa", root / "aa1", "--gid", "bob",
               "--seed", "e1") == EXIT_OK
    assert run("issue", "--home", root / "usr", "--aa", root / "aa2", "--seed", "e2") == EXIT_OK
    assert run("search", "--home", root / "usr", "--server", root / "srv",
               "--consent", root / "consent.json", "--out", root / "results.json") == EXIT_OK
    assert run("decrypt", "--home", root / "usr", "--server", root / "srv",
               "--consent", root / "consent.json", "--results", root / "results.json",
               "--out-dir", root / "plain") == EXIT_OK


# SHA-256 of every file the seeded walkthrough writes.  No file holds a path,
# so the hashes do not depend on where the tree lives.
WALKTHROUGH_SHA256 = {
    "aa1/aa.json": "69706b62bc0a9b3bb9f2d59e1a0bcdecbc546331dedb78592fa2e6c919df876d",
    "aa1/public.json": "073d877d1d6a6b5d777226b2f67715209842c2ce78354830e9d9a68c3674ea88",
    "aa2/aa.json": "679e47e34a7d1e1fc0199b996ddf7403c37ad207883d945725cd57bd5cd10df1",
    "aa2/public.json": "4fe0c2ff2bdc2575a6617ef7c66594d05892e27a01fbd785dedf5cf4d56e3e76",
    "consent.json": "1eac272e28162a76b1dc393e9c206661c6f876c349b37467b86f4f140e8a6668",
    "data.txt": "df166ef9772bcf42268af58a24b835546241e5b75771983a4b60b9b26b4a643e",
    "own/owner.json": "e0eeed057de114b24d40b2ac2610406fe69a537723a1c860d783537fdd9e8645",
    "plain/af09862074729217eb0d1f307fbd9a17.bin":
        "df166ef9772bcf42268af58a24b835546241e5b75771983a4b60b9b26b4a643e",
    "results.json": "4c4d7cfeb7f3814b6109a75c2adc3f5ccb042c52f1122da7b6d4cb6c4316b8d9",
    "srv/public.json": "172b7bbd231b8190a6374aecbf954e747d353942cef22a190d1bf85ba8a38eed",
    "srv/store.log": "ed8a623ae47e019ec9b4b7aae0e0b5dc35c094b37aba90546ae964e261ef2ce4",
    "srv/store.log.key": "67f5f4944565948f210613f1a24dc8fdd49ea1f9ef34377357cbb8574c639f38",
    "usr/outbox/request-0001.json":
        "36f5cbd76da5e51510ff6da06a163a3017c918b6e60d1393226ea3e75e7bc020",
    "usr/session.json": "a9b04b54a93583182fc9e55b92d028e00bccb13e1783461b960f76c8dc028fc9",
    "usr/user.json": "48cf39cbfe664fe27ed313561afbb6e5fba2d1a7146255ba9e2e757c1725c717",
}


def test_walkthrough_known_answers(tmp_path):
    root = tmp_path / "tree"
    walkthrough(root)
    written = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in root.rglob("*")
        if p.is_file()
    }
    assert written == WALKTHROUGH_SHA256


@pytest.fixture(scope="module")
def walked(tmp_path_factory):
    root = tmp_path_factory.mktemp("walked") / "tree"
    walkthrough(root)
    return root


SEARCH = ("search", "--home", "usr", "--server", "srv", "--consent", "consent.json",
          "--out", "r.json")
DECRYPT = ("decrypt", "--home", "usr", "--server", "srv", "--consent", "consent.json",
           "--results", "results.json", "--out-dir", "out")
ISSUE = ("issue", "--home", "usr", "--aa", "aa1", "--seed", "e9")
CONSENT = ("consent", "--home", "own", "--server", "srv", "--keyword", "bp", "--subset", "1",
           "--out", "c.json")
PUBLISH = ("publish", "--home", "own", "--server", "srv", "--file", "data.txt",
           "--keywords", "k", "--policy", "DOCTOR", "--set-index", 1, "--aa", "aa1")
UPDATE = ("update", "--home", "own", "--server", "srv", "--record-id",
          "af09862074729217eb0d1f307fbd9a17", "--subset", "2")
REPOLICY = (*UPDATE, "--policy", "DOCTOR", "--file", "data.txt", "--aa", "aa1")
SETUP_AGAIN = ("setup-server", "--home", "srv", "--sets", 2, "--backend", "oracle")
ALL_FAULTS = ("other-kind", "missing", "not-json", "deep")
# the key a retyped-scalar or secret-* fault sets, and its value, by file, command and fault;
# a secret scalar has one spelling, format(x, "x") of an x in [1, q)
RETYPED = {
    ("own/owner.json", "consent", "retyped-scalar"): ("owner_id", 5),
    ("own/owner.json", "publish", "retyped-scalar"): ("update_id", 5),
    ("aa1/aa.json", "issue", "retyped-scalar"): ("attribute_id", 5),
    ("aa1/public.json", "publish", "retyped-scalar"): ("attribute_id", 5),
    ("usr/session.json", "search", "retyped-scalar"): ("used", "yes"),
    ("usr/user.json", "issue", "retyped-scalar"): ("gid", 5),
    ("usr/user.json", "search", "retyped-scalar"): ("gid", 5),
    ("usr/user.json", "decrypt", "retyped-scalar"): ("gid", 5),
    ("own/owner.json", "consent", "secret-zero"): ("sk", "0"),
    ("own/owner.json", "consent", "secret-signed"): ("sk_dtk", "-1f"),
    ("own/owner.json", "consent", "secret-spaced"): ("sk", " 0x1_f\n"),
    ("own/owner.json", "consent", "secret-upper"): ("sk_dtk", "1F"),
    ("own/owner.json", "consent", "secret-past-q"): ("sk", "f" * 64),  # > q on either backend
    ("aa1/aa.json", "issue", "secret-zero"): ("ask_dtk", "0"),
    ("aa1/aa.json", "issue", "secret-signed"): ("ask", "-1f"),
    ("aa1/aa.json", "issue", "secret-spaced"): ("ask_dtk", " 0x1_f\n"),
    ("aa1/aa.json", "issue", "secret-upper"): ("ask", "1F"),
    ("aa1/aa.json", "issue", "secret-past-q"): ("ask_dtk", "f" * 64),
}
SECRET_FAULTS = ("secret-zero", "secret-signed", "secret-spaced", "secret-upper", "secret-past-q")

# (file a command reads, the command, a file of another kind, faults to try)
READERS = [
    ("srv/public.json", CONSENT, "aa1/public.json", ALL_FAULTS),
    ("own/owner.json", CONSENT, "aa1/aa.json", (*ALL_FAULTS, "retyped-scalar", *SECRET_FAULTS)),
    ("own/owner.json", PUBLISH, None, ("retyped-scalar",)),
    ("aa1/aa.json", ISSUE, "own/owner.json", (*ALL_FAULTS, "retyped-scalar", *SECRET_FAULTS)),
    ("aa1/public.json", PUBLISH, "srv/public.json", (*ALL_FAULTS, "retyped-scalar")),
    ("consent.json", SEARCH, "usr/session.json", ALL_FAULTS),
    ("usr/session.json", SEARCH, "consent.json", (*ALL_FAULTS, "retyped-scalar")),
    ("results.json", DECRYPT, "consent.json", ALL_FAULTS),
    ("usr/user.json", ISSUE, "own/owner.json", ("other-kind", "not-json", "retyped-scalar")),
    ("usr/user.json", SEARCH, "own/owner.json", (*ALL_FAULTS, "retyped-scalar")),
    ("usr/user.json", DECRYPT, "own/owner.json", (*ALL_FAULTS, "retyped-scalar")),
    ("srv/store.log", SEARCH, None, ("missing", "bad-frame")),
    ("data.txt", PUBLISH, None, ("missing",)),
    ("data.txt", REPOLICY, None, ("missing",)),
    # "kept": the file as the walkthrough wrote it, which the command must not overwrite
    ("srv/store.log", SETUP_AGAIN, None, ("kept",)),
    ("usr/user.json", (*ISSUE, "--gid", "carol"), None, ("kept",)),
]


@pytest.mark.parametrize(
    "target, argv, other, fault",
    [(t, a, o, f) for t, a, o, faults in READERS for f in faults],
    ids=[f"{a[0]}-{t}-{f}" for t, a, _, faults in READERS for f in faults],
)
def test_bad_input_files_exit_1_with_one_error_line(
    walked, tmp_path, monkeypatch, capsys, target, argv, other, fault
):
    root = tmp_path / "tree"
    shutil.copytree(walked, root)
    monkeypatch.chdir(root)
    path = root / target
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    if fault == "kept":
        pass
    elif fault == "other-kind":
        shutil.copyfile(root / other, path)
    elif fault == "missing":
        path.unlink()
    elif fault == "bad-frame":
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x02xx")
    elif fault == "deep":
        path.write_text("[" * 1000 + "]" * 1000)
    elif (target, argv[0], fault) in RETYPED:
        key, value = RETYPED[target, argv[0], fault]
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    else:
        path.write_text("not json\n")
    capsys.readouterr()
    assert run(*argv) == EXIT_PROTOCOL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if fault == "kept":
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


BAD_ARGUMENTS = {
    "sets-0": ("setup-server", "--home", "srv2", "--sets", 0),
    "consent-subset": tuple("x,1" if a == "1" else a for a in CONSENT),
    "update-subset": (*UPDATE[:-1], "x,1", "--keywords", "k"),
    "publish-keywords": tuple("," if a == "k" else a for a in PUBLISH),
    "publish-policy": tuple("," if a == "DOCTOR" else a for a in PUBLISH),
    "publish-policy-twice": tuple("DOCTOR,DOCTOR" if a == "DOCTOR" else a for a in PUBLISH),
    "update-policy-twice": tuple("DOCTOR,DOCTOR" if a == "DOCTOR" else a for a in REPOLICY),
    "update-policy-without-file": (*UPDATE, "--policy", "DOCTOR", "--aa", "aa1"),
    "update-policy-without-aa": (*UPDATE, "--policy", "DOCTOR", "--file", "data.txt"),
    "update-file-without-policy": (*UPDATE, "--keywords", "k", "--file", "data.txt"),
    "seed-not-hex": ("setup-aa", "--home", "aa3", "--server", "srv", "--attr", "A",
                     "--seed", "zz"),
}


@pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS))
def test_malformed_arguments_exit_2(walked, tmp_path, monkeypatch, capsys, argv):
    """Arguments that cannot mean anything are usage errors, reported before
    any file is read or written."""
    root = tmp_path / "tree"
    shutil.copytree(walked, root)
    monkeypatch.chdir(root)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and ": error: " in err.splitlines()[-1], err


def test_session_file_loads_without_preparing_a_point(walked, monkeypatch):
    """The session's blindings and credentials decode with their order check
    alone: ``issue`` and ``search`` never pair them, and ``decrypt`` prepares
    what it pairs once per response."""
    prepared = []
    original = PairingContext.prepared_from_bytes
    monkeypatch.setattr(
        PairingContext, "prepared_from_bytes", lambda *args: prepared.append(args) or original(*args)
    )
    _, session, used = cli._load_session(walked / "usr")
    assert prepared == []
    assert used is True and sorted(session.credentials) == ["DOCTOR", "RESEARCHER"]


def test_decrypt_reads_the_consent_owner_token_alone_checked_once(walked, tmp_path, monkeypatch):
    """``decrypt`` decodes the consent's owner token once, checked by its
    preparation alone, and never decodes the search token, which it does not
    pair."""
    root = tmp_path / "tree"
    shutil.copytree(walked, root)
    monkeypatch.chdir(root)
    consent = json.loads((root / "consent.json").read_text())
    search_raw = wire.b64d(consent["search_token"]["token"])
    owner_raw = wire.b64d(consent["owner_decrypt_token"])
    decoded = []
    for name in ("element_from_bytes", "prepared_from_bytes"):
        original = getattr(PairingContext, name)

        def logged(self, raw, *args, _name=name, _original=original):
            decoded.append((_name, raw))
            return _original(self, raw, *args)

        monkeypatch.setattr(PairingContext, name, logged)
    assert run(*DECRYPT) == EXIT_OK
    assert [d for d in decoded if d[1] == owner_raw] == [("prepared_from_bytes", owner_raw)]
    assert all(raw != search_raw for _, raw in decoded)


def test_curve_decrypt_checks_each_point_it_reads_once(tmp_path, monkeypatch):
    """A curve walkthrough's ``decrypt`` checks each point it reads once: the
    server's three set keys and the returned layer 3 (6) by [q]P, and the five
    left points it pairs (the owner's token, ``blinded_r``, two decrypt tokens
    and the subset product) by their Miller lines alone.  It never decodes the
    session's ``blinded`` or credentials."""
    root = tmp_path / "tree"
    walkthrough(root, backend="curve")
    monkeypatch.chdir(root)
    PairingContext.kept.cache_clear()  # as in a fresh process
    counts = Counter()
    pt_mul, lines = curve._pt_mul, curve._miller_lines

    def order_check(pt, k):
        counts.update(["[q]P"] * (k == curve.CURVE_Q))
        return pt_mul(pt, k)

    monkeypatch.setattr(curve, "_pt_mul", order_check)
    monkeypatch.setattr(curve, "_miller_lines", lambda pt: counts.update(["lines"]) or lines(pt))
    assert run(*DECRYPT) == EXIT_OK
    assert counts == {"[q]P": 9, "lines": 5}
    plain = [p.read_bytes() for p in (root / "out").glob("*.bin")]
    assert plain == [(root / "data.txt").read_bytes()]


def test_walkthrough_files_hold_no_dead_fields(walked):
    """Store frames hold the bare record, the set keys are LEFT only, and a
    response's stats carry no count that equals another by construction."""
    with closing(_read_frames(walked / "srv" / "store.log")) as frames:
        header, *records = [json.loads(data) for _, data in frames]
    public = json.loads((walked / "srv" / "public.json").read_text())
    stats = json.loads((walked / "results.json").read_text())["stats"]
    assert (
        [sorted(frame["record"]) for frame in records],
        sorted(header["pks"]),
        sorted(public["pks"]),
        sorted(stats),
    ) == (
        [["abe", "payload", "record_id", "recovery", "set_index", "sse"]],
        ["left"],
        ["left"],
        ["abe_verified", "candidates", "matched", "sse_matched"],
    )


# the files an oracle walkthrough wrote before store frames lost their copy of
# ``params``, the set keys their RIGHT half and the stats ``sse_checked``
OLD_FORMAT = Path(__file__).resolve().parent / "data" / "walkthrough_6f27e28"
OLD_FORMAT_SHA256 = {  # as recorded in WALKTHROUGH_SHA256 at 6f27e28
    "results.json": "bd169ce914db78ddd6e711d57a10beb2d36cab2923b950dd6e287902a767ec0d",
    "srv/public.json": "d37ae5f124c8439bf713be3c0723aec000a0bacab864da04b9188be1012438d8",
    "srv/store.log": "922cd3f517544563d98fa3051817880ce59565a1e2bc27911e48c9cb2f920a05",
    "srv/store.log.key": "67f5f4944565948f210613f1a24dc8fdd49ea1f9ef34377357cbb8574c639f38",
}


def test_old_format_files_open_search_and_decrypt(walked, tmp_path, monkeypatch, capsys):
    """A tree whose server files and results are the old format's works as
    written: its tagged frames still verify, so the reopen checks no order,
    and search and decrypt give the same record and bytes."""
    written = {
        p.relative_to(OLD_FORMAT).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in OLD_FORMAT.rglob("*")
        if p.is_file()
    }
    assert written == OLD_FORMAT_SHA256
    root = tmp_path / "tree"
    shutil.copytree(walked, root)
    for name in OLD_FORMAT_SHA256:
        shutil.copyfile(OLD_FORMAT / name, root / name)
    monkeypatch.chdir(root)
    checked = Counter()

    def decode(self, raw, check_order=True, _original=OracleContext._g_from_bytes):
        checked[check_order] += 1
        return _original(self, raw, check_order)

    monkeypatch.setattr(OracleContext, "_g_from_bytes", decode)
    monkeypatch.setattr(OracleContext, "_gt_from_bytes", decode)
    capsys.readouterr()
    assert run("inspect", "--server", "srv") == EXIT_OK
    assert checked[False] > 0 and checked[True] == 0
    record_id = "af09862074729217eb0d1f307fbd9a17"
    assert f"  {record_id}: set=2 " in capsys.readouterr().out
    assert run(*SEARCH) == EXIT_OK
    assert [m["record_id"] for m in json.loads(Path("r.json").read_text())["matches"]] == [
        record_id
    ]
    assert run(*DECRYPT) == EXIT_OK
    assert (root / "out" / f"{record_id}.bin").read_bytes() == (root / "data.txt").read_bytes()


# a file of the walked tree and a command that reads it
FUZZED = {
    "srv/public.json": CONSENT,
    "aa1/public.json": PUBLISH,
    "aa1/aa.json": ISSUE,
    "own/owner.json": CONSENT,
    "usr/user.json": SEARCH,
    "usr/session.json": SEARCH,
    "consent.json": SEARCH,
    "results.json": DECRYPT,
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_commands_on_mutated_files_exit_cleanly_or_with_one_error_line(
    walked, tmp_path_factory, data
):
    """A file of the walked tree with 1-3 keys dropped or retyped: the command
    that reads it exits normally, or exits 1 with one ``error:`` line; it never
    meets a traceback."""
    target = data.draw(st.sampled_from(sorted(FUZZED)), label="file")
    root = tmp_path_factory.mktemp("fuzz") / "tree"
    shutil.copytree(walked, root)
    obj = json.loads((root / target).read_text())
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(key_paths(obj))
        if not paths:
            break
        key_path = data.draw(st.sampled_from(paths), label="path")
        slot = parent(obj, key_path)
        if data.draw(st.booleans(), label="drop"):
            del slot[key_path[-1]]
        else:
            slot[key_path[-1]] = data.draw(JSON, label="value")
    (root / target).write_text(json.dumps(obj))
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(root)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(*FUZZED[target])
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    if code != EXIT_PROTOCOL:
        assert code in (EXIT_OK, EXIT_NO_MATCH) and not lines, err.getvalue()
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
