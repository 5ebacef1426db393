import os
import zlib
from pathlib import Path

import pytest

from refsev import conjectures
from refsev.cache import CacheStore, CacheVersionError, MAGIC
from refsev.caporaso import CHTable, P2, Sigma, severi_degree
from refsev.cli import main
from refsev.genfun import solve_bundles
from refsev.ylaurent import ring_at

from oracles import ScalarTable, per_delta, severi_degree_scalar


def test_roundtrip(tmp_path):
    p = str(tmp_path / "c.txt")
    with CacheStore(p) as s:
        s.put("a|1", "payload")
        s.put("b|2", "other")
    with CacheStore(p) as s:
        assert s.get("a|1") == "payload"
        assert s.get("b|2") == "other"
        assert len(s) == 2


def test_torn_trailing_record_dropped(tmp_path):
    p = str(tmp_path / "c.txt")
    with CacheStore(p) as s:
        s.put("k1", "v1")
        s.put("k2", "v2")
    with open(p, "a") as fh:
        fh.write("k3\tv3-without-newline")  # simulated interrupted write
    with CacheStore(p) as s:
        assert s.get("k1") == "v1"
        assert s.get("k2") == "v2"
        assert s.get("k3") is None
        # the torn tail was physically truncated; appending works again
        s.put("k3", "v3")
    with CacheStore(p) as s:
        assert s.get("k3") == "v3"


def _record(key, payload):
    """A record line as CacheStore.put writes it, checksum included."""
    record = f"{key}\t{payload}"
    return f"{record}\t{zlib.crc32(record.encode()):08x}\n"


def test_malformed_record_keeps_the_records_after_it(tmp_path):
    p = str(tmp_path / "c.txt")
    body = _record("a", "1") + "garbage-no-tab\n" + _record("b", "2") + _record("c", "3")
    with open(p, "w") as fh:
        fh.write(MAGIC + "\n" + body)
    with CacheStore(p) as s:
        assert (s.get("a"), s.get("b"), s.get("c")) == ("1", "2", "3")
        assert len(s) == 3
    # the file is left as it was: only a torn final record is cut
    with open(p) as fh:
        assert fh.read() == MAGIC + "\n" + body


def test_version_mismatch_refused(tmp_path):
    p = str(tmp_path / "c.txt")
    with open(p, "w") as fh:
        fh.write("some-other-format v9\n")
    with pytest.raises(CacheVersionError):
        CacheStore(p)


def test_truncation_at_every_offset(tmp_path):
    # a write torn at any byte: what loads is a subset of the records with
    # their values, a later put is kept, and the file stays openable
    p = str(tmp_path / "c.txt")
    records = {"a|1": "10", "bb|2": "-3", "c|33": "y^2"}
    with CacheStore(p) as s:
        for key, payload in records.items():
            s.put(key, payload)
    with open(p, "rb") as fh:
        data = fh.read()
    for cut in range(len(data) + 1):
        with open(p, "wb") as fh:
            fh.write(data[:cut])
        if cut < len(MAGIC):
            with pytest.raises(CacheVersionError):
                CacheStore(p)
            continue
        for new in (False, True):
            with CacheStore(p) as s:
                kept = {k: s.get(k) for k in records if k in s}
                assert kept.items() <= records.items(), cut
                assert len(s) == len(kept) + new, cut
                if new:
                    assert s.get("new") == "v", cut
                else:
                    s.put("new", "v")


@pytest.mark.parametrize("key, payload", [("a\tb", "1"), ("a\nb", "1"), ("a", "1\n2")],
                         ids=["tab-in-key", "newline-in-key", "newline-in-payload"])
def test_put_refuses_what_would_split_a_record(tmp_path, key, payload):
    # read back, a tab in the key or a newline anywhere would split the
    # record; the refusal writes nothing
    path = tmp_path / "ch.txt"
    with CacheStore(str(path)) as store:
        with pytest.raises(ValueError, match="single-line, tab-free"):
            store.put(key, payload)
        assert key not in store
    assert path.read_text() == MAGIC + "\n"


def test_payload_tab_round_trips(tmp_path):
    # the checksum is the last tab-separated field and the key the first,
    # so a tab inside a payload is read back whole
    path = str(tmp_path / "ch.txt")
    with CacheStore(path) as store:
        store.put("k", "a\tb")
    with CacheStore(path) as store:
        assert store.get("k") == "a\tb"


def test_header_written(tmp_path):
    p = str(tmp_path / "c.txt")
    CacheStore(p).close()
    with open(p) as fh:
        assert fh.readline().rstrip("\n") == MAGIC


def test_cold_vs_warm_identical(tmp_path):
    p = str(tmp_path / "ch.txt")
    store = CacheStore(p)
    t1 = CHTable(store=store)
    cold = [severi_degree(P2(4), delta, table=t1) for delta in range(3)]
    t1.flush()
    store.close()

    store2 = CacheStore(p)
    t2 = CHTable(store=store2)
    warm = [severi_degree(P2(4), delta, table=t2) for delta in range(3)]
    assert cold == warm
    # decoded payloads keep integral coefficients as plain ints
    assert all(type(c) is int
               for v in per_delta(t2.memo["sym"]).values() for c in v.terms.values())
    # warm run must be pure lookups: nothing new appended
    size_before = os.path.getsize(p)
    t2.flush()
    assert os.path.getsize(p) == size_before
    store2.close()


def test_key_canonicalization_trailing_zeros(tmp_path):
    p = str(tmp_path / "ch.txt")
    store = CacheStore(p)
    t = CHTable(store=store)
    from refsev.caporaso import relative_degree
    a = relative_degree(Sigma(1, 0, 2), 1, (0, 1, 0, 0), (0, 0, 0), table=t)
    n = len(t.memo["sym"])
    b = relative_degree(Sigma(1, 0, 2), 1, (0, 1), (), table=t)
    assert a == b
    assert len(t.memo["sym"]) == n  # the canonical key was hit, not recomputed
    store.close()


def test_integer_mode_payloads(tmp_path):
    p = str(tmp_path / "ch.txt")
    store = CacheStore(p)
    t = CHTable(store=store)
    v = severi_degree(P2(4), 2, y=-1, table=t)
    t.flush()
    store.close()
    with CacheStore(p) as warm_store:
        t2 = CHTable(store=warm_store)
        assert severi_degree(P2(4), 2, y=-1, table=t2) == v
    # y = 1 payloads: warm values come back as plain ints
    q = str(tmp_path / "ch1.txt")
    store = CacheStore(q)
    t = CHTable(store=store)
    cold = severi_degree(P2(4), 2, y=1, table=t)
    assert cold == 225
    t.flush()
    store.close()
    with CacheStore(q) as warm_store:
        t3 = CHTable(store=warm_store)
        warm = severi_degree(P2(4), 2, y=1, table=t3)
    assert type(warm) is int and warm == cold
    assert t3.memo[1] and all(type(x) is int for x in per_delta(t3.memo[1]).values())


@pytest.mark.parametrize("y, payload", [
    ("1", "garbage"), ("sym", "not json"), ("sym", "[1, 2]"),
    ("sym", '[["1","0",0]]')])
def test_undecodable_record_is_recomputed(tmp_path, capsys, y, payload):
    # a payload the ring cannot decode is a miss: the value is recomputed,
    # appended, and the next warm run reads it and writes nothing
    p = tmp_path / "F"
    args = ["compute", "--surface", "p2", "--d", "4", "--delta", "2", "--y", y,
            "--cache", str(p)]
    key = f"{y}|1|0|4|2||4\t"
    assert main(args) == 0
    clean = capsys.readouterr().out
    lines = p.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(key)]
    assert len(hits) == 1
    good = lines[hits[0]]
    # a record with a valid checksum, so the ring's decoder sees it
    lines[hits[0]] = _record(key[:-1], payload)
    p.write_text("".join(lines))
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == clean and err == ""
    assert p.read_text().endswith(good)
    size = p.stat().st_size
    assert main(args) == 0
    assert capsys.readouterr().out == clean
    assert p.stat().st_size == size
    # the recomputed record is 225 at y = 1
    value = ring_at("sym" if y == "sym" else 1).decode(good.split("\t")[1])
    assert (value.at_one() if y == "sym" else value) == 225


def test_edited_value_is_recomputed_not_served(tmp_path, capsys):
    # a value edited by hand (225 -> 999) fails its checksum: the record is
    # skipped, 225 is recomputed and appended, and the next run reads it
    p = tmp_path / "F"
    args = ["compute", "--surface", "p2", "--d", "4", "--delta", "2", "--y", "1",
            "--cache", str(p)]
    assert main(args) == 0
    clean = capsys.readouterr().out
    text = p.read_text()
    good = next(line for line in text.splitlines(keepends=True)
                if line.startswith("1|1|0|4|2||4\t225\t"))
    p.write_text(text.replace(good, good.replace("\t225\t", "\t999\t")))
    assert main(args) == 0
    assert capsys.readouterr().out == clean
    assert p.read_text().endswith(good)
    size = p.stat().st_size
    assert main(args) == 0
    assert capsys.readouterr().out == clean
    assert p.stat().st_size == size


def test_byte_flip_never_returns_a_wrong_value(tmp_path):
    # every single-byte change of one record, newline included, loses at
    # most that record (or merges it with the next, losing both): no key
    # ever loads with a value it was not given, and the recursion value
    # read through the cache stays 225
    p = tmp_path / "ch.txt"
    with CacheStore(str(p)) as store:
        assert severi_degree(P2(4), 2, y=1, table=CHTable(store=store)) == 225
    data = p.read_bytes()
    records = dict(line.split("\t")[:2] for line in data.decode().splitlines()[1:])
    start = data.index(b"\n1|1|0|4|2||4\t") + 1
    end = data.index(b"\n", start) + 1
    for offset in range(start, end):
        for flip in (0x01, 0x20, 0xff):
            p.write_bytes(data[:offset] + bytes([data[offset] ^ flip])
                          + data[offset + 1:])
            with CacheStore(str(p)) as store:
                kept = {k: store.get(k) for k in records if k in store}
                assert kept.items() <= records.items(), (offset, flip)
                assert len(store) == len(kept) >= len(records) - 2, (offset, flip)
                table = CHTable(store=store)
                assert severi_degree(P2(4), 2, y=1, table=table) == 225


def test_v1_cache_refused(tmp_path, capsys):
    # the unchecksummed v1 format is refused, not read as v2
    p = tmp_path / "F"
    p.write_text("refsev-cache v1\n1|1|0|4|2||4\t225\n")
    assert main(["compute", "--surface", "p2", "--d", "4", "--delta", "2",
                 "--y", "1", "--cache", str(p)]) == 2
    assert "expected 'refsev-cache v2'" in capsys.readouterr().err


@pytest.mark.parametrize("golden, y", [("solve-B-5-sym", []),
                                       ("solve-B-5-ym1", ["--y", "-1"])],
                         ids=["sym", "ym1"])
def test_cache_file_golden(tmp_path, capsys, golden, y):
    # the file a cold solve-B writes, byte for byte: header, the order in
    # which the recursion inserts its states, payloads and checksums
    p = tmp_path / "F"
    assert main(["solve-B", "--order", "5", *y, "--cache", str(p)]) == 0
    capsys.readouterr()
    expected = (Path(__file__).parent / "golden" / f"{golden}.cache").read_bytes()
    assert p.read_bytes() == expected


@pytest.mark.parametrize("y", ["sym", -1], ids=["sym", "ym1"])
def test_scalar_order_cache_read_warm(tmp_path, capsys, y):
    # a cache written one (state, delta) at a time, in the order of the
    # recursion asked for each delta alone, holds every record the rows
    # read: solve-B reads it warm, prints what it prints without a cache
    # and appends nothing
    p = tmp_path / "F"
    args = ["solve-B", "--order", "5", "--y", str(y)]
    with CacheStore(str(p)) as store:
        table = ScalarTable(store=store)
        for bundle in solve_bundles(5, y):
            for delta in range(5):
                severi_degree_scalar(bundle, delta, y, table)
    written = p.read_bytes()
    assert main(args) == 0
    clean = capsys.readouterr().out
    assert main([*args, "--cache", str(p)]) == 0
    assert capsys.readouterr().out == clean
    assert p.read_bytes() == written


def test_walked_cross_engine_cache_read_warm(tmp_path):
    # a cache holding every (state, delta) value of the recursion asked one
    # delta at a time, which is every record a walk that also walks the
    # states asked to delta = 0 alone writes: the cross-engine check reads
    # it warm, reports what it reports without a cache and appends nothing,
    # and a cold cache written now holds a subset of its records, byte for
    # byte
    ranges = {"cmax": 2, "dmax": 3, "mmax": 2, "deltamax": 3}
    walked, cold = tmp_path / "walked", tmp_path / "cold"
    with CacheStore(str(walked)) as store:
        table = ScalarTable(store=store)
        for _, bundle, _ in conjectures._cross_engine(**ranges)[0].cases:
            for delta in range(ranges["deltamax"] + 1):
                severi_degree_scalar(bundle, delta, "sym", table)
    written = walked.read_bytes()
    clean = conjectures.check_conjecture("cross_engine", **ranges)
    with CacheStore(str(walked)) as store:
        warm = conjectures.check_conjecture("cross_engine", CHTable(store=store), **ranges)
    assert walked.read_bytes() == written
    assert (warm.params, warm.instances, warm.notes) == \
        (clean.params, clean.instances, clean.notes)
    assert clean.ok and len(clean.instances) == 108
    with CacheStore(str(cold)) as store:
        conjectures.check_conjecture("cross_engine", CHTable(store=store), **ranges)
    head, *records = written.splitlines(keepends=True)
    cold_head, *cold_records = cold.read_bytes().splitlines(keepends=True)
    assert cold_head == head and set(cold_records) < set(records)
    assert len(cold_records) == len(set(cold_records))
