"""Append-only persistent store for recursion values.

Format: a text file whose first line is a version header, followed by one
record per line: "key<TAB>payload<TAB>crc", crc the CRC-32 of
"key<TAB>payload" in eight hex digits. Records are only ever appended; a
torn final record (interrupted write) is detected on open and truncated
away, a header missing its newline gets it back, and a complete record that
is malformed or fails its checksum is skipped, leaving the records after
it, so its value is recomputed and appended. Of two records with one key
the later wins, so a value recomputed after a forget replaces the old
record. A version mismatch is refused, never migrated silently.
"""
from __future__ import annotations

import os
import zlib

MAGIC = "refsev-cache v2"


def _crc(record: str) -> str:
    return f"{zlib.crc32(record.encode()):08x}"


class CacheVersionError(RuntimeError):
    pass


class CacheStore:
    def __init__(self, path: str):
        self.path = path
        self._data: dict = {}
        self._fh = None
        self.created = False  # whether this store made the file
        self._open()

    def _open(self):
        if not os.path.exists(self.path):
            with open(self.path, "w") as fh:
                fh.write(MAGIC + "\n")
            self.created = True
            self._fh = open(self.path, "a")
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        if not data:
            raise CacheVersionError(f"cache {self.path} is an empty file, not a refsev cache")
        header, sep, body = data.partition(b"\n")
        if header != MAGIC.encode():
            raise CacheVersionError(f"cache {self.path} has header "
                                    f"{header.decode('utf-8', 'replace')!r}, "
                                    f"expected {MAGIC!r}")
        if not sep:
            # a write torn just after the header: restore its newline, or
            # the next record would extend the header line
            with open(self.path, "ab") as fh:
                fh.write(b"\n")
        records = body.split(b"\n")
        # every record but the last ended in a newline; a malformed one or
        # one failing its checksum is dropped, and a nonempty last one is a
        # torn write, cut from the file
        for raw in records[:-1]:
            try:
                record, _, crc = raw.decode("utf-8").rpartition("\t")
            except UnicodeDecodeError:
                continue
            key, sep, payload = record.partition("\t")
            if sep and key and crc == _crc(record):
                self._data[key] = payload
        if records[-1]:
            with open(self.path, "r+b") as fh:
                fh.truncate(len(data) - len(records[-1]))
        self._fh = open(self.path, "a")

    def __len__(self):
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str):
        return self._data.get(key)

    def forget(self, key: str):
        """Drop a loaded record, so that the next put of key appends."""
        self._data.pop(key, None)

    def put(self, key: str, payload: str):
        if "\t" in key or "\n" in key or "\n" in payload:
            raise ValueError("keys and payloads must be single-line, tab-free")
        if key in self._data:
            return
        self._data[key] = payload
        record = f"{key}\t{payload}"
        self._fh.write(f"{record}\t{_crc(record)}\n")

    def flush(self):
        if self._fh:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self):
        if self._fh:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
