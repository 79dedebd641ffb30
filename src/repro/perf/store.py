"""One content-addressed store: a key maps to an entry of named files.

The run cache (:mod:`repro.perf.cache`), the service's completed runs
(:mod:`repro.serve`) and the fuzz corpus (:mod:`repro.fuzz.corpus`) are
layouts on it; each picks its keys, file names and metadata. An entry
is ``<root>/<key[:2]>/<key>/``: its files plus ``manifest.json`` (the
SHA-256 of the manifest body, then the body: key, each file's SHA-256,
metadata, creation time).

**Publish**: an entry is assembled in a temp directory beside its final
place, ``.<key>.<pid>.<thread>.<seq>.tmp``, manifest last, and published
with one rename; a delete renames it to a temp name first. Readers see
a whole entry or none, and a killed writer can only leave a temp
directory whose pid names a dead process, which ``gc`` removes (never a
live writer's). **Corruption**: :meth:`Store.get` checks the manifest
and every file against their SHA-256; a corrupt entry is deleted,
counted ``corrupt`` and reported absent, so the caller recomputes it.

A directory under the root whose name is not two characters long (not
a fan-out) holds a nested store, such as the run cache's ``costs/``; walks,
sizes and ``gc`` cover it. Nothing else under the root is touched.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Iterator, NamedTuple

#: bump to make every existing entry read as corrupt (schema migrations)
STORE_SCHEMA = 1
MANIFEST = "manifest.json"
#: key characters (content keys are hex; readable keys work too)
_KEY_CHARS = frozenset("0123456789abcdefghijklmnopqrstuvwxyz-_")
_seq = itertools.count()


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def descriptor_hash(schema: int, name: str, kwargs: dict) -> str:
    """Identity of one piece of work, independent of the code running it."""
    return _sha(repr((schema, name, sorted(kwargs.items()))).encode())


def content_key(
    schema: int, name: str, kwargs: dict, fingerprint: str, obs_key: str = ""
) -> str:
    """The key of a result: descriptor × code fingerprint × observation
    key (an observed run stores its observations, so it keys apart)."""
    descriptor = descriptor_hash(schema, name, kwargs)
    return _sha(f"{descriptor}\n{fingerprint}\n{obs_key}".encode())


class StoreStats:
    """Hit/miss accounting shared by a store and the layout above it,
    bumped under a lock (one store may serve many job threads)."""

    FIELDS = ("hits", "misses", "stores", "invalidations", "corrupt", "uncacheable")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for f in self.FIELDS:
            setattr(self, f, 0)

    def bump(self, field: str, n: int = 1) -> None:
        if field not in self.FIELDS:
            raise ValueError(f"unknown store stat {field!r}")
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter movement since a :meth:`snapshot` was taken."""
        return {f: getattr(self, f) - before.get(f, 0) for f in self.FIELDS}

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.invalidations} invalidated, {self.corrupt} corrupt), "
            f"{self.stores} stored"
        )


class Entry(NamedTuple):
    key: str
    files: dict[str, bytes]
    meta: dict[str, Any]


class Item(NamedTuple):
    """An entry, or (``key`` None) a dead writer's temp directory."""

    path: Path
    key: str | None
    size: int
    mtime: float


def _is_key(name: str, length: int = 0) -> bool:
    return (len(name) == length if length else len(name) > 2) and set(name) <= _KEY_CHARS


def _tmp_path(parent: str, name: str) -> str:
    return os.path.join(
        parent, f".{name}.{os.getpid()}.{threading.get_ident()}.{next(_seq)}.tmp"
    )


def _rename(src: str, dst: str) -> bool:
    """The store's one publish step: an atomic rename. False when
    ``dst`` is taken or ``src`` gone (another writer got there first)."""
    try:
        os.rename(src, dst)
    except OSError as exc:
        if exc.errno in (errno.EEXIST, errno.ENOTEMPTY, errno.ENOENT):
            return False
        raise
    return True


def _discard(path: str) -> bool:
    """Unpublish ``path`` by renaming it to a temp name this process
    owns, then delete it."""
    tmp = _tmp_path(os.path.dirname(path), os.path.basename(path))
    if not _rename(path, tmp):
        return False
    shutil.rmtree(tmp, ignore_errors=True)
    return True


def _dead_writer(name: str) -> bool:
    """Whether a temp directory's pid names a process that has exited."""
    try:
        pid = int(name.split(".")[-4])
        if pid != os.getpid():
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (IndexError, ValueError, OSError):  # not ours to judge
        return False
    return False


def _item(path: Path, key: str | None) -> Item:
    """Size and age of an entry or leftover (a directory's mtime is when
    its last file was written: an entry's publication time)."""
    try:
        with os.scandir(path) as it:
            size = sum(f.stat(follow_symlinks=False).st_size for f in it)
        return Item(path, key, size, path.stat().st_mtime)
    except OSError:  # deleted under us
        return Item(path, key, 0, 0.0)


class Store:
    """A directory of content-addressed entries."""

    def __init__(self, root: str | Path, stats: StoreStats | None = None) -> None:
        self.root = Path(root)
        self.stats = stats if stats is not None else StoreStats()

    def path(self, key: str) -> Path:
        return Path(self._dir(key))

    def _dir(self, key: str) -> str:
        # plain strings: pathlib joins showed up in profiles of cache hits
        if not _is_key(key):
            raise ValueError(f"bad store key {key!r}")
        return os.path.join(self.root, key[:2], key)

    def publish(
        self, key: str, files: dict[str, bytes], meta: dict | None = None,
        replace: bool = False,
    ) -> bool:
        """Publish ``files`` and JSON ``meta`` as the entry ``key``.
        False if the entry exists — writers of one key write the same
        content, so the first wins — unless ``replace`` swaps it."""
        for name in files:
            if name == MANIFEST or "/" in name or name.startswith("."):
                raise ValueError(f"bad entry file name {name!r}")
        dst = self._dir(key)
        if not replace and os.path.isdir(dst):
            return False
        body = json.dumps({
            "schema": STORE_SCHEMA, "key": key, "meta": meta or {},
            "files": {name: _sha(blob) for name, blob in files.items()},
            "created": time.time(),
        }, indent=1, sort_keys=True).encode()
        tmp = _tmp_path(os.path.dirname(dst), key)
        os.makedirs(tmp)
        published = False
        try:
            manifest = _sha(body).encode() + b"\n" + body
            for name, blob in [*files.items(), (MANIFEST, manifest)]:
                with open(os.path.join(tmp, name), "wb") as f:
                    f.write(blob)
            published = _rename(tmp, dst)
            if not published and replace:
                _discard(dst)
                published = _rename(tmp, dst)
            return published
        finally:
            if not published:
                shutil.rmtree(tmp, ignore_errors=True)

    def delete(self, key: str) -> bool:
        return _discard(self._dir(key))

    @staticmethod
    def _read(key: str, fd: int) -> Entry | None:
        """The entry whose directory is open at ``fd`` if every check
        passes, else None; raises FileNotFoundError if a file is gone."""
        def read(name: str) -> bytes:
            opener = lambda n, flags: os.open(n, flags, dir_fd=fd)  # noqa: E731
            with open(name, "rb", opener=opener) as f:
                return f.read()

        digest, _, body = read(MANIFEST).partition(b"\n")
        try:
            doc = json.loads(body)
            names = list(doc["files"].items())
            ok = (_sha(body).encode() == digest and doc["key"] == key
                  and doc["schema"] == STORE_SCHEMA)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
        files = {name: read(name) for name, _ in names}
        ok = ok and all(_sha(files[name]) == want for name, want in names)
        return Entry(key, files, doc.get("meta") or {}) if ok else None

    def get(self, key: str) -> Entry | None:
        """The checked entry, or None if absent. A corrupt entry is
        deleted, counted and reported absent."""
        path = self._dir(key)
        for _ in range(3):
            try:
                fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
            except FileNotFoundError:
                return None
            try:
                # every file is read through the one directory opened,
                # so a concurrent delete cannot mix two entries' files
                entry = self._read(key, fd)
            except FileNotFoundError:
                # damage if the directory is still the entry; else a
                # delete moved it away under us: look again
                try:
                    moved = not os.path.samestat(os.fstat(fd), os.stat(path))
                except FileNotFoundError:
                    moved = True
                if moved:
                    continue
                entry = None
            finally:
                os.close(fd)
            if entry is None:
                self.stats.bump("corrupt")
                self.delete(key)
            return entry
        return None

    # -- maintenance ---------------------------------------------------
    def _dirs(self) -> list[Path]:
        try:
            return sorted(d for d in self.root.iterdir() if d.is_dir())
        except OSError:
            return []

    def _own(self) -> Iterator[Item]:
        for fan in self._dirs():
            if not _is_key(fan.name, 2):
                continue
            for d in sorted(d for d in fan.iterdir() if d.is_dir()):
                if d.name.endswith(".tmp"):
                    if _dead_writer(d.name):  # a live writer's is not ours
                        yield _item(d, None)
                elif d.name.startswith(fan.name) and _is_key(d.name):
                    yield _item(d, d.name)

    def walk(self) -> Iterator[Item]:
        """Every entry and dead writer's leftover, nested stores too."""
        yield from self._own()
        for d in self._dirs():
            if len(d.name) != 2 and not d.name.startswith("."):
                yield from Store(d, self.stats)._own()

    def keys(self) -> list[str]:
        """Keys of this store's own published entries (not nested ones')."""
        return [i.key for i in self._own() if i.key and (i.path / MANIFEST).is_file()]

    def count(self) -> int:
        return len(self.keys())

    def size_bytes(self) -> int:
        """Bytes under the root that :meth:`gc` can remove."""
        return sum(item.size for item in self.walk())

    def check(self) -> dict[Path, Entry | None]:
        """Every entry, nested stores too, read through :meth:`get`
        (None for a corrupt one, now deleted)."""
        return {
            item.path: Store(item.path.parent.parent, self.stats).get(item.key)
            for item in self.walk() if item.key is not None
        }

    def gc(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        everything: bool = False,
    ) -> list[Path]:
        """Delete dead writers' leftovers, then entries older than
        ``max_age_days``, then the oldest entries until the rest fit
        ``max_bytes`` (``everything``: all entries). Returns the paths
        removed."""
        items = list(self.walk())
        doomed = [item for item in items if item.key is None]
        entries = sorted((i for i in items if i.key is not None), key=lambda i: i.mtime)
        cutoff = -1.0 if max_age_days is None else time.time() - max_age_days * 86400.0
        budget = -1 if everything else max_bytes
        total = sum(item.size for item in entries)
        for item in entries:
            if item.mtime < cutoff or (budget is not None and total > budget):
                doomed.append(item)
                total -= item.size
        return [item.path for item in doomed if _discard(str(item.path))]
