"""Content-addressed run cache for deterministic sweep points.

A sweep point is a pure function of its descriptor (the ``fn`` spec
plus plain-data kwargs, seeds included), so its result can only go
stale when the *code* changes. The cache is a layout on the one store
(:mod:`repro.perf.store`): a point's key is the store's content key over
its descriptor, the **code fingerprint** of its module (SHA-256 over the
source of every ``repro`` module it transitively imports: a static
``ast`` walk memoized by mtime/size, so editing a module re-runs exactly
the points that could reach it) and the **observation key** (``repr()``
of the active :class:`~repro.obs.session.ObsConfig`, empty when
unobserved: observed runs also cache their observation payload). The
entry holds ``result.pkl``, checksummed and re-run if corrupt. Cost
records live in the nested store ``costs/``, keyed *without* the
fingerprint, so after a code edit misses still run longest-cost-first
and a miss whose cost record exists counts as an *invalidation*.

Maintenance tool, for any store root (run cache, serve store, corpus)::

    python -m repro.perf.cache stats   [--cache-dir D]
    python -m repro.perf.cache gc      [--max-age-days N] [--max-bytes B] [--all]
    python -m repro.perf.cache verify  [--sample N] [--seed S] [--fix]
    python -m repro.perf.cache fingerprint        # repo-wide, for CI cache keys
    python -m repro.perf.cache bench   [--min-speedup X] [--jobs N]

``verify`` checks every entry's checksums, then re-runs sampled points
from scratch and compares the pickled results bit-for-bit.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import os
import pickle
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.perf.store import Store, StoreStats, content_key, descriptor_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.sweep import SweepPoint

#: bump to orphan every existing entry (schema migrations)
CACHE_SCHEMA = 1
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"
#: the one file of a run-cache entry: pickled result + observation payload
PAYLOAD = "result.pkl"
_PICKLE_PROTO = 4


# ----------------------------------------------------------------------
# Code fingerprinting: static import closure over the repro package
# ----------------------------------------------------------------------
_PATHS: dict[str, str | None] = {}
_SRC_HASH: dict[str, tuple[tuple[int, int], str]] = {}
_IMPORTS: dict[str, tuple[tuple[int, int], frozenset[str]]] = {}


def _module_path(modname: str) -> str | None:
    """Source file of ``modname`` (None for builtins / missing)."""
    if modname in _PATHS:
        return _PATHS[modname]
    try:
        spec = importlib.util.find_spec(modname)
    except (ImportError, ValueError):
        spec = None
    origin = spec.origin if spec is not None else None
    path = origin if origin and origin.endswith(".py") else None
    _PATHS[modname] = path
    return path


def _stat_key(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return (st.st_mtime_ns, st.st_size)


def _source_hash(path: str) -> str:
    """SHA-256 of a source file, memoized by (mtime_ns, size)."""
    key = _stat_key(path)
    cached = _SRC_HASH.get(path)
    if cached is not None and cached[0] == key:
        return cached[1]
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    _SRC_HASH[path] = (key, digest)
    return digest


def _with_ancestors(modname: str) -> list[str]:
    parts = modname.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _imports_of(modname: str, path: str) -> frozenset[str]:
    """``repro.*`` modules statically imported by one source file."""
    key = _stat_key(path)
    cached = _IMPORTS.get(path)
    if cached is not None and cached[0] == key:
        return cached[1]
    out: set[str] = set()
    try:
        tree = ast.parse(Path(path).read_text())
    except SyntaxError:
        tree = ast.Module(body=[], type_ignores=[])
    is_pkg = os.path.basename(path) == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    out.update(_with_ancestors(alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                pkg_parts = modname.split(".") if is_pkg else modname.split(".")[:-1]
                if node.level > 1:
                    pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(pkg_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if base.split(".")[0] != "repro":
                continue
            out.update(_with_ancestors(base))
            # `from repro.perf import sweep` names a submodule, not an attr
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                if _module_path(candidate) is not None:
                    out.add(candidate)
    found = frozenset(out)
    _IMPORTS[path] = (key, found)
    return found


def import_closure(modname: str) -> dict[str, str]:
    """The point module plus its transitive ``repro`` imports, as
    ``{module: source-path}`` (unresolvable modules are skipped)."""
    seen: dict[str, str] = {}
    stack = [modname]
    while stack:
        mod = stack.pop()
        if mod in seen:
            continue
        path = _module_path(mod)
        if path is None:
            continue
        seen[mod] = path
        for dep in _imports_of(mod, path):
            if dep not in seen:
                stack.append(dep)
    return seen


def code_fingerprint(modname: str) -> str:
    """Fingerprint of ``modname`` and everything it could reach inside
    the ``repro`` package; changes iff any of that source changes."""
    closure = import_closure(modname)
    if not closure:
        return f"unresolved:{modname}"
    h = hashlib.sha256()
    for mod in sorted(closure):
        h.update(f"{mod}={_source_hash(closure[mod])}\n".encode())
    return h.hexdigest()


def repo_fingerprint() -> str:
    """Fingerprint over *every* ``repro`` source file — the coarse key
    CI uses for ``actions/cache`` (any code change → new cache key)."""
    import repro

    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(f"{path.relative_to(root)}={_source_hash(str(path))}\n".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# The cache proper: a layout on the store
# ----------------------------------------------------------------------
CacheStats = StoreStats


class RunCache:
    """Content-addressed on-disk store of sweep-point results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)
        self.stats = CacheStats()
        self.store = Store(self.root, self.stats)
        self.costs = Store(self.root / "costs", self.stats)

    def _cost_key(self, point: "SweepPoint") -> str:
        return descriptor_hash(CACHE_SCHEMA, point.fn, point.kwargs)

    def key_for(self, point: "SweepPoint", fingerprint: str, obs_key: str = "") -> str:
        return content_key(CACHE_SCHEMA, point.fn, point.kwargs, fingerprint, obs_key)

    def get(self, key: str, point: "SweepPoint") -> dict[str, Any] | None:
        corrupt = self.stats.corrupt
        entry = self.store.get(key)
        if entry is not None:
            try:
                payload = pickle.loads(entry.files[PAYLOAD])
            except Exception:  # intact bytes this code cannot unpickle
                self.stats.bump("corrupt")
                self.store.delete(key)
            else:
                self.stats.bump("hits")
                return payload
        self.stats.bump("misses")
        if self.stats.corrupt == corrupt and self.costs.path(self._cost_key(point)).is_dir():
            # cached before under another key: the code (or the
            # observation config) changed underneath it
            self.stats.bump("invalidations")
        return None

    def put(
        self,
        key: str,
        point: "SweepPoint",
        fingerprint: str,
        obs_key: str,
        result: Any,
        obs: dict | None,
        cost: float,
    ) -> None:
        payload = {"fn": point.fn, "kwargs": dict(point.kwargs),
                   "result": result, "obs": obs}
        try:
            blob = pickle.dumps(payload, protocol=_PICKLE_PROTO)
        except Exception:
            self.stats.bump("uncacheable")
            return
        meta = {"label": point.fn, "fingerprint": fingerprint, "cost": cost}
        self.store.publish(key, {PAYLOAD: blob}, meta)
        self.stats.bump("stores")
        self.costs.publish(self._cost_key(point), {}, meta, replace=True)

    def recorded_cost(self, point: "SweepPoint") -> float | None:
        """Last measured wall cost of this point under *any* code
        version (drives longest-cost-first scheduling of misses)."""
        entry = self.costs.get(self._cost_key(point))
        return None if entry is None else float(entry.meta["cost"])


def verify(store: Store, sample: int = 5, seed: int = 0, fix: bool = False) -> dict[str, int]:
    """Check every entry's checksums (a corrupt one is deleted), then
    re-run a random sample of run-cache points from scratch and compare
    bit-for-bit. A point whose fingerprint no longer matches the code
    is *stale* and skipped; a mismatch fails (and ``fix`` deletes it)."""
    import random

    from repro.perf.sweep import SweepPoint, run_point

    checked = store.check()
    report = {"entries": len(checked), "checked": 0, "ok": 0, "mismatched": 0,
              "stale": 0, "corrupt": sum(e is None for e in checked.values())}
    points = [e for e in checked.values() if e is not None and PAYLOAD in e.files]
    for entry in random.Random(seed).sample(points, min(sample, len(points))):
        payload = pickle.loads(entry.files[PAYLOAD])
        if entry.meta["fingerprint"] != code_fingerprint(payload["fn"].partition(":")[0]):
            report["stale"] += 1
            continue
        report["checked"] += 1
        with activate(None):  # never satisfy a verify from the cache
            fresh = run_point(SweepPoint(payload["fn"], payload["kwargs"]))
        if pickle.dumps(fresh, _PICKLE_PROTO) == pickle.dumps(payload["result"], _PICKLE_PROTO):
            report["ok"] += 1
        else:
            report["mismatched"] += 1
            if fix:
                store.delete(entry.key)
    return report


# ----------------------------------------------------------------------
# The active cache (mirrors repro.obs.session.current). Thread-local:
# each repro.serve job worker activates the *shared* RunCache on its
# own thread without clobbering the activation of any other thread —
# the cache object itself is safe to share (locked stats, atomic
# publishes), only the "is a cache active here" switch is per-thread.
# ----------------------------------------------------------------------
_TLS = threading.local()


def current() -> RunCache | None:
    """The active cache, if any (consulted by ``SweepRunner.map``)."""
    return getattr(_TLS, "cache", None)


@contextmanager
def activate(cache: RunCache | None) -> Iterator[RunCache | None]:
    """Make ``cache`` the calling thread's run cache for the block
    (``None`` disables caching, shadowing any outer cache)."""
    prev = getattr(_TLS, "cache", None)
    _TLS.cache = cache
    try:
        yield cache
    finally:
        _TLS.cache = prev


# ----------------------------------------------------------------------
# python -m repro.perf.cache
# ----------------------------------------------------------------------
def _cmd_stats(store: Store, args: argparse.Namespace) -> int:
    checked = store.check()
    sizes = {item.path: item.size for item in store.walk()}
    for root in sorted({str(p.parent.parent) for p in checked} | {str(store.root)}):
        mine = {p: e for p, e in checked.items() if str(p.parent.parent) == root}
        size = sum(sizes.get(p, 0) for p in mine)
        corrupt = sum(e is None for e in mine.values())
        print(f"store dir: {root}")
        print(f"entries:   {len(mine)} ({size:,} bytes, {corrupt} corrupt)")
        labels = Counter(e.meta.get("label", "?") for e in mine.values() if e)
        for label, count in labels.most_common():
            print(f"  {count:>5}  {label}")
    print(f"total:     {store.size_bytes():,} bytes, all removable by gc")
    return 0


def _cmd_gc(store: Store, args: argparse.Namespace) -> int:
    removed = store.gc(args.max_age_days, args.max_bytes, args.all)
    roots = Counter(str(p.parent.parent) for p in removed if p.name[0] != ".")
    for root, n in sorted(roots.items()) or [(store.root, 0)]:
        print(f"removed {n} entries from {root}")
    print(f"removed {len(removed) - sum(roots.values())} dead-writer leftovers")
    return 0


def _cmd_verify(store: Store, args: argparse.Namespace) -> int:
    report = verify(store, sample=args.sample, seed=args.seed, fix=args.fix)
    print(
        f"verified {report['checked']} sampled entries: {report['ok']} ok, "
        f"{report['mismatched']} mismatched, {report['stale']} stale (skipped), "
        f"{report['corrupt']} corrupt (of {report['entries']} checksummed)"
    )
    if report["corrupt"]:
        print("FAIL: corrupt entries found (deleted)")
    if report["mismatched"]:
        print("FAIL: cache holds entries that do not reproduce"
              + (" (deleted)" if args.fix else " (re-run with --fix to drop them)"))
    return 1 if report["mismatched"] + report["corrupt"] else 0


def _cmd_bench(cache: RunCache, args: argparse.Namespace) -> int:
    """Run the quick experiment sweep twice under the cache and gate on
    the warm-run speedup (CI uses this after restoring the cache)."""
    from repro.cli import QUICK_ARGS
    from repro.experiments import ALL_EXPERIMENTS

    def run_all() -> tuple[float, str]:
        t0 = time.perf_counter()
        tables = [
            ALL_EXPERIMENTS[e](jobs=args.jobs, **QUICK_ARGS[e]).format_table()
            for e in ALL_EXPERIMENTS
        ]
        return time.perf_counter() - t0, "\n".join(tables)

    with activate(cache):
        before = cache.stats.snapshot()
        first_wall, first_tables = run_all()
        first = cache.stats.delta(before)
        second_wall, second_tables = run_all()
    speedup = first_wall / max(second_wall, 1e-9)
    first_points = first["hits"] + first["misses"]
    first_warm = first["hits"] / first_points if first_points else 0.0
    print(f"first sweep:  {first_wall:.2f}s ({first['hits']} hits / "
          f"{first['misses']} misses)")
    print(f"second sweep: {second_wall:.2f}s ({speedup:.1f}x)")
    if first_tables != second_tables:
        print("FAIL: warm tables are not byte-identical to the first run")
        return 1
    # a restored CI cache can make the *first* run warm already — the
    # speedup gate only applies to a genuinely cold first sweep
    if first_warm >= 0.5:
        print(f"first sweep was already {first_warm:.0%} warm "
              "(restored cache); speedup gate skipped")
        return 0
    if speedup < args.min_speedup:
        print(f"FAIL: warm sweep only {speedup:.1f}x faster "
              f"(gate: >= {args.min_speedup}x)")
        return 1
    print(f"OK: tables byte-identical, warm speedup {speedup:.1f}x "
          f">= {args.min_speedup}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="store root: a run cache, serve store or fuzz corpus "
                        f"(default: ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR!r})")
    ap = argparse.ArgumentParser(
        prog="python -m repro.perf.cache",
        description="Inspect and maintain a content-addressed store.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("stats", parents=[common], help="entries, bytes, per-label counts")
    gcp = sub.add_parser("gc", parents=[common], help="delete by age / byte budget")
    gcp.add_argument("--max-age-days", type=float, default=None)
    gcp.add_argument("--max-bytes", type=int, default=None)
    gcp.add_argument("--all", action="store_true", help="wipe every entry")
    vp = sub.add_parser("verify", parents=[common],
                        help="check every checksum, re-run sampled points")
    vp.add_argument("--sample", type=int, default=5)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--fix", action="store_true", help="delete mismatched points")
    sub.add_parser("fingerprint", parents=[common],
                   help="print the repo-wide code fingerprint (CI cache key)")
    bp = sub.add_parser("bench", parents=[common],
                        help="quick sweep twice; gate warm speedup")
    bp.add_argument("--min-speedup", type=float, default=5.0)
    bp.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    if args.cmd == "fingerprint":
        print(repo_fingerprint())
        return 0
    cache = RunCache(args.cache_dir)
    if args.cmd == "bench":
        return _cmd_bench(cache, args)
    commands = {"stats": _cmd_stats, "gc": _cmd_gc, "verify": _cmd_verify}
    return commands[args.cmd](cache.store, args)


if __name__ == "__main__":  # pragma: no cover
    # `python -m` runs this file as a second module object, `__main__`,
    # whose activate() SweepRunner would never see: use the canonical one
    from repro.perf.cache import main as _canonical_main

    sys.exit(_canonical_main())
