"""The one content-addressed store under all three layouts.

gc reclaims everything ``size_bytes`` counts — including what a killed
publisher leaves behind in a run cache, a serve store and a fuzz
corpus — and never a live writer's temp directory; ``verify`` checks
every entry's checksums in any store root.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.corpus import Corpus
from repro.perf.cache import RunCache
from repro.perf.cache import main as store_main
from repro.perf.store import Store
from repro.perf.sweep import SweepPoint

SRC = Path(__file__).resolve().parent.parent / "src"
RUN_KEY = "ab" * 32

#: child-process preamble: the publish rename kills the process, so
#: the publisher dies with its entry assembled but never published
KILL_AT_PUBLISH = (
    "import os, sys\n"
    "from repro.perf import store\n"
    "store._rename = lambda src, dst: os._exit(9)\n"
)

#: one killed publish per layout (argv[1] is the store root)
KILLED = {
    "cache": (
        "from repro.perf.cache import RunCache\n"
        "from repro.perf.sweep import SweepPoint\n"
        "c = RunCache(sys.argv[1])\n"
        "p = SweepPoint('tests.test_store:nothing', {'i': 1})\n"
        "c.put(c.key_for(p, 'fp'), p, 'fp', '', [1] * 100, None, 0.5)\n"
    ),
    "serve": (
        f"store.Store(sys.argv[1]).publish({RUN_KEY!r}, "
        "{'report.txt': b'r' * 5000, 'run.json': b'{}'}, {'label': 'fig8'})\n"
    ),
    "corpus": (
        "from repro.fuzz.corpus import Corpus\n"
        "Corpus(sys.argv[1]).add({'seed': 1}, [['crash', 'X']], {'seed': 1})\n"
    ),
}


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def _killed_publish(layout: str, root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", KILL_AT_PUBLISH + KILLED[layout], str(root)],
        env=env, capture_output=True, timeout=120,
    )
    assert out.returncode == 9, out.stderr


def _publish_one(layout: str, root: Path) -> None:
    """One intact entry in the layout, published in-process."""
    if layout == "cache":
        cache = RunCache(root)
        point = SweepPoint("tests.test_store:other", {"i": 2})
        cache.put(cache.key_for(point, "fp"), point, "fp", "", 4, None, 0.1)
    elif layout == "serve":
        Store(root).publish("cd" * 32, {"report.txt": b"table\n"}, {"label": "fig7"})
    else:
        Corpus(root).add({"seed": 2}, [["crash", "Y"]], {"seed": 2})


class TestGcReclaimsWhatStatsCounts:
    @pytest.mark.parametrize("layout", ["cache", "serve", "corpus"])
    def test_killed_publisher_leftover_is_counted_and_collected(
        self, layout, tmp_path, capsys
    ):
        root = tmp_path / layout
        _killed_publish(layout, root)
        _publish_one(layout, root)
        leftovers = [p for p in root.rglob("*.tmp") if p.is_dir()]
        assert leftovers, "the killed publisher left no temp directory"
        store = Store(root)
        # the leftover is invisible to readers...
        assert all(i.key is None for i in store.walk() if i.path in leftovers)
        # ...but counted: every byte under the root is gc-removable
        assert store.size_bytes() == sum(p.stat().st_size for p in _files(root))
        assert store_main(["gc", "--all", "--cache-dir", str(root)]) == 0
        assert "dead-writer leftovers" in capsys.readouterr().out
        assert _files(root) == []
        assert store.size_bytes() == 0

    def test_gc_without_limits_still_removes_dead_leftovers(self, tmp_path):
        _killed_publish("serve", tmp_path)
        _publish_one("serve", tmp_path)
        removed = Store(tmp_path).gc()
        assert [p.name.endswith(".tmp") for p in removed] == [True]
        assert Store(tmp_path).count() == 1

    def test_live_writer_temp_is_neither_counted_nor_collected(self, tmp_path):
        store = Store(tmp_path)
        store.publish(RUN_KEY, {"report.txt": b"x" * 10})
        live = store.path(RUN_KEY).parent / f".{RUN_KEY}.{os.getpid()}.1.1.tmp"
        live.mkdir()
        (live / "report.txt").write_bytes(b"y" * 1000)
        assert store.size_bytes() == sum(
            p.stat().st_size for p in _files(tmp_path) if live not in p.parents
        )
        store.gc(everything=True)
        assert store.count() == 0
        assert _files(tmp_path) == [live / "report.txt"]


class TestVerifyEveryLayout:
    def _flip(self, path: Path) -> None:
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0x01
        path.write_bytes(bytes(blob))

    def test_serve_store_root(self, tmp_path, capsys):
        store = Store(tmp_path)
        store.publish(RUN_KEY, {"report.txt": b"table\n", "run.json": b"{}\n"})
        store.publish("cd" * 32, {"report.txt": b"other\n"})
        assert store_main(["verify", "--cache-dir", str(tmp_path)]) == 0
        self._flip(store.path(RUN_KEY) / "report.txt")
        assert store_main(["verify", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt (of 2 checksummed)" in out
        assert store.keys() == ["cd" * 32]  # the corrupt run was dropped

    def test_corpus_root(self, tmp_path, capsys):
        corpus = Corpus(tmp_path)
        eid, _ = corpus.add({"seed": 3}, [["crash", "Z"]], {"seed": 3})
        assert store_main(["verify", "--cache-dir", str(tmp_path)]) == 0
        self._flip(corpus.store.path(eid) / "scenario.json")
        assert store_main(["verify", "--cache-dir", str(tmp_path)]) == 1
        assert "1 corrupt (of 1 checksummed)" in capsys.readouterr().out
        assert corpus.ids() == []
