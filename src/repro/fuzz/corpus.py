"""Content-addressed reproducer corpus: a layout on the one store.

Every failure a campaign confirms becomes one *bundle*: an entry of
:class:`repro.perf.store.Store` keyed by a 16-hex digest of the
minimized scenario plus its oracle signature, so a bug found by fifty
seeds files one bundle. It holds everything a human (or the regression
suite) needs to replay the bug without the generator::

    <corpus>/<id[:2]>/<id>/
        scenario.json   minimized scenario (canonical JSON)
        original.json   the scenario as generated, pre-minimization
        finding.json    seed, gen version, signature, verdicts, sizes
        result.json     canonical result of running scenario.json
        run.json        run manifest of an observed replay
        trace.json      Perfetto trace of the same replay
        manifest.json   the store's checksums

The store publishes a bundle with one rename and checks it on load, so
a killed campaign never leaves a half-written bundle for replay to trip
over. ``tests/test_fuzz.py`` replays every bundle under
``tests/corpus/`` (committed regressions) plus ``$REPRO_FUZZ_CORPUS``
(a local campaign corpus) and asserts the signature still reproduces.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterator

from repro.perf.store import Store

CORPUS_DIR_ENV = "REPRO_FUZZ_CORPUS"


def canonical(doc: Any) -> str:
    """Canonical JSON: the byte identity used everywhere in fuzzing."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def entry_id(scenario: dict, signature: list[list[str]]) -> str:
    """Content address of one reproducer: minimized scenario × oracle
    signature. 16 hex chars is plenty at corpus scale."""
    payload = canonical(scenario) + "\n" + canonical(signature)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Corpus:
    """A store of reproducer bundles."""

    def __init__(self, root: str | Path) -> None:
        self.store = Store(root)
        self.root = self.store.root

    def add(
        self,
        scenario: dict,
        signature: list[list[str]],
        finding: dict,
        extra: dict[str, bytes] | None = None,
    ) -> tuple[str, bool]:
        """Publish one bundle; returns ``(id, created)`` where
        ``created`` is False when the bundle already existed (dedupe).

        ``finding`` is stored as finding.json (the id and signature are
        stamped in); ``extra`` maps further artifact names to bytes
        (original.json, result.json, run.json, trace.json)."""
        eid = entry_id(scenario, signature)
        extra = extra or {}
        if {"scenario.json", "finding.json"} & set(extra):
            raise ValueError("extra bundle artifacts may not replace scenario/finding")
        files = {
            **extra,
            "scenario.json": canonical(scenario).encode() + b"\n",
            "finding.json": json.dumps(
                {"id": eid, "signature": signature, **finding},
                indent=1, sort_keys=True,
            ).encode() + b"\n",
        }
        label = "/".join(signature[0]) if signature else "clean"
        return eid, self.store.publish(eid, files, {"label": label})

    def ids(self) -> list[str]:
        return self.store.keys()

    def load(self, eid: str) -> dict:
        """One bundle's scenario + finding (raises on a broken entry)."""
        entry = self.store.get(eid)
        if entry is None:
            raise KeyError(f"no intact bundle {eid!r} under {self.root}")
        return {
            "id": eid,
            "scenario": json.loads(entry.files["scenario.json"]),
            "finding": json.loads(entry.files["finding.json"]),
        }

    def entries(self) -> Iterator[dict]:
        for eid in self.ids():
            yield self.load(eid)


def replay_corpora(paths: list[str | Path]) -> list[tuple[str, dict]]:
    """Every bundle from every existing corpus directory, as
    ``(label, bundle)`` pairs — the pytest parametrization source."""
    out: list[tuple[str, dict]] = []
    for path in paths:
        corpus = Corpus(path)
        for bundle in corpus.entries():
            out.append((f"{Path(path).name}:{bundle['id']}", bundle))
    return out


def reproducer_artifacts(scenario: dict) -> dict[str, bytes]:
    """run.json + trace.json + result.json for one scenario: replay it
    under a tracing observation session and export the standard
    artifacts, so a bundle opens in Perfetto like any service run."""
    from repro.check import CheckReport
    from repro.fuzz.scenario import run_scenario
    from repro.obs.export import build_perfetto, build_run_manifest
    from repro.obs.session import ObsConfig, session

    with session(ObsConfig(trace=True)) as s:
        result = run_scenario(scenario)
        if result.get("check") and s.check is None:
            # the scenario attaches its own CheckerSet rather than
            # going through the session config, so hand the report to
            # the session — data() then surfaces the per-checker
            # check.findings metric rows and the manifest's check
            # section exactly like a served experiment run
            s.check = CheckReport.from_dict(result["check"])
        data = s.data()
    manifest = build_run_manifest(
        experiment="fuzz.reproducer",
        params={"seed": scenario.get("seed"), "gen": scenario.get("gen")},
        timings={
            "wall_seconds": 0.0,
            "machines": len(data["records"]),
            "simulated_cycles": sum(r["cycles"] for r in data["records"]),
        },
        metrics=data["metrics"],
        cycle_attribution=data["cycle_attribution"],
        **({"check": data["check"]} if data.get("check") is not None else {}),
    )
    return {
        "result.json": canonical(result).encode() + b"\n",
        "run.json": _dump(manifest),
        "trace.json": _dump(build_perfetto(data["records"])),
    }


def _dump(doc: Any) -> bytes:
    return json.dumps(doc, indent=1, default=str).encode() + b"\n"
