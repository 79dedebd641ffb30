"""Turning a job spec into an experiment run and its artifact set.

A *spec* is the plain-JSON description a client submits::

    {
      "experiment": "fig8",          # required, one of ALL_EXPERIMENTS
      "quick": true,                 # start from the CLI's --quick args
      "nodes": 16,                   # machine-size override (where legal)
      "params": {"block_sizes": [64, 256]},   # driver kwargs
      "trace": false,                # capture a Perfetto trace artifact
      "sample_interval": 0,          # time-series sampling period
      "check": ["race", "deadlock"]  # dynamic checkers to attach
    }

Resolution is strict — unknown experiments, unknown parameter names,
and malformed values are rejected at submission time (HTTP 400), not
discovered by a failed job. Lists arriving from JSON are normalized
to tuples so a spec resolves to exactly the kwargs a direct
``repro.cli`` invocation would produce, and so the run key below is
canonical.

The **run key** is the store's content key
(:func:`repro.perf.store.content_key`) — the one recipe the run cache
uses too — over the experiment id and kwargs, the experiment module's
code fingerprint, and ``repr(ObsConfig)``. Identical submissions from
any number of clients therefore collapse onto one key; editing any
code the experiment can reach changes the fingerprint and honestly
re-runs. Execution happens under the shared
:class:`~repro.perf.cache.RunCache` (activated on the worker's
thread), so even two *different* jobs overlapping in sweep points
share point-level results.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Any, Callable

from repro.serve.orchestrator import JobCancelled

#: bump when the spec → kwargs resolution or artifact set changes
#: incompatibly (orphans every stored run)
EXECUTOR_SCHEMA = 1

_SPEC_KEYS = {
    "experiment", "quick", "nodes", "params", "trace", "sample_interval",
    "check", "partitions",
}

#: legal keys inside a {"fuzz": {...}} spec, with bounds-checked types
_FUZZ_KEYS = {
    "seeds": int, "base_seed": int, "budget": (int, float),
    "inject_bug": bool, "minimize": bool,
}


def _normalize(value: Any) -> Any:
    """JSON params → canonical kwargs (lists become tuples, recursively),
    matching the tuple-valued parameterizations the CLI uses."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class ExperimentExecutor:
    """Resolve specs to keys and execute them into artifact sets."""

    def __init__(self, cache: Any = None, jobs: int = 1) -> None:
        #: shared RunCache (or None) activated per executing thread
        self.cache = cache
        #: sweep-level worker-pool width handed to experiment drivers
        self.jobs = max(1, int(jobs))

    # -- spec resolution ----------------------------------------------
    def resolve(self, spec: dict) -> tuple[str, dict[str, Any], Any]:
        """Validate ``spec`` → (experiment id, driver kwargs, ObsConfig).

        Raises ValueError on anything malformed."""
        from repro.cli import NODES_KW, QUICK_ARGS
        from repro.experiments import ALL_EXPERIMENTS
        from repro.obs.session import ObsConfig

        if not isinstance(spec, dict):
            raise ValueError("job spec must be a JSON object")
        if "fuzz" in spec:
            raise ValueError("fuzz specs resolve via resolve_fuzz")
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        exp_id = spec.get("experiment")
        if exp_id not in ALL_EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {exp_id!r}; "
                f"one of {sorted(ALL_EXPERIMENTS)}"
            )
        fn = ALL_EXPERIMENTS[exp_id]
        kwargs: dict[str, Any] = dict(QUICK_ARGS[exp_id]) if spec.get("quick") else {}
        params = spec.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("spec 'params' must be an object")
        legal = set(inspect.signature(fn).parameters) - {"jobs"}
        bad = set(params) - legal
        if bad:
            raise ValueError(
                f"experiment {exp_id!r} has no parameters {sorted(bad)}; "
                f"legal: {sorted(legal)}"
            )
        kwargs.update({k: _normalize(v) for k, v in params.items()})
        nodes = spec.get("nodes")
        if nodes is not None:
            kw = NODES_KW.get(exp_id)
            if kw is None:
                raise ValueError(
                    f"experiment {exp_id!r} does not take a node count"
                )
            kwargs[kw] = int(nodes)
        sample_interval = int(spec.get("sample_interval") or 0)
        if sample_interval < 0:
            raise ValueError("'sample_interval' must be >= 0")
        checks: tuple[str, ...] = ()
        if spec.get("check"):
            from repro.check import validate_checks

            checks = validate_checks(spec["check"])
        if "partitions" in params:
            raise ValueError(
                "'partitions' is a top-level spec key, not a param"
            )
        if spec.get("partitions") is not None:
            from repro.perf.partition import validate_partitions

            if "partitions" not in inspect.signature(fn).parameters:
                raise ValueError(
                    f"experiment {exp_id!r} does not support 'partitions'"
                )
            if checks:
                raise ValueError(
                    "'partitions' cannot be combined with 'check' "
                    "(dynamic checkers need a global view)"
                )
            nkw = NODES_KW.get(exp_id)
            if nkw:
                default_n = inspect.signature(fn).parameters[nkw].default
                n_plan = int(kwargs.get(nkw, default_n))
            else:
                n_plan = 64
            kwargs["partitions"] = validate_partitions(
                spec["partitions"], n_plan
            )
        obs_cfg = ObsConfig(
            sample_interval=sample_interval,
            trace=bool(spec.get("trace")),
            check=checks,
        )
        return exp_id, kwargs, obs_cfg

    def resolve_fuzz(self, spec: dict) -> dict[str, Any]:
        """Validate a ``{"fuzz": {...}}`` spec → campaign kwargs."""
        body = spec.get("fuzz")
        if not isinstance(body, dict):
            raise ValueError("spec 'fuzz' must be an object")
        extra_top = set(spec) - {"fuzz"}
        if extra_top:
            raise ValueError(
                f"fuzz spec takes no other top-level keys: {sorted(extra_top)}"
            )
        unknown = set(body) - set(_FUZZ_KEYS)
        if unknown:
            raise ValueError(f"unknown fuzz keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for key, typ in _FUZZ_KEYS.items():
            if key not in body:
                continue
            value = body[key]
            if isinstance(value, bool) and typ is not bool:
                raise ValueError(f"fuzz {key!r} must be a number")
            if not isinstance(value, typ):
                raise ValueError(f"fuzz {key!r} has the wrong type")
            kwargs[key] = value
        if kwargs.get("seeds", 1) < 1:
            raise ValueError("fuzz 'seeds' must be >= 1")
        if kwargs.get("budget", 1) <= 0:
            raise ValueError("fuzz 'budget' must be > 0")
        return kwargs

    # -- keying --------------------------------------------------------
    def key_for(self, spec: dict) -> str:
        """The run key: descriptor × code fingerprint × obs key."""
        from repro.perf.cache import code_fingerprint
        from repro.perf.store import content_key

        if isinstance(spec, dict) and "fuzz" in spec:
            return content_key(
                EXECUTOR_SCHEMA, "fuzz", self.resolve_fuzz(spec),
                code_fingerprint("repro.fuzz.campaign"),
            )

        from repro.experiments import ALL_EXPERIMENTS

        exp_id, kwargs, obs_cfg = self.resolve(spec)
        # 'partitions' is an execution strategy, not an input: a
        # partitioned run produces the same results/artifacts as the
        # serial run of the same spec (gated by the cycle-identity
        # tests), so both dedupe onto one store entry.
        kwargs.pop("partitions", None)
        return content_key(
            EXECUTOR_SCHEMA, exp_id, kwargs,
            code_fingerprint(ALL_EXPERIMENTS[exp_id].__module__), repr(obs_cfg),
        )

    # -- execution -----------------------------------------------------
    def execute(
        self, spec: dict,
        should_cancel: Callable[[], bool] = lambda: False,
        progress: Callable[[dict], None] | None = None,
        job_info: dict | None = None,
    ) -> tuple[dict, dict[str, bytes]]:
        """Run the experiment and build its artifacts; returns
        ``(meta, artifacts)``, published to the store by the orchestrator.

        ``progress`` (when given) receives aggregated sweep progress
        dicts — ``{"done", "total", "cache_hits", "point"}`` — once
        per completed sweep point, on this thread. The same per-point
        hook doubles as the cooperative cancellation probe, so a
        cancel interrupts between sweep points, not just between
        phases. ``job_info`` carries the service-side correlation
        context (trace id, submission timestamps) stamped into the
        Perfetto trace artifact as host-side spans.
        """
        from repro.experiments import ALL_EXPERIMENTS
        from repro.obs.export import build_perfetto, build_run_manifest
        from repro.obs.session import session as obs_session
        from repro.perf import progress as perf_progress
        from repro.perf.cache import activate, code_fingerprint

        if "fuzz" in spec:
            return self._execute_fuzz(spec, should_cancel, progress)

        exp_id, kwargs, obs_cfg = self.resolve(spec)
        fn = ALL_EXPERIMENTS[exp_id]
        if should_cancel():
            raise JobCancelled()
        run_kwargs = dict(kwargs)
        if "jobs" in inspect.signature(fn).parameters:
            run_kwargs["jobs"] = self.jobs

        # host-side sweep observer: aggregates per-sweep events into
        # job-level progress, records per-point wall times for the
        # trace's host spans, and probes cancellation between points
        tally = {"done": 0, "total": 0, "cache_hits": 0}
        point_log: list[dict[str, Any]] = []

        def on_sweep_event(event: dict) -> None:
            if event["event"] == "sweep_start":
                tally["total"] += event["points"]
            elif event["event"] == "point":
                tally["done"] += 1
                if event.get("cached"):
                    tally["cache_hits"] += 1
                point_log.append({
                    "label": event.get("label", ""),
                    "mono": time.monotonic(),
                    "cached": bool(event.get("cached")),
                })
            elif event["event"] == "partition_window":
                # per-shard progress from a partitioned run: stream it
                # through the same SSE channel (and cancellation probe)
                # without advancing the point tally
                if should_cancel():
                    raise JobCancelled()
                if progress is not None:
                    progress({
                        **tally,
                        "point": f"window {event['windows']} "
                                 f"(shards {event['shards']}, "
                                 f"cycle {event['min_now']})",
                        "partition": {
                            "windows": event["windows"],
                            "shards": event["shards"],
                            "min_now": event["min_now"],
                            "max_now": event["max_now"],
                        },
                    })
                return
            if should_cancel():
                raise JobCancelled()
            if progress is not None:
                progress({**tally, "point": event.get("label")})

        t0 = time.time()
        t0_mono = time.monotonic()
        with activate(self.cache):
            cache_before = (
                self.cache.stats.snapshot() if self.cache is not None else None
            )
            with obs_session(obs_cfg) as s, perf_progress.activate(
                on_sweep_event
            ):
                result = fn(**run_kwargs)
                data = s.data()
        wall = time.time() - t0
        if should_cancel():
            raise JobCancelled()

        params = _jsonable(kwargs)
        timings = {
            "wall_seconds": round(wall, 3),
            "machines": len(data["records"]),
            "simulated_cycles": sum(r["cycles"] for r in data["records"]),
        }
        extra: dict[str, Any] = {}
        if data.get("check") is not None:
            extra["check"] = data["check"]
        if data.get("cache") is not None:
            extra["cache"] = data["cache"]
        manifest = build_run_manifest(
            experiment=exp_id,
            params=params,
            timings=timings,
            metrics=data["metrics"],
            cycle_attribution=data["cycle_attribution"],
            samples=[r["samples"] for r in data["records"] if "samples" in r],
            **extra,
        )
        table = {
            "exp_id": result.exp_id,
            "title": result.title,
            "columns": result.columns,
            "rows": result.rows,
            "notes": result.notes,
        }
        artifacts = {
            "report.txt": (result.format_table() + "\n").encode(),
            "table.json": _dump(table),
            "run.json": _dump(manifest),
        }
        if obs_cfg.trace:
            host_events = _host_trace_events(
                exp_id, job_info, t0_mono, time.monotonic(), point_log
            )
            artifacts["trace.json"] = _dump(build_perfetto(
                data["records"],
                host_events=host_events,
                trace_id=(job_info or {}).get("trace_id"),
            ))
        meta = {
            "experiment": exp_id,
            "params": params,
            "wall_seconds": timings["wall_seconds"],
            "fingerprint": code_fingerprint(fn.__module__),
            "obs_key": repr(obs_cfg),
            "trace_id": (job_info or {}).get("trace_id"),
            "cache": (
                self.cache.stats.delta(cache_before)
                if cache_before is not None
                else None
            ),
        }
        return meta, artifacts

    def _execute_fuzz(
        self, spec: dict,
        should_cancel: Callable[[], bool],
        progress: Callable[[dict], None] | None,
    ) -> tuple[dict, dict[str, bytes]]:
        """Run a fuzzing campaign as a daemon job. Campaign progress
        events fold into the job's SSE progress (seeds done / findings
        so far); the campaign runs with caching disabled (its own
        default) and ``jobs`` from the executor, and its report lands
        as campaign.json / findings.json / report.txt artifacts."""
        from repro.fuzz.campaign import (
            CampaignConfig,
            dump_report,
            format_report,
            run_campaign,
        )
        from repro.perf.cache import code_fingerprint

        kwargs = self.resolve_fuzz(spec)
        cfg = CampaignConfig(jobs=self.jobs, corpus_dir=None,
                             bundle_artifacts=False, **kwargs)

        def on_fuzz_event(event: dict) -> None:
            if should_cancel():
                raise JobCancelled()
            if progress is not None:
                progress({
                    "done": event["done"], "total": event["total"],
                    "findings": event["findings"],
                    "point": f"fuzz:{event['phase']}",
                })

        t0 = time.time()
        report = run_campaign(
            cfg, progress=on_fuzz_event, should_cancel=should_cancel
        )
        if should_cancel():
            raise JobCancelled()
        meta = {
            "experiment": "fuzz",
            "params": kwargs,
            "wall_seconds": round(time.time() - t0, 3),
            "fingerprint": code_fingerprint("repro.fuzz.campaign"),
            "obs_key": "",
            "findings": len(report["findings"]),
        }
        artifacts = {
            "report.txt": (format_report(report) + "\n").encode(),
            "campaign.json": dump_report(report),
            "findings.json": _dump(report["findings"]),
        }
        return meta, artifacts


def _host_trace_events(
    exp_id: str,
    job_info: dict | None,
    t0_mono: float,
    t1_mono: float,
    point_log: list[dict[str, Any]],
) -> list[dict]:
    """Host-side spans for the job's Perfetto trace: the daemon's
    queued wait, the executor's run, and one span per sweep point
    (bounded by consecutive parent-side completion times).

    Timestamps are microseconds of *wall time since submission* on the
    dedicated host process track; the sim-side tracks stay in
    simulated cycles. One trace.json then shows daemon → orchestrator
    → executor → sim-engine attribution in a single Perfetto load,
    correlated by the trace id stamped on every host event.
    """
    from repro.obs.export import host_span_events

    info = job_info or {}
    base = info.get("submitted_mono", t0_mono)

    def us(mono: float) -> int:
        return max(0, int((mono - base) * 1e6))

    spans: list[dict[str, Any]] = []
    started_mono = info.get("started_mono")
    if started_mono is not None:
        spans.append({
            "name": "job.queued", "tid": 0,
            "ts0": us(base), "ts1": us(started_mono),
        })
    spans.append({
        "name": f"job.execute:{exp_id}", "tid": 1,
        "ts0": us(t0_mono), "ts1": us(t1_mono),
    })
    prev = t0_mono
    for point in point_log:
        spans.append({
            "name": point["label"] or "point", "tid": 2,
            "ts0": us(prev), "ts1": us(point["mono"]),
            "args": {"cached": point["cached"]},
        })
        prev = point["mono"]
    return host_span_events(spans, trace_id=info.get("trace_id"))


def _dump(doc: Any) -> bytes:
    return json.dumps(doc, indent=1, default=str).encode() + b"\n"
