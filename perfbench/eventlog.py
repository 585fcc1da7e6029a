"""Spark event-log reader for the benchmark's traced run.

The traced run starts its own session with ``spark.eventLog.enabled`` and
``spark.eventLog.compress=false`` (Spark 4 compresses with zstd by
default), so the log is plain JSON lines. Jobs are classified by the
call-site *verb* (``first``, ``count``, ``collect``, ``localCheckpoint``)
of the SQL execution that ran them, or else of their result stage:
Python line numbers in call sites move between commits and checkpoint
stages report ``<unknown>:0``, but the verb before `` at `` is stable.
Adaptive execution runs shuffle stages as jobs of their own whose stage
names carry no verb, hence the lookup through the execution id.
"""
from __future__ import annotations

import json
from pathlib import Path

VERBS = ("first", "count", "collect", "localCheckpoint")


def _verb(stage_name: str) -> str:
    v = stage_name.split(" at ", 1)[0].strip()
    return v if v in VERBS else "other"


def read_jobs(event_dir: Path) -> list[dict]:
    """Every job of every log under ``event_dir``, with its tasks' metrics.

    Times are seconds since the epoch, comparable with ``time.time()``.
    """
    jobs: dict[int, dict] = {}
    stage_job: dict[int, int] = {}
    exec_verb: dict[str, str] = {}
    logs = [p for p in Path(event_dir).rglob("*")
            if p.is_file() and not p.name.startswith((".", "appstatus"))]
    for path in sorted(logs):
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind.endswith("SparkListenerSQLExecutionStart"):
                    exec_verb[str(ev["executionId"])] = _verb(ev.get("description", ""))
                elif kind == "SparkListenerJobStart":
                    infos = ev.get("Stage Infos", [])
                    result = max(infos, key=lambda s: s["Stage ID"]) if infos else None
                    job = {
                        "id": ev["Job ID"],
                        "start": ev["Submission Time"] / 1000.0,
                        "end": None,
                        "exec": (ev.get("Properties") or {}).get("spark.sql.execution.id"),
                        "verb": _verb(result["Stage Name"]) if result else "other",
                        "stages": set(),
                        "tasks": 0,
                        "failed_tasks": 0,
                        "task_run_s": 0.0,
                        "task_cpu_s": 0.0,
                        "gc_s": 0.0,
                        "shuffle_write_bytes": 0,
                        "shuffle_read_records": 0,
                        "succeeded": None,
                    }
                    jobs[job["id"]] = job
                    for sid in ev.get("Stage IDs", []):
                        stage_job[sid] = job["id"]
                elif kind == "SparkListenerJobEnd":
                    job = jobs.get(ev["Job ID"])
                    if job is not None:
                        job["end"] = ev["Completion Time"] / 1000.0
                        job["succeeded"] = (
                            ev.get("Job Result", {}).get("Result") == "JobSucceeded"
                        )
                elif kind == "SparkListenerTaskEnd":
                    job = jobs.get(stage_job.get(ev["Stage ID"], -1))
                    if job is None:
                        continue
                    job["stages"].add(ev["Stage ID"])
                    job["tasks"] += 1
                    reason = ev.get("Task End Reason", {}).get("Reason")
                    if reason != "Success" or ev.get("Task Info", {}).get("Failed"):
                        job["failed_tasks"] += 1
                    tm = ev.get("Task Metrics") or {}
                    job["task_run_s"] += tm.get("Executor Run Time", 0) / 1e3
                    job["task_cpu_s"] += tm.get("Executor CPU Time", 0) / 1e9
                    job["gc_s"] += tm.get("JVM GC Time", 0) / 1e3
                    sw = tm.get("Shuffle Write Metrics") or {}
                    job["shuffle_write_bytes"] += sw.get("Shuffle Bytes Written", 0)
                    sr = tm.get("Shuffle Read Metrics") or {}
                    job["shuffle_read_records"] += sr.get("Total Records Read", 0)
    for job in jobs.values():
        if exec_verb.get(job["exec"], "other") != "other":
            job["verb"] = exec_verb[job["exec"]]
    return sorted(jobs.values(), key=lambda j: j["id"])


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize_jobs(jobs: list[dict], t0: float, t1: float) -> dict:
    """Counts and times of the jobs submitted inside ``[t0, t1]``.

    ``jobs`` and ``shuffle_read_records`` are exact; ``tasks`` and
    ``stages`` vary between identical runs (skipped stages), so they are
    reported, not compared.
    """
    sel = [j for j in jobs if t0 <= j["start"] <= t1 and j["end"] is not None]
    out: dict[str, float] = {"jobs": len(sel)}
    for v in VERBS + ("other",):
        of = [j for j in sel if j["verb"] == v]
        out[f"jobs.{v}"] = len(of)
        out[f"job_s.{v}"] = sum(j["end"] - j["start"] for j in of)
    out["job_busy_s"] = _union_seconds([(j["start"], j["end"]) for j in sel])
    for k in ("shuffle_write_bytes", "shuffle_read_records", "task_run_s",
              "task_cpu_s", "gc_s", "tasks", "failed_tasks"):
        out[k] = sum(j[k] for j in sel)
    out["stages"] = sum(len(j["stages"]) for j in sel)
    out["failed_jobs"] = sum(1 for j in sel if not j["succeeded"])
    return out
