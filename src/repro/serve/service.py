"""The simulation service: supervision, retries, deadlines, drain.

:class:`SimulationService` is a single asyncio supervisor over the
worker pool: one periodic tick drains worker pipes, checks heartbeats,
sweeps deadlines and dispatches queued jobs.  All state mutation
happens on the event loop; workers only ever see self-contained job
frames, so there is no shared state to corrupt when one dies.

Failure policy in one paragraph: a worker that crashes (SIGKILL,
hard exception) or goes silent past the heartbeat timeout is killed
and respawned; its job retries with the
:class:`repro.faults.FaultConfig` backoff schedule
(``retry_backoff_s * 2**(k-1)``), preferring a different worker, until
``max_retries`` is exhausted — then the job is quarantined as a
``degraded`` terminal state carrying a
:class:`repro.faults.DegradedResult`-shaped ledger entry (the poison-
job circuit breaker: nothing retries forever).  Deadlines reject
queued jobs that expired while waiting, degrade non-preemptible
running jobs, and *preempt* preemptible ones: the worker is killed at
whatever checkpoint boundary it last crossed and the job migrates to
another worker, resuming from its newest epoch snapshot bit-identically.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.core.context import current_context
from repro.errors import ConfigurationError
from repro.obs.live import MetricsRegistry
from repro.serve.chaos import ChaosController
from repro.serve.jobs import (JobRecord, JobResult, JobSpec, JobState,
                              Overloaded, ServicePolicy, next_seq)
from repro.serve.plancache import PlanCache
from repro.serve.pool import SupervisedWorker
from repro.serve.queue import AdmissionQueue
from repro.serve.workloads import serve_config


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class SimulationService:
    """In-process service facade; see the module docstring.

    Args:
        policy: the :class:`ServicePolicy` in force.
        chaos: optional :class:`~repro.serve.chaos.ChaosController` —
            tests only; production passes None and no chaos code runs.
        registry: metrics sink; defaults to the registry of the
            ambient run context's live telemetry when there is one,
            else a private one.
    """

    def __init__(self, policy: ServicePolicy | None = None,
                 chaos: ChaosController | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.policy = policy or ServicePolicy()
        self.chaos = chaos
        if registry is None:
            ctx = current_context()
            live = ctx.live if ctx is not None else None
            registry = live.registry if live is not None else (
                MetricsRegistry())
        self.metrics = registry
        self.config = serve_config()
        self.plan_cache = (PlanCache(self.config)
                           if self.policy.plan_cache else None)
        self.queue = AdmissionQueue(self.policy)
        self.jobs: dict[str, JobRecord] = {}
        self.workers: list[SupervisedWorker] = []
        self._events: dict[str, asyncio.Event] = {}
        self._latencies: dict[str, list[float]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._supervisor: asyncio.Task | None = None
        self._running = False
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn the pool and the supervisor tick."""
        if self._running:
            return
        self._loop = asyncio.get_running_loop()
        now = self._now()
        for index in range(self.policy.workers):
            worker = SupervisedWorker(
                f"serve-worker-{index}",
                self.policy.heartbeat_interval_s)
            worker.spawn(now)
            self.workers.append(worker)
        self._running = True
        self._supervisor = asyncio.create_task(self._supervise())

    async def stop(self) -> None:
        """Hard shutdown: stop supervision, stop every worker."""
        self._running = False
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    async def drain(self) -> dict:
        """Graceful shutdown: close admission, finish in-flight work.

        New submissions get :class:`Overloaded(reason="draining")`
        immediately; queued and running jobs run to a terminal state
        (including their retry/quarantine handling); the call returns
        once the queue is empty and every worker is idle, then stops
        the pool.  Returns the final manifest.
        """
        self._draining = True
        self.queue.drain()
        while self.queue.depth or any(w.busy_job for w in self.workers):
            await asyncio.sleep(self.policy.tick_s)
        manifest = self.stats()
        await self.stop()
        return manifest

    def _now(self) -> float:
        if self._loop is None:
            raise ConfigurationError("service is not started")
        return self._loop.time()

    # -- tenant API -----------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Admit one job or raise :class:`Overloaded`; returns job id."""
        if not self._running:
            raise ConfigurationError("service is not running")
        try:
            record = JobRecord(job_id="", seq=next_seq(), spec=spec,
                               submitted_at=self._now())
            record.job_id = f"job-{record.seq:06d}"
            self.queue.push(record)
        except Overloaded as error:
            self.metrics.inc("neurocube_serve_admission_rejects",
                             reason=error.reason)
            raise
        self.jobs[record.job_id] = record
        self._events[record.job_id] = asyncio.Event()
        self._gauge_depth()
        return record.job_id

    def status(self, job_id: str) -> dict:
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        return record.to_dict()

    async def result(self, job_id: str,
                     timeout_s: float | None = None) -> dict:
        """Wait for a job's terminal state; returns its record dict."""
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not record.terminal:
            waiter = self._events[job_id].wait()
            if timeout_s is not None:
                await asyncio.wait_for(waiter, timeout_s)
            else:
                await waiter
        return record.to_dict()

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False once terminal."""
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        if record.terminal:
            return False
        if self.queue.remove(job_id) is None:
            for worker in self.workers:
                if worker.busy_job == job_id:
                    self._respawn(worker, cause="cancel")
                    break
        self._finish(record, JobState.CANCELLED)
        return True

    # -- supervisor tick ------------------------------------------------

    async def _supervise(self) -> None:
        while self._running:
            self.tick()
            await asyncio.sleep(self.policy.tick_s)

    def tick(self) -> None:
        """One supervision round (public for deterministic tests)."""
        now = self._now()
        self._collect_frames(now)
        self._check_liveness(now)
        self._sweep_deadlines(now)
        self._dispatch(now)
        self._gauge_depth()

    def _collect_frames(self, now: float) -> None:
        for worker in self.workers:
            for frame in worker.drain_frames():
                kind = frame.get("kind")
                if kind == "heartbeat":
                    worker.last_heartbeat = now
                elif kind == "result":
                    self._on_result(worker, frame, now)
                elif kind == "error":
                    self._on_error(worker, frame, now)

    def _on_result(self, worker: SupervisedWorker, frame: dict,
                   now: float) -> None:
        worker.busy_job = None
        worker.last_heartbeat = now
        record = self.jobs.get(frame["job_id"])
        if record is None or record.terminal:
            return
        result = JobResult.from_dict(frame["result"])
        if not result.plan_verified and self.plan_cache is not None:
            self.plan_cache.invalidate(self._workload_key(record.spec))
            self.metrics.inc("neurocube_serve_plan_cache",
                             outcome="stale")
        record.result = result
        self._finish(record, JobState.DONE)

    def _on_error(self, worker: SupervisedWorker, frame: dict,
                  now: float) -> None:
        worker.busy_job = None
        worker.last_heartbeat = now
        record = self.jobs.get(frame["job_id"])
        if record is None or record.terminal:
            return
        self._retry_or_quarantine(record, kind="worker_exception",
                                  detail=frame.get("error", ""), now=now)

    def _check_liveness(self, now: float) -> None:
        for worker in self.workers:
            victim = worker.busy_job
            dead = not worker.alive
            silent = (worker.last_heartbeat
                      + self.policy.heartbeat_timeout_s) < now
            if not dead and not silent:
                continue
            if dead or silent:
                cause = "crash" if dead else "heartbeat_timeout"
                self._respawn(worker, cause=cause)
                if victim is not None:
                    record = self.jobs.get(victim)
                    if record is not None and not record.terminal:
                        self._retry_or_quarantine(
                            record, kind=f"worker_{cause}",
                            detail=f"{worker.name} {cause}", now=now)

    def _respawn(self, worker: SupervisedWorker, cause: str) -> None:
        worker.kill()
        worker.restarts += 1
        worker.spawn(self._now())
        self.metrics.inc("neurocube_serve_worker_restarts", cause=cause)

    def _sweep_deadlines(self, now: float) -> None:
        for record in self.queue.queued():
            deadline = record.spec.deadline_s
            if deadline is None:
                continue
            if record.submitted_at + deadline < now:
                self.queue.remove(record.job_id)
                record.error = "deadline expired while queued"
                record.ledger.append(
                    {"kind": "deadline_queued", "cycle": 0,
                     "detail": record.error})
                self._finish(record, JobState.REJECTED)
        for worker in self.workers:
            if worker.busy_job is None:
                continue
            record = self.jobs.get(worker.busy_job)
            if record is None or record.spec.deadline_s is None:
                continue
            if record.submitted_at + record.spec.deadline_s >= now:
                continue
            if record.spec.preemptible:
                # Preemption/migration: kill at the last checkpoint
                # boundary, clear the deadline (it already fired once)
                # and requeue — dispatch prefers a different worker.
                self._respawn(worker, cause="deadline_preempt")
                record.ledger.append(
                    {"kind": "deadline_preempted", "cycle": 0,
                     "detail": f"preempted on {worker.name}; migrating"})
                record.spec = dataclasses.replace(record.spec,
                                                  deadline_s=None)
                record.state = JobState.PENDING
                record.not_before = now
                self.metrics.inc("neurocube_serve_job_retries")
                self.queue.push(record, force=True)
            else:
                self._respawn(worker, cause="deadline_exceeded")
                record.error = "deadline exceeded while running"
                record.ledger.append(
                    {"kind": "deadline_exceeded", "cycle": 0,
                     "detail": record.error})
                self._finish(record, JobState.DEGRADED)

    def _retry_or_quarantine(self, record: JobRecord, kind: str,
                             detail: str, now: float) -> None:
        record.ledger.append({"kind": kind, "cycle": 0, "detail": detail})
        if record.attempts > self.policy.max_retries:
            # The circuit breaker: repeated failure means the job, not
            # the worker.  Quarantine as degraded, never retry again.
            record.error = (f"quarantined after {record.attempts} "
                            f"attempts: {detail}")
            record.ledger.append(
                {"kind": "poison_quarantined", "cycle": 0,
                 "detail": record.error})
            self._finish(record, JobState.DEGRADED)
            return
        record.not_before = now + self.policy.backoff_s(record.attempts)
        record.state = JobState.PENDING
        self.metrics.inc("neurocube_serve_job_retries")
        self.queue.push(record, force=True)

    def _workload_key(self, spec: JobSpec) -> tuple:
        # Seed and tenant are *data*; the compiled program depends only
        # on the workload's structure.
        return ("serve_convpool", spec.workload)

    def _dispatch(self, now: float) -> None:
        idle = [worker for worker in self.workers if worker.idle]
        while idle:
            record = self.queue.pop(now)
            if record is None:
                return
            # Prefer a worker the job has not failed on (migration).
            worker = next((w for w in idle
                           if w.name not in record.worker_history),
                          idle[0])
            idle.remove(worker)
            self._dispatch_to(worker, record)

    def _dispatch_to(self, worker: SupervisedWorker,
                     record: JobRecord) -> None:
        record.attempts += 1
        record.state = JobState.RUNNING
        record.worker_history.append(worker.name)
        program = plan_hashes = None
        if (self.plan_cache is not None
                and record.spec.workload != "poison"):
            key = self._workload_key(record.spec)
            entry = self.plan_cache.get(key)
            if entry is None:
                from repro.core.compiler import compile_inference
                from repro.serve.workloads import serve_network

                entry = self.plan_cache.put(
                    key, compile_inference(serve_network(self.config),
                                           self.config))
                self.metrics.inc("neurocube_serve_plan_cache",
                                 outcome="miss")
            else:
                self.metrics.inc("neurocube_serve_plan_cache",
                                 outcome="hit")
            program, plan_hashes = entry
        chaos = (self.chaos.plan_for(record.seq, record.attempts)
                 if self.chaos is not None else None)
        frame = {"kind": "job", "job_id": record.job_id,
                 "seq": record.seq, "attempt": record.attempts,
                 "spec": record.spec.to_dict(),
                 "program": program,
                 "plan_hashes": (list(plan_hashes)
                                 if plan_hashes else None),
                 "chaos": chaos,
                 "context": {
                     "checkpoint_dir": self.policy.checkpoint_dir,
                     "memo_dir": self.policy.memo_dir,
                     "checkpoint_label": f"serve.{record.job_id}",
                 }}
        try:
            worker.dispatch(frame)
        except (BrokenPipeError, OSError):
            # Worker died between ticks; liveness will respawn it and
            # retry the job.
            worker.busy_job = record.job_id

    def _finish(self, record: JobRecord, state: str) -> None:
        record.state = state
        record.finished_at = self._now()
        self.metrics.inc("neurocube_serve_jobs", state=state)
        if state in (JobState.DONE, JobState.DEGRADED):
            latency_ms = record.latency_s * 1000.0
            self._latencies.setdefault(record.spec.tenant,
                                       []).append(latency_ms)
            self.metrics.observe("neurocube_serve_job_latency_ms",
                                 max(1, round(latency_ms)),
                                 tenant=record.spec.tenant)
        event = self._events.get(record.job_id)
        if event is not None:
            event.set()

    def _gauge_depth(self) -> None:
        self.metrics.set_gauge("neurocube_serve_queue_depth",
                               self.queue.depth)

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """The service manifest (``ncserve stats``)."""
        states: dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        tenants = {
            tenant: {
                "jobs": len(latencies),
                "p50_ms": round(_percentile(latencies, 0.50), 3),
                "p99_ms": round(_percentile(latencies, 0.99), 3),
            }
            for tenant, latencies in sorted(self._latencies.items())
        }
        return {
            "kind": "neurocube-serve-manifest",
            "running": self._running,
            "draining": self._draining,
            "queue": {"depth": self.queue.depth,
                      "accepted": self.queue.accepted,
                      "rejected": self.queue.rejected,
                      "max_depth": self.policy.max_queue_depth},
            "workers": [{"name": w.name, "alive": w.alive,
                         "busy_job": w.busy_job,
                         "restarts": w.restarts}
                        for w in self.workers],
            "jobs": {"total": len(self.jobs), "by_state": states},
            "tenants": tenants,
            "plan_cache": (self.plan_cache.counters()
                           if self.plan_cache is not None else None),
            "chaos": ({"seed": self.chaos.config.seed,
                       "planned": list(self.chaos.planned)}
                      if self.chaos is not None else None),
            "metrics": self.metrics.snapshot(),
        }
