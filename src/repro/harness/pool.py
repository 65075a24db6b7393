"""Parallel sweep executor: a work-stealing fork pool over grid points.

One simulated run uses one core; this module spreads *sweeps* over
all of them. A sweep (or figure) is enumerated into self-describing
point specs — ``fn(seed=..., **params)`` with a grid index — and
:func:`map_points` dispatches them:

* **Work-stealing dispatch.** The parent hands one grid index at a time
  to whichever worker process is idle, over that worker's own task
  pipe, so skewed point costs never serialize the tail behind a static
  partition. Finished points come back on one shared result queue,
  which the parent multiplexes with every worker's ``Process.sentinel``
  so a dead worker is seen the moment it exits.
* **Fail fast, requeue once.** Every point is a deterministic
  simulation: a point that raises would raise again, so it fails the
  sweep at once with its traceback, serial or parallel. Only something
  outside the program (the OOM killer, a stray ``kill``) can make a
  second attempt succeed, so a worker that dies holding a point has
  that point put back at the front of the queue and is replaced by a
  fresh fork. If the same point's worker dies a second time, the sweep
  fails naming the point.
* **Deterministic merge.** Results (metric values *and* per-run
  observability snapshots) are shipped back and merged strictly by grid
  index, so the aggregated :class:`~repro.harness.sweep.SweepResult`
  and the ``repro.run-metrics`` artifact are identical to a serial run,
  a recovered worker death included (see
  :func:`repro.harness.artifact.canonical_metrics_bytes`).
* **Content-addressed caching and a crash-consistent journal.** With a
  cache directory configured, every completed point is persisted under
  its :func:`~repro.harness.cache.point_key`; with a journal path
  configured, every completed point is also appended — fsync'd — to an
  append-only JSONL journal (:mod:`repro.harness.journal`). Whatever
  stops a sweep (a failed point, a parent crash, a drain), the points
  resolved before it are kept, and ``resume`` continues from there.
* **Graceful drain.** With ``drain_signals`` on, SIGINT/SIGTERM stop
  new dispatch, let in-flight points finish (journaled and cached),
  and raise :class:`SweepInterrupted` — the CLI maps that to exit
  code 3.
* **Seed hygiene.** Every executor (the serial path and each worker
  process) scrambles the ambient global RNGs (``random``,
  ``numpy.random``) before running points, with a *different* token per
  worker. A point function that leaks dependence on ambient global
  state therefore diverges between ``--parallel 1`` and ``--parallel
  8`` and trips the byte-identity tests — results must derive only
  from the point spec's seed.

The executor reads everything ambient from one frame of the
:mod:`repro.options` stack: the :class:`~repro.options.RunOptions`
every point runs under (folded into each point's cache key and the
journal header), the :class:`~repro.obs.ObsSession` collecting run
snapshots, and the :class:`PoolContext` itself (:func:`pool_session`).
Processes are forked lazily per :func:`map_points` call, so workers
inherit that frame; fork is also what lets arbitrary in-process
callables (closures, partials) run in workers without pickling. On
platforms without ``fork`` the executor degrades to the serial path.
"""

from __future__ import annotations

import multiprocessing
import random
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import HarnessError
from repro.harness.cache import ResultCache, point_key
from repro.options import RunOptions, ambient, overlay

#: Scramble bases for the ambient-RNG guard (arbitrary, fixed).
_GUARD_SEED = 0x5EED_CA5E

#: How long the parent waits for workers to exit after their sentinel.
_JOIN_GRACE_S = 5.0


class SweepInterrupted(HarnessError):
    """A sweep stopped early — point budget exhausted or drain signal.

    Completed points were already persisted to the cache and journal, so
    re-invoking the same sweep with the same cache directory resumes
    where it stopped (``repro sweep --resume``).
    """

    def __init__(
        self, executed: int, remaining: int, reason: str = "budget"
    ) -> None:
        what = (
            "drained after a termination signal"
            if reason == "signal"
            else "interrupted after exhausting its point budget"
        )
        super().__init__(
            f"sweep {what}: {executed} executed point(s), "
            f"{remaining} point(s) remain — re-run with the same cache "
            f"directory to resume"
        )
        self.executed = executed
        self.remaining = remaining
        self.reason = reason


@dataclass(frozen=True)
class PointSpec:
    """One self-describing grid point of a sweep."""

    index: int
    params: Mapping[str, Any]
    seed: int
    #: Content-address of the point (None when caching is off).
    key: Optional[str] = None


@dataclass
class PointOutcome:
    """The merged result of one point, in grid-index order."""

    spec: PointSpec
    value: Any
    #: Per-run observability snapshots produced by this point.
    records: List[dict] = field(default_factory=list)
    cache_hit: bool = False
    #: Executor id: 0 = the parent (serial path), 1..N = pool workers.
    worker: int = 0
    wall_s: float = 0.0
    #: Where the result came from: ``exec``, ``cache`` or ``journal``.
    source: str = "exec"


@dataclass
class PoolConfig:
    """How a pool session executes points."""

    #: Number of worker processes; <=1 runs points in-process.
    parallel: int = 1
    #: Cache directory; ``None`` disables persistence entirely.
    cache_dir: Optional[Path] = None
    #: Read previously cached points (turned off by ``--fresh``).
    cache_read: bool = True
    #: Execute at most this many points (cache hits are free), then
    #: raise :class:`SweepInterrupted` — the resumability test hook.
    max_executions: Optional[int] = None
    #: Append-only JSONL journal of completed points (crash recovery).
    journal: Optional[Path] = None
    #: Replay matching journal entries before executing anything.
    resume: bool = False
    #: Handle SIGINT/SIGTERM as a graceful drain: finish in-flight
    #: points, flush the journal, raise SweepInterrupted.
    drain_signals: bool = False


class PoolContext:
    """Ambient state for one sweep/figure invocation."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.cache: Optional[ResultCache] = (
            ResultCache(config.cache_dir) if config.cache_dir is not None else None
        )
        #: Per-point provenance dicts, in completion-merge order.
        self.provenance: List[dict] = []
        self.executed = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def budget_remaining(self) -> Optional[int]:
        if self.config.max_executions is None:
            return None
        return max(0, self.config.max_executions - self.executed)

    def record(self, tag: str, outcome: PointOutcome) -> None:
        self.provenance.append(
            {
                "index": outcome.spec.index,
                "tag": tag,
                "params": dict(outcome.spec.params),
                "seed": outcome.spec.seed,
                "key": outcome.spec.key,
                "cache_hit": outcome.cache_hit,
                "worker": outcome.worker,
                "wall_s": outcome.wall_s,
                "source": outcome.source,
            }
        )
        if outcome.cache_hit:
            self.cache_hits += 1
        else:
            self.executed += 1

    def provenance_payload(self) -> Optional[dict]:
        """The artifact's provenance block (None when nothing ran)."""
        if not self.provenance:
            return None
        from repro.harness.metrics import pool_summary

        return {
            "parallel": self.config.parallel,
            "cache_dir": (
                str(self.config.cache_dir)
                if self.config.cache_dir is not None
                else None
            ),
            "points": list(self.provenance),
            "summary": pool_summary(self.provenance),
        }


@contextmanager
def pool_session(config: Optional[PoolConfig] = None):
    """Install a :class:`PoolContext` as the ambient executor.

    An overlay onto the :mod:`repro.options` stack: sessions nest and
    the innermost wins.
    """
    ctx = PoolContext(config if config is not None else PoolConfig())
    with overlay(pool=ctx):
        yield ctx


@contextmanager
def harness_session(
    options: Optional[RunOptions], config: PoolConfig, collect: bool
):
    """The ambient frame of one harness invocation (figure or sweep).

    Installs ``options`` (``None`` keeps the ambient ones), a fresh
    :class:`PoolContext` over ``config`` and, when an artifact is to be
    written (``collect``), an :class:`~repro.obs.ObsSession` collecting
    one snapshot per run. Yields ``(session, pool context, options)``;
    ``session`` is ``None`` when nothing is collected here.
    """
    from repro.obs import ObsConfig, ObsSession

    if options is None:
        options = ambient().options
    session = ObsSession(options.obs or ObsConfig()) if collect else None
    ctx = PoolContext(config)
    with overlay(options=options, pool=ctx), session or nullcontext():
        yield session, ctx, options


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------
def _scramble_ambient_rng(token: int) -> None:
    """Deterministically perturb the global RNGs, per executor.

    Point results must be functions of the point spec alone. Serial and
    parallel executors scramble to *different* states, so any point
    function secretly reading ambient global randomness produces
    diverging sweeps and fails the parallel-vs-serial identity tests
    instead of silently passing.
    """
    random.seed(_GUARD_SEED ^ token)
    try:
        import numpy as np

        np.random.seed((_GUARD_SEED ^ token) % (2**32))
    except ImportError:  # pragma: no cover
        pass


def _fn_tag(fn: Callable[..., Any]) -> Optional[str]:
    """A stable cache tag for ``fn``, or None when there isn't one."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


def _execute_point(
    fn: Callable[..., Any], spec: PointSpec, collect_obs: bool
):
    """Run one point, capturing its obs records and wall time.

    Inside an active :class:`~repro.obs.ObsSession` the point's runs
    report there naturally and the new tail of ``records`` is the
    capture; otherwise (when records are still needed, e.g. to populate
    a cache entry) the point runs under its own private session.
    """
    from repro.obs import ObsConfig, ObsSession

    frame = ambient()
    session = frame.session
    own: Optional[ObsSession] = None
    if collect_obs and session is None:
        own = ObsSession(frame.options.obs or ObsConfig())
        own.__enter__()
        session = own
    try:
        before = len(session.records) if session is not None else 0
        t0 = time.perf_counter()
        value = fn(seed=spec.seed, **spec.params)
        wall = time.perf_counter() - t0
        records = session.records[before:] if session is not None else []
    finally:
        if own is not None:
            own.__exit__(None, None, None)
    return value, records, wall


def _worker_main(worker_id, fn, specs, collect_obs, conn, resq, stale_conns):
    """Serve assigned point indices from ``conn`` until a None sentinel.

    Each finished point puts one ``(slot, worker_id, value, records,
    wall, err)`` tuple on ``resq``; ``err`` is the traceback of a point
    that raised, or of a result that could not be shipped, and None
    otherwise.

    SIGINT is ignored so a terminal Ctrl-C drains through the parent
    instead of killing in-flight points mid-simulation. SIGTERM gets
    its default action back: the parent's drain handler, inherited
    through fork, only sets a flag no worker reads.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Close inherited parent-side task pipe ends (this worker's own and
    # its siblings') so that EOF detection — orphan self-termination
    # after a parent SIGKILL — is not held open by this process.
    for other in stale_conns:
        other.close()
    _scramble_ambient_rng(worker_id)
    while True:
        try:
            slot = conn.recv()
        except EOFError:
            return  # parent is gone; nothing left to serve
        if slot is None:
            return
        try:
            value, records, wall = _execute_point(fn, specs[slot], collect_obs)
            resq.put((slot, worker_id, value, records, wall, None))
        except Exception:
            resq.put((slot, worker_id, None, [], 0.0, traceback.format_exc()))


class _WorkerHandle:
    """Parent-side state for one live worker process."""

    __slots__ = ("proc", "conn", "slot")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: Grid slot currently assigned, or None when idle.
        self.slot: Optional[int] = None


class _ForkPool:
    """Dispatch grid slots across forked workers until each resolves.

    The loop waits on the shared result queue and every worker's
    ``Process.sentinel``. A result resolves its slot, or fails the
    sweep when it carries a traceback. A worker that dies holding a
    slot gets that slot put back at the front of the queue once; a
    replacement is forked whenever slots wait.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        specs: Sequence[PointSpec],
        todo: Sequence[int],
        nworkers: int,
        collect_obs: bool,
        on_done: Callable[[int, PointOutcome], None],
        drain_state: Dict[str, bool],
    ) -> None:
        self.fn = fn
        self.specs = specs
        self.nworkers = nworkers
        self.collect_obs = collect_obs
        self.on_done = on_done
        self.drain_state = drain_state

        self.mp = multiprocessing.get_context("fork")
        self.resq = self.mp.SimpleQueue()
        self.workers: Dict[int, _WorkerHandle] = {}
        self.next_wid = 1
        self.ready = deque(todo)
        self.unresolved = set(todo)
        #: Slots already requeued once after their worker died.
        self.requeued: set = set()
        self.draining = False

    def run(self) -> None:
        """Resolve every slot, or stop early on a drain signal."""
        for _ in range(self.nworkers):
            self._spawn()
        try:
            self._loop()
        finally:
            self._shutdown()

    def _spawn(self) -> None:
        wid = self.next_wid
        self.next_wid += 1
        parent_conn, child_conn = self.mp.Pipe()
        # The child closes its inherited copies of every parent-side task
        # pipe end, its own included: otherwise its conn.recv() never
        # sees EOF once the parent dies.
        stale = [h.conn for h in self.workers.values()] + [parent_conn]
        proc = self.mp.Process(
            target=_worker_main,
            args=(wid, self.fn, self.specs, self.collect_obs, child_conn,
                  self.resq, stale),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.workers[wid] = _WorkerHandle(proc, parent_conn)

    def _check_drain(self) -> bool:
        """Stop dispatching once a drain is requested; in-flight points
        run to completion."""
        if self.drain_state["requested"] and not self.draining:
            self.draining = True
            self.ready.clear()
        return self.draining

    def _loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while self.unresolved:
            if self._check_drain() and not any(
                h.slot is not None for h in self.workers.values()
            ):
                return
            self._dispatch()
            waitables = [self.resq._reader]
            waitables.extend(h.proc.sentinel for h in self.workers.values())
            try:
                conn_wait(waitables)
            except OSError:  # pragma: no cover - fd race on worker exit
                pass
            self._drain_resq()
            self._reap_dead()

    def _shutdown(self) -> None:
        deadline = time.monotonic() + _JOIN_GRACE_S
        for handle in self.workers.values():
            if handle.proc.is_alive():
                try:
                    handle.conn.send(None)
                except (OSError, ValueError):
                    pass
        for handle in self.workers.values():
            handle.proc.join(max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join()
            handle.conn.close()

    def _dispatch(self) -> None:
        for handle in self.workers.values():
            if not self.ready:
                return
            if handle.slot is not None or not handle.proc.is_alive():
                continue
            slot = self.ready.popleft()
            try:
                handle.conn.send(slot)
            except (OSError, ValueError):
                # Worker raced us to death; its sentinel will be reaped.
                self.ready.appendleft(slot)
                continue
            handle.slot = slot

    def _drain_resq(self) -> None:
        while not self.resq.empty():
            slot, wid, value, records, wall, err = self.resq.get()
            handle = self.workers.get(wid)
            if handle is not None and handle.slot == slot:
                handle.slot = None
            if slot not in self.unresolved:
                continue  # a requeued slot finished twice
            if err is not None:
                raise HarnessError(f"sweep point failed in worker:\n{err}")
            self.unresolved.discard(slot)
            self.on_done(
                slot,
                PointOutcome(
                    spec=self.specs[slot],
                    value=value,
                    records=records,
                    worker=wid,
                    wall_s=wall,
                ),
            )

    def _reap_dead(self) -> None:
        for wid, handle in list(self.workers.items()):
            if handle.proc.is_alive():
                continue
            del self.workers[wid]
            handle.conn.close()
            slot = handle.slot
            if slot in self.unresolved and not self._check_drain():
                if slot in self.requeued:
                    spec = self.specs[slot]
                    raise HarnessError(
                        f"sweep point {slot} (params {dict(spec.params)}, "
                        f"seed {spec.seed}) lost its worker twice: worker "
                        f"{wid} died mid-point (exit code "
                        f"{handle.proc.exitcode})"
                    )
                self.requeued.add(slot)
                self.ready.appendleft(slot)
            if self.ready:
                self._spawn()


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover
        return False


# ----------------------------------------------------------------------
# Drain-signal plumbing
# ----------------------------------------------------------------------
@contextmanager
def _drain_handler(enabled: bool):
    """Install SIGINT/SIGTERM handlers that request a graceful drain.

    Yields the shared state dict the fork pool (and the serial loop)
    polls. Handlers are only installed from the main thread; elsewhere
    the state simply never triggers.
    """
    state: Dict[str, bool] = {"requested": False}
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield state
        return

    def _request(signum, frame):  # pragma: no cover - exercised via CLI
        state["requested"] = True

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        yield state
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# The executor front door
# ----------------------------------------------------------------------
def map_points(
    fn: Callable[..., Any],
    grid: Sequence[Mapping[str, Any]],
    *,
    tag: Optional[str] = None,
    seeds: Sequence[int] = (0,),
    pool: Optional[PoolContext] = None,
) -> List[PointOutcome]:
    """Evaluate ``fn(seed=s, **params)`` for every (params, seed) point.

    Points are enumerated in grid-major order (all seeds of a cell are
    adjacent) and the returned outcomes are in that exact order no
    matter how execution was scheduled. Uses the ambient pool context
    (serial, cache off) when none is active or passed.

    When the context carries a cache, hits are replayed (value + obs
    records) without executing, and completed points are persisted as
    they finish — which is what makes interrupted sweeps resumable.
    When it carries a journal, completed points are additionally
    fsync'd to an append-only JSONL file that ``resume`` replays,
    covering the cases the cache cannot (cacheless sweeps, a parent
    killed between completions). Both need a stable ``tag``.
    """
    frame = ambient()
    ctx = pool or frame.pool or PoolContext(PoolConfig())
    cache = ctx.cache
    config = ctx.config
    resolved_tag = tag or _fn_tag(fn)
    if resolved_tag is None:
        if cache is not None or config.journal is not None:
            raise HarnessError(
                "result caching and the sweep journal need a stable point "
                "tag: pass tag=... when the metric fn is a lambda, a "
                "closure or a partial"
            )
        resolved_tag = repr(fn)

    # Observability records are captured per point whenever the caller
    # is collecting them (active ObsSession) or the cache or journal
    # needs them to make entries replayable.
    parent_session = frame.session
    collect_obs = (
        parent_session is not None
        or cache is not None
        or config.journal is not None
    )

    specs: List[PointSpec] = []
    for params in grid:
        for seed in seeds:
            key = None
            if cache is not None:
                key = point_key(
                    tag=resolved_tag,
                    params=params,
                    seed=seed,
                    costs=params.get("costs"),
                    options=frame.options,
                )
            specs.append(
                PointSpec(
                    index=len(specs), params=dict(params), seed=seed, key=key
                )
            )

    outcomes: List[Optional[PointOutcome]] = [None] * len(specs)

    # Journal replay first: it also covers sweeps running without a
    # cache.
    journal = None
    if config.journal is not None:
        from repro.harness.cache import cost_model_fingerprint, fingerprint
        from repro.harness.journal import JOURNAL_SCHEMA, SweepJournal

        # Pins the journal to this exact sweep: same tag, same points in
        # the same order, same cost model, same run options.
        header = fingerprint(
            frame.options,
            schema=JOURNAL_SCHEMA,
            tag=resolved_tag,
            points=[[dict(s.params), int(s.seed)] for s in specs],
            costs=cost_model_fingerprint(None),
        )
        if config.resume:
            for index, entry in SweepJournal.replay(
                config.journal, header
            ).items():
                if index >= len(specs):
                    continue
                outcomes[index] = PointOutcome(
                    spec=specs[index],
                    value=entry.get("value"),
                    records=list(entry.get("records") or ()),
                    cache_hit=True,
                    source="journal",
                )
        journal = SweepJournal.open(
            config.journal, header, len(specs), resume=config.resume
        )

    # Resolve cache hits up front; only misses are dispatched.
    todo: List[int] = []
    for spec in specs:
        if outcomes[spec.index] is not None:
            continue
        entry = None
        if cache is not None and config.cache_read and spec.key:
            entry = cache.get(spec.key)
        if entry is not None:
            outcomes[spec.index] = PointOutcome(
                spec=spec,
                value=entry.get("value"),
                records=list(entry.get("records") or ()),
                cache_hit=True,
                source="cache",
            )
        else:
            todo.append(spec.index)

    budget = ctx.budget_remaining()
    deferred = 0
    if budget is not None and len(todo) > budget:
        deferred = len(todo) - budget
        todo = todo[:budget]

    def finish(slot: int, outcome: PointOutcome) -> None:
        if cache is not None and outcome.spec.key:
            cache.put(
                outcome.spec.key,
                {
                    "tag": resolved_tag,
                    "params": dict(outcome.spec.params),
                    "seed": outcome.spec.seed,
                    "value": outcome.value,
                    "records": outcome.records,
                    "meta": {"wall_s": outcome.wall_s, "worker": outcome.worker},
                },
            )
        if journal is not None:
            journal.record_point(outcome)
        outcomes[slot] = outcome

    # Execute and merge. Observability snapshots must land in the
    # parent session in strict grid-index order regardless of schedule
    # and cache state, so artifacts never depend on either.
    nworkers = min(max(1, config.parallel), max(1, len(todo)))
    try:
        with _drain_handler(config.drain_signals) as drain_state:
            if todo and nworkers > 1 and _fork_available():
                # Parallel: workers report nothing to the parent session
                # during execution; absorb every point's records
                # afterwards, in order.
                try:
                    _ForkPool(
                        fn, specs, todo, nworkers, collect_obs, finish,
                        drain_state,
                    ).run()
                finally:
                    if parent_session is not None:
                        for outcome in outcomes:
                            if outcome is not None:
                                parent_session.absorb(outcome.records)
            else:
                _run_serial(
                    fn, specs, todo, collect_obs, finish, drain_state,
                    outcomes, parent_session,
                )
    finally:
        if journal is not None:
            if all(o is not None for o in outcomes):
                journal.complete()
            journal.close()

    done: List[PointOutcome] = []
    for outcome in outcomes:
        if outcome is None:
            continue
        ctx.record(resolved_tag, outcome)
        done.append(outcome)

    drained = sum(1 for slot in todo if outcomes[slot] is None)
    if drained:
        raise SweepInterrupted(
            executed=ctx.executed, remaining=drained, reason="signal"
        )
    if deferred:
        raise SweepInterrupted(executed=ctx.executed, remaining=deferred)
    return done


def _run_serial(
    fn, specs, todo, collect_obs, finish, drain_state, outcomes,
    parent_session,
) -> None:
    """In-process execution: index order, cache-hit replays interleaved.

    A point that raises fails the sweep, as in the fork pool; a drain
    signal takes effect between points.
    """
    todo_set = set(todo)
    if todo_set:
        _scramble_ambient_rng(0)
    for spec in specs:
        outcome = outcomes[spec.index]
        if outcome is not None:
            if parent_session is not None:
                parent_session.absorb(outcome.records)
            continue
        if spec.index not in todo_set:
            continue
        if drain_state["requested"]:
            return
        try:
            value, records, wall = _execute_point(fn, spec, collect_obs)
        except Exception:
            raise HarnessError(
                f"sweep point failed in worker:\n{traceback.format_exc()}"
            ) from None
        finish(
            spec.index,
            PointOutcome(spec=spec, value=value, records=records, wall_s=wall),
        )


# ----------------------------------------------------------------------
# App-backed sweep points (the `repro sweep` CLI's metric functions)
# ----------------------------------------------------------------------
#: Benchmark apps the generic sweep CLI can drive. Values: (runner
#: import path, takes a scheme argument).
SWEEP_APPS = {
    "histogram": ("repro.apps", "run_histogram", True),
    "indexgather": ("repro.apps", "run_indexgather", True),
    "alltoall": ("repro.apps", "run_alltoall", True),
    "phold": ("repro.apps", "run_phold", True),
    "pingack": ("repro.apps", "run_pingack", False),
}


def run_app_point(app: str, metric: str, seed: int = 0, **params: Any) -> float:
    """One CLI sweep point: run ``app`` and read ``metric`` off its result.

    Machine axes ``nodes``/``ppn``/``wpp`` (defaults 2/2/4, the
    harness's scaled Delta node) and a ``scheme`` axis are recognized;
    every other parameter is passed to the app runner unchanged.
    """
    import importlib

    try:
        mod_name, fn_name, takes_scheme = SWEEP_APPS[app]
    except KeyError:
        raise HarnessError(
            f"unknown sweep app {app!r}; known: {', '.join(sorted(SWEEP_APPS))}"
        ) from None
    runner = getattr(importlib.import_module(mod_name), fn_name)

    from repro.machine import MachineConfig

    kwargs = dict(params)
    machine = MachineConfig(
        nodes=int(kwargs.pop("nodes", 2)),
        processes_per_node=int(kwargs.pop("ppn", 2)),
        workers_per_process=int(kwargs.pop("wpp", 4)),
    )
    scheme = kwargs.pop("scheme", "WPs")
    args = (machine, scheme) if takes_scheme else (machine,)
    result = runner(*args, seed=seed, **kwargs)
    try:
        value = getattr(result, metric)
    except AttributeError:
        raise HarnessError(
            f"app {app!r} result has no metric {metric!r}"
        ) from None
    return float(value)
