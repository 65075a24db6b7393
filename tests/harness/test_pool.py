"""Tests for the parallel sweep executor and its result cache."""

import functools
import json
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.errors import HarnessError
from repro.faults import FaultPlan, FaultSession
from repro.harness import cli
from repro.harness.artifact import (
    canonical_metrics_bytes,
    validate_metrics_payload,
)
from repro.harness.cache import CACHE_SCHEMA, ResultCache, point_key
from repro.harness.pool import (
    PoolConfig,
    SweepInterrupted,
    _scramble_ambient_rng,
    map_points,
    pool_session,
    run_app_point,
)
from repro.harness.sweep import run_sweep
from repro.options import RunOptions

# ----------------------------------------------------------------------
# Module-level point functions (stable tags; visible to forked workers)
# ----------------------------------------------------------------------
_CALLS = []


def _square(seed, *, x):
    _CALLS.append((x, seed))
    return float(x * x + seed)


def _boom(seed, *, x):
    raise ValueError(f"point {x} exploded")


def _ambient(seed, *, x):
    # Deliberately leaks dependence on the global RNG the executor
    # scrambles — results must differ between serial and parallel.
    return random.random()


# Worker-killing point functions keyed off an out-of-band marker
# directory (env var, never a point param) so the degraded runs keep the
# exact params — and therefore the exact canonical artifact bytes — of
# clean runs.
_FAILDIR_ENV = "REPRO_TEST_FAILDIR"


def _marker_once(name):
    """True exactly once per marker name (False with chaos disabled)."""
    faildir = os.environ.get(_FAILDIR_ENV)
    if not faildir:
        return False
    marker = Path(faildir) / name
    if marker.exists():
        return False
    marker.touch()
    return True


def _kamikaze(seed, *, x):
    # One point SIGKILLs its worker mid-execution, once.
    if x == 2 and _marker_once("kamikaze"):
        os.kill(os.getpid(), signal.SIGKILL)
    return float(x * x + seed)


def _doomed(seed, *, x):
    # One point SIGKILLs its worker on every attempt while the marker
    # directory is configured.
    if x == 2 and os.environ.get(_FAILDIR_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return float(x * x + seed)


#: Tiny histogram config so app-backed tests stay fast.
_HISTO = functools.partial(
    run_app_point, "histogram", "total_time_ns",
    updates_per_pe=200, buffer_items=16, batch=100,
)
_HISTO_TAG = "test:histo-tiny"
_AXES = {"nodes": [1], "scheme": ["WW", "WPs"]}


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------
class TestPointKey:
    def test_stable(self):
        a = point_key(tag="t", params={"x": 1}, seed=0)
        b = point_key(tag="t", params={"x": 1}, seed=0)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_param_order_irrelevant(self):
        a = point_key(tag="t", params={"x": 1, "y": 2}, seed=0)
        b = point_key(tag="t", params={"y": 2, "x": 1}, seed=0)
        assert a == b

    def test_sensitive_to_every_ingredient(self):
        base = point_key(tag="t", params={"x": 1}, seed=0)
        assert point_key(tag="u", params={"x": 1}, seed=0) != base
        assert point_key(tag="t", params={"x": 2}, seed=0) != base
        assert point_key(tag="t", params={"x": 1}, seed=1) != base

    def test_fault_plan_folds_in(self):
        clean = point_key(tag="t", params={}, seed=0)
        faulty = point_key(
            tag="t", params={}, seed=0,
            options=RunOptions(faults=FaultPlan.parse("drop=0.01")),
        )
        assert clean != faulty

    def test_flow_config_folds_in(self):
        from repro.flow import FlowConfig

        clean = point_key(tag="t", params={}, seed=0)
        flowed = point_key(
            tag="t", params={}, seed=0,
            options=RunOptions(flow=FlowConfig.parse("ct_msgs=8")),
        )
        assert clean != flowed

    def test_all_off_key_is_pinned(self):
        """Keys of runs with every option off never move, so existing
        result caches stay valid across releases."""
        assert point_key(tag="t", params={"x": 1}, seed=0) == (
            "1497f4b10b7b4d064dabb530fdb54450f5afce19e384df5fcb3d53c5f5052367"
        )
        assert point_key(
            tag="t", params={"x": 1}, seed=0, options=RunOptions()
        ) == point_key(tag="t", params={"x": 1}, seed=0)

    def test_reliability_folds_in(self):
        plan = FaultPlan.parse("drop=0.01")
        reliable = point_key(
            tag="t", params={}, seed=0, options=RunOptions(faults=plan)
        )
        lossy = point_key(
            tag="t", params={}, seed=0,
            options=RunOptions(faults=plan, reliability=None),
        )
        assert reliable != lossy

    def test_cost_model_folds_in(self):
        from repro.machine.costs import CostModel

        default = point_key(tag="t", params={}, seed=0)
        field = next(iter(CostModel.__dataclass_fields__))
        tweaked = CostModel(
            **{field: getattr(CostModel(), field) * 2}
        )
        assert point_key(tag="t", params={}, seed=0, costs=tweaked) != default


class TestResultCache:
    def test_roundtrip_and_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(tag="t", params={"x": 1}, seed=0)
        path = cache.put(key, {"value": 42.0, "records": []})
        assert path == tmp_path / key[:2] / f"{key}.json"
        entry = cache.get(key)
        assert entry["value"] == 42.0
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["key"] == key

    def test_missing_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_file_is_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        # Quarantined to <key>.bad: the corrupt JSON is parsed at most
        # once and the evidence survives for inspection.
        assert not path.exists()
        bad = path.with_suffix(".bad")
        assert bad.read_text() == "{not json"
        assert cache.get(key) is None  # still a miss, nothing re-parsed

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(tag="t", params={"x": 1}, seed=0)
        cache.put(key, {"value": 1.0})
        cache.path_for(key).write_text("garbage")
        assert cache.get(key) is None
        cache.put(key, {"value": 2.0})
        assert cache.get(key)["value"] == 2.0

    def test_foreign_schema_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "other/1", "key": key}))
        assert cache.get(key) is None
        assert path.with_suffix(".bad").exists()

    def test_key_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"value": 1.0})
        moved = "cd" + "0" * 62
        cache.path_for(moved).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).rename(cache.path_for(moved))
        assert cache.get(moved) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(point_key(tag="t", params={}, seed=seed), {"value": 0})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TestMapPointsSerial:
    def test_grid_major_order(self):
        outcomes = map_points(_square, [{"x": 1}, {"x": 2}], seeds=(0, 1))
        assert [o.spec.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [1.0, 2.0, 4.0, 5.0]
        assert all(not o.cache_hit for o in outcomes)

    def test_lambda_without_cache_ok(self):
        outcomes = map_points(lambda seed, x: float(x), [{"x": 7}])
        assert outcomes[0].value == 7.0

    def test_lambda_with_cache_needs_tag(self, tmp_path):
        with pool_session(PoolConfig(cache_dir=tmp_path)):
            with pytest.raises(HarnessError, match="stable point tag"):
                map_points(lambda seed, x: float(x), [{"x": 1}])

    def test_partial_with_journal_needs_tag(self, tmp_path):
        """An untagged callable falls back to its repr, which holds a
        per-process address: a journal keyed on it never resumes."""
        with pytest.raises(HarnessError, match="stable point tag"):
            run_sweep(
                functools.partial(_square), {"x": [1]},
                journal=tmp_path / "sweep.jsonl",
            )

    def test_cache_hit_skips_execution(self, tmp_path):
        grid = [{"x": 3}, {"x": 4}]
        _CALLS.clear()
        with pool_session(PoolConfig(cache_dir=tmp_path)):
            cold = map_points(_square, grid)
        assert len(_CALLS) == 2
        with pool_session(PoolConfig(cache_dir=tmp_path)) as ctx:
            warm = map_points(_square, grid)
            assert ctx.cache_hits == 2 and ctx.executed == 0
        assert len(_CALLS) == 2  # nothing re-ran
        assert [o.value for o in warm] == [o.value for o in cold]
        assert all(o.cache_hit for o in warm)

    def test_fresh_ignores_cache_but_rewrites(self, tmp_path):
        grid = [{"x": 5}]
        with pool_session(PoolConfig(cache_dir=tmp_path)):
            map_points(_square, grid)
        _CALLS.clear()
        with pool_session(
            PoolConfig(cache_dir=tmp_path, cache_read=False)
        ) as ctx:
            map_points(_square, grid)
            assert ctx.executed == 1 and ctx.cache_hits == 0
        assert len(_CALLS) == 1

    def test_budget_interrupts_then_resumes(self, tmp_path):
        grid = [{"x": i} for i in range(4)]
        with pool_session(
            PoolConfig(cache_dir=tmp_path, max_executions=2)
        ):
            with pytest.raises(SweepInterrupted) as exc:
                map_points(_square, grid)
        assert exc.value.executed == 2
        assert exc.value.remaining == 2
        assert len(ResultCache(tmp_path)) == 2  # finished points persisted
        with pool_session(PoolConfig(cache_dir=tmp_path)) as ctx:
            outcomes = map_points(_square, grid)
            assert ctx.cache_hits == 2 and ctx.executed == 2
        assert [o.value for o in outcomes] == [0.0, 1.0, 4.0, 9.0]

    def test_provenance_recorded(self):
        with pool_session() as ctx:
            map_points(_square, [{"x": 1}], seeds=(0, 1))
            payload = ctx.provenance_payload()
        assert [p["index"] for p in payload["points"]] == [0, 1]
        assert payload["summary"]["n_points"] == 2
        assert payload["summary"]["executed"] == 2
        assert payload["summary"]["cache_hits"] == 0


class TestMapPointsParallel:
    def test_matches_serial(self):
        grid = [{"x": i} for i in range(6)]
        serial = map_points(_square, grid, seeds=(0, 1))
        with pool_session(PoolConfig(parallel=3)) as ctx:
            par = map_points(_square, grid, seeds=(0, 1))
            workers = {p["worker"] for p in ctx.provenance}
        assert [o.value for o in par] == [o.value for o in serial]
        assert [o.spec.index for o in par] == list(range(12))
        assert workers <= {1, 2, 3} and workers  # pool workers, not parent

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_worker_error_propagates(self, parallel, tmp_path):
        """A point that raises fails the sweep at once, serial or
        parallel, and never reaches the cache."""
        config = PoolConfig(parallel=parallel, cache_dir=tmp_path)
        with pool_session(config):
            with pytest.raises(HarnessError, match="exploded"):
                map_points(_boom, [{"x": 0}, {"x": 1}])
        assert len(ResultCache(tmp_path)) == 0

    def test_ambient_rng_leak_diverges(self):
        """A point fn reading global RNG must not survive the identity
        tests: serial (token 0) and workers (tokens 1..N) scramble the
        ambient RNGs differently on purpose."""
        serial = map_points(_ambient, [{"x": 0}])
        with pool_session(PoolConfig(parallel=2)):
            par = map_points(_ambient, [{"x": 0}, {"x": 1}])
        assert par[0].value != serial[0].value

    def test_lossy_run_never_hits_reliable_cache_entry(self, tmp_path):
        """Dropping reliability changes the result (here: the run fails
        quiescence), so it must not replay a reliable run's entry."""
        axes = {"nodes": [2], "scheme": ["WW"]}
        plan = FaultPlan.parse("drop=0.05")
        with FaultSession(plan):
            run_sweep(_HISTO, axes, tag=_HISTO_TAG, cache_dir=tmp_path)
        with FaultSession(plan, reliability=None):
            with pytest.raises(HarnessError, match="QuiescenceError"):
                run_sweep(_HISTO, axes, tag=_HISTO_TAG, cache_dir=tmp_path)

    def test_parallel_populates_shared_cache(self, tmp_path):
        grid = [{"x": i} for i in range(4)]
        with pool_session(PoolConfig(parallel=2, cache_dir=tmp_path)):
            map_points(_square, grid)
        assert len(ResultCache(tmp_path)) == 4
        with pool_session(PoolConfig(cache_dir=tmp_path)) as ctx:
            map_points(_square, grid)
            assert ctx.cache_hits == 4 and ctx.executed == 0


class TestScramble:
    def test_deterministic_per_token(self):
        _scramble_ambient_rng(1)
        a = random.random()
        _scramble_ambient_rng(1)
        b = random.random()
        assert a == b

    def test_tokens_diverge(self):
        _scramble_ambient_rng(0)
        a = random.random()
        _scramble_ambient_rng(1)
        b = random.random()
        assert a != b


# ----------------------------------------------------------------------
# End-to-end determinism and resumability (satellites 1 and 3)
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    def test_parallel_artifact_byte_identical_to_serial(self, tmp_path):
        """--parallel 1 and --parallel 8 must produce byte-identical
        artifacts modulo the volatile provenance fields."""
        kw = dict(seeds=(0, 1), metrics_path=None, tag=_HISTO_TAG)
        p1 = tmp_path / "serial.json"
        p8 = tmp_path / "par8.json"
        r1 = run_sweep(_HISTO, _AXES, metrics_path=p1, **{
            k: v for k, v in kw.items() if k != "metrics_path"})
        r8 = run_sweep(_HISTO, _AXES, metrics_path=p8, parallel=8, **{
            k: v for k, v in kw.items() if k != "metrics_path"})
        assert [c.values for c in r8.cells] == [c.values for c in r1.cells]
        a = json.loads(p1.read_text())
        b = json.loads(p8.read_text())
        assert validate_metrics_payload(a) == []
        assert validate_metrics_payload(b) == []
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)
        # Provenance itself legitimately differs (worker ids, wall).
        assert a["provenance"]["parallel"] == 1
        assert b["provenance"]["parallel"] == 8

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        cold_p = tmp_path / "cold.json"
        warm_p = tmp_path / "warm.json"
        run_sweep(_HISTO, _AXES, seeds=(0,), tag=_HISTO_TAG,
                  cache_dir=cache, metrics_path=cold_p)
        warm = run_sweep(_HISTO, _AXES, seeds=(0,), tag=_HISTO_TAG,
                         cache_dir=cache, metrics_path=warm_p)
        assert warm.total_cache_hits == warm.total_points == 2
        a = json.loads(cold_p.read_text())
        b = json.loads(warm_p.read_text())
        assert b["provenance"]["summary"]["executed"] == 0
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)

    def test_interrupted_sweep_resumes_to_identical_artifact(self, tmp_path):
        ref_p = tmp_path / "ref.json"
        res_p = tmp_path / "resumed.json"
        cache = tmp_path / "cache"
        run_sweep(_HISTO, _AXES, tag=_HISTO_TAG, metrics_path=ref_p)
        with pytest.raises(SweepInterrupted) as exc:
            run_sweep(_HISTO, _AXES, tag=_HISTO_TAG, cache_dir=cache,
                      max_executions=1)
        assert exc.value.executed == 1 and exc.value.remaining == 1
        resumed = run_sweep(_HISTO, _AXES, tag=_HISTO_TAG, cache_dir=cache,
                            metrics_path=res_p)
        assert resumed.total_cache_hits == 1  # only the missing point ran
        ref = json.loads(ref_p.read_text())
        res = json.loads(res_p.read_text())
        assert canonical_metrics_bytes(res) == canonical_metrics_bytes(ref)


# ----------------------------------------------------------------------
# App-backed points and the `sweep` CLI target
# ----------------------------------------------------------------------
class TestRunAppPoint:
    def test_returns_float_metric(self):
        value = run_app_point(
            "histogram", "total_time_ns", seed=0,
            nodes=1, scheme="WPs", updates_per_pe=100, buffer_items=16,
            batch=100,
        )
        assert isinstance(value, float) and value > 0

    def test_unknown_app(self):
        with pytest.raises(HarnessError, match="unknown sweep app"):
            run_app_point("nope", "total_time_ns")

    def test_unknown_metric(self):
        with pytest.raises(HarnessError, match="no metric"):
            run_app_point(
                "histogram", "nope", nodes=1, updates_per_pe=100,
                buffer_items=16, batch=100,
            )


class TestSweepCli:
    ARGS = [
        "sweep", "--app", "histogram",
        "--axes", "nodes=1;scheme=WW,WPs",
        "--fixed", "updates_per_pe=200,buffer_items=16,batch=100",
    ]

    def test_sweep_no_cache(self, capsys):
        rc = cli.main(self.ARGS + ["--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_time_ns (mean)" in out
        assert "0 cache hit(s), 2 executed" in out

    def test_sweep_interrupt_then_resume(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path)]
        rc = cli.main(cached + ["--max-points", "1"])
        assert rc == 3
        assert "sweep interrupted" in capsys.readouterr().err
        rc = cli.main(cached + ["--resume"])
        assert rc == 0
        assert "1 cache hit(s), 1 executed" in capsys.readouterr().out

    def test_sweep_warm_cache_all_hits(self, tmp_path, capsys):
        cached = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert cli.main(cached) == 0
        capsys.readouterr()
        assert cli.main(cached) == 0
        assert "2 cache hit(s), 0 executed" in capsys.readouterr().out

    def test_sweep_metrics_artifact(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        rc = cli.main(self.ARGS + ["--no-cache", "--metrics-out", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        assert payload["provenance"]["summary"]["n_points"] == 2

    def test_sweep_honours_faults(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        rc = cli.main(self.ARGS + [
            "--no-cache", "--faults", "drop=0.2", "--metrics-out", str(path),
        ])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        assert payload["config"]["faults"]["drop"] == 0.2
        assert payload["runs"]
        assert all(run["faults"] is not None for run in payload["runs"])

    def test_sweep_needs_axes(self, capsys):
        rc = cli.main(["sweep", "--app", "histogram"])
        assert rc == 2
        assert "--axes" in capsys.readouterr().err

    def test_sweep_bad_axes(self, capsys):
        rc = cli.main(["sweep", "--axes", "garbage"])
        assert rc == 2

    @pytest.mark.parametrize("flag", [
        ["--parallel", "-3"], ["--parallel", "0"], ["--parallel", "two"],
        ["--max-points", "-1"],
    ])
    def test_pool_flag_values_refused(self, flag, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        argv = self.ARGS + ["--no-cache", *flag, "--metrics-out", "p.json"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"argument {flag[0]}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axes,fixed,seeds", [
        ("nodes=1,2;nodes=4", "updates_per_pe=200", "0"),  # axis twice
        ("nodes=2,2", "updates_per_pe=200", "0"),  # value twice
        ("nodes=", "updates_per_pe=200", "0"),  # no values
        ("nodes=1", "updates_per_pe=200,updates_per_pe=300", "0"),
        ("nodes=1,2", "nodes=4,updates_per_pe=200", "0"),  # fixed and swept
        ("nodes=1", "updates_per_pe=200", "0,0"),  # seed twice
    ])
    def test_sweep_spec_refused(self, axes, fixed, seeds, tmp_path,
                                monkeypatch, capsys):
        """A spec the sweep would silently drop or double is refused."""
        monkeypatch.chdir(tmp_path)
        argv = [
            "sweep", "--app", "histogram", "--axes", axes,
            "--fixed", fixed + ",buffer_items=16,batch=100", "--seeds", seeds,
            "--no-cache", "--metrics-out", "p.json",
        ]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [
        ["--retries", "1"], ["--point-timeout", "5"], ["--status"],
        ["--status-json", "status.json"],
    ])
    def test_removed_supervision_flags_rejected(self, flag, capsys):
        assert cli.main(self.ARGS + ["--no-cache"] + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Supervision: a killed worker's point is requeued once
# ----------------------------------------------------------------------
@pytest.fixture
def faildir(tmp_path, monkeypatch):
    d = tmp_path / "faults"
    d.mkdir()
    monkeypatch.setenv(_FAILDIR_ENV, str(d))
    return d


class TestSupervision:
    GRID = [{"x": i} for i in range(8)]

    def test_sigkilled_worker_is_replaced(self, faildir):
        with pool_session(PoolConfig(parallel=3)) as ctx:
            outcomes = map_points(_kamikaze, self.GRID)
        assert [o.value for o in outcomes] == [float(i * i) for i in range(8)]
        assert ctx.executed == 8
        assert (faildir / "kamikaze").exists()  # the kill really happened

    def test_chaos_artifact_byte_identical_to_clean_serial(
        self, tmp_path, faildir, monkeypatch
    ):
        """A SIGKILLed worker's point is requeued and the sweep ends
        with the same canonical bytes as a fault-free serial run."""
        chaos_p = tmp_path / "chaos.json"
        clean_p = tmp_path / "clean.json"
        axes = {"x": list(range(8))}
        chaos = run_sweep(
            _kamikaze, axes, seeds=(0,), tag="chaos-inv",
            metrics_path=chaos_p, parallel=3,
        )
        assert (faildir / "kamikaze").exists()
        monkeypatch.delenv(_FAILDIR_ENV)
        clean = run_sweep(
            _kamikaze, axes, seeds=(0,), tag="chaos-inv",
            metrics_path=clean_p,
        )
        assert [c.values for c in chaos.cells] == [
            c.values for c in clean.cells
        ]
        a = json.loads(chaos_p.read_text())
        b = json.loads(clean_p.read_text())
        assert validate_metrics_payload(a) == []
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)

    def test_second_death_fails_then_resume_matches_clean(
        self, tmp_path, faildir, monkeypatch
    ):
        """A point whose worker dies twice fails the sweep by name; the
        journal keeps every point resolved before that, so a resume
        runs only the rest."""
        journal = tmp_path / "sweep.jsonl"
        axes = {"x": list(range(8))}
        kw = dict(seeds=(0,), tag="doomed", parallel=3, journal=journal)
        with pytest.raises(HarnessError) as exc:
            run_sweep(_doomed, axes, **kw)
        assert "sweep point 2 (params {'x': 2}" in str(exc.value)
        assert "exit code -9" in str(exc.value)
        journaled = {p["index"] for p in _journal_points(journal)}
        assert 2 not in journaled

        monkeypatch.delenv(_FAILDIR_ENV)
        res_p = tmp_path / "resumed.json"
        clean_p = tmp_path / "clean.json"
        resumed = run_sweep(
            _doomed, axes, resume=True, metrics_path=res_p, **kw
        )
        assert resumed.pool["summary"]["executed"] == 8 - len(journaled)
        run_sweep(_doomed, axes, seeds=(0,), tag="doomed",
                  metrics_path=clean_p)
        res = json.loads(res_p.read_text())
        assert validate_metrics_payload(res) == []
        assert canonical_metrics_bytes(res) == canonical_metrics_bytes(
            json.loads(clean_p.read_text())
        )


# ----------------------------------------------------------------------
# Interrupt semantics: graceful drain, crash-consistent journal, resume
# ----------------------------------------------------------------------
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _sweep_argv(cache, *extra):
    import sys

    return [
        sys.executable, "-m", "repro.harness", "sweep",
        "--app", "histogram",
        "--axes", "nodes=1,2;scheme=WW,WPs",
        "--fixed", "updates_per_pe=15000,buffer_items=16,batch=100",
        "--seeds", "0,1",
        "--parallel", "2",
        "--cache-dir", str(cache),
        *extra,
    ]


def _journal_points(journal):
    """Parsed point records of a journal (asserts every line is JSON)."""
    if not journal.exists():
        return []
    docs = [json.loads(line) for line in journal.read_text().splitlines()]
    return [d for d in docs if d.get("kind") == "point"]


def _proc_stat(pid):
    """``(state, starttime)`` of ``pid`` from ``/proc``, or None once it
    is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], fields[19]


def _children_of(pid):
    """Child pids of ``pid`` mapped to their start times."""
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        pids = [int(p) for p in f.read().split()]
    stats = {p: _proc_stat(p) for p in pids}
    return {p: st[1] for p, st in stats.items() if st is not None}


def _interrupt_mid_sweep(tmp_path, signum, children=None):
    """Start the sweep CLI, signal it once >=2 points are journaled,
    and return (returncode, cache_dir, journal_path). When ``children``
    is a dict, the sweep's child pids (with start times) are recorded
    into it just before the signal."""
    import subprocess

    cache = tmp_path / "cache"
    journal = cache / "sweep-journal.jsonl"
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        _sweep_argv(cache),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    f"sweep finished (rc {proc.returncode}) before the "
                    f"signal — grid too fast for this host"
                )
            try:
                if len(_journal_points(journal)) >= 2:
                    break
            except ValueError:
                pass  # mid-append read; journal settles next poll
            time.sleep(0.05)
        else:
            pytest.fail("journal never accumulated 2 points")
        if children is not None:
            children.update(_children_of(proc.pid))
        proc.send_signal(signum)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rc, cache, journal


@pytest.mark.slow
class TestInterruptSemantics:
    def _reference_artifact(self, tmp_path):
        ref_p = tmp_path / "ref.json"
        rc = cli.main(
            _sweep_argv(tmp_path / "ref-cache", "--metrics-out", str(ref_p))[3:]
        )
        assert rc == 0
        return json.loads(ref_p.read_text())

    def test_sigint_drains_to_exit_3_then_resume_matches(self, tmp_path):
        rc, cache, journal = _interrupt_mid_sweep(tmp_path, signal.SIGINT)
        assert rc == 3  # graceful drain, not the default 130
        points = _journal_points(journal)  # also: every line valid JSON
        assert 2 <= len(points) < 8
        assert all(isinstance(p["value"], float) for p in points)

        res_p = tmp_path / "resumed.json"
        rc = cli.main(
            _sweep_argv(cache, "--resume", "--metrics-out", str(res_p))[3:]
        )
        assert rc == 0
        resumed = json.loads(res_p.read_text())
        summary = resumed["provenance"]["summary"]
        # Only the points the drained run never resolved were executed.
        assert summary["cache_hits"] >= len(points)
        assert summary["executed"] <= 8 - len(points)
        ref = self._reference_artifact(tmp_path)
        assert canonical_metrics_bytes(resumed) == canonical_metrics_bytes(ref)

    def test_parent_sigkill_resumes_from_journal(self, tmp_path):
        rc, cache, journal = _interrupt_mid_sweep(tmp_path, signal.SIGKILL)
        assert rc == -signal.SIGKILL
        points = _journal_points(journal)  # fsync'd prefix survived
        assert len(points) >= 2
        journaled = {p["index"] for p in points}

        res_p = tmp_path / "resumed.json"
        rc = cli.main(
            _sweep_argv(cache, "--resume", "--metrics-out", str(res_p))[3:]
        )
        assert rc == 0
        resumed = json.loads(res_p.read_text())
        # Journaled points replayed (source "journal"), the rest
        # executed — never re-running what the dead parent completed.
        by_index = {
            p["index"]: p for p in resumed["provenance"]["points"]
        }
        for index in journaled:
            assert by_index[index]["cache_hit"]
        summary = resumed["provenance"]["summary"]
        assert summary["executed"] == 8 - summary["cache_hits"]
        ref = self._reference_artifact(tmp_path)
        assert canonical_metrics_bytes(resumed) == canonical_metrics_bytes(ref)

    def test_parent_sigkill_leaves_no_orphan_workers(self, tmp_path):
        me = os.getpid()
        if not os.path.exists(f"/proc/{me}/task/{me}/children"):
            pytest.skip("kernel does not expose /proc/<pid>/task/<pid>/children")
        workers = {}
        rc, _, _ = _interrupt_mid_sweep(tmp_path, signal.SIGKILL, workers)
        assert rc == -signal.SIGKILL
        assert workers  # the parent had forked its pool

        def alive():
            # Zombies and a changed start time (pid reuse) count as exited.
            out = []
            for pid, start in workers.items():
                st = _proc_stat(pid)
                if st is not None and st[0] not in "ZX" and st[1] == start:
                    out.append(pid)
            return out

        deadline = time.monotonic() + 10
        survivors = alive()
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = alive()
        for pid in survivors:  # leave nothing behind, even on failure
            os.kill(pid, signal.SIGKILL)
        # Orphaned workers must see EOF on their task pipe and exit.
        assert survivors == []
