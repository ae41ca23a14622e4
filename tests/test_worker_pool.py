"""Tests for the persistent worker pool (batch plan, stealing, policy).

Complements ``test_supervisor.py`` (fault tolerance under the default
one-batch-per-job plan) with the worker-pool surface: explicit batch
plans shared across job counts, work-stealing under slow and dead
workers, the ``WorkerPolicy`` sub-config, the checkpoint directory
(schema v2, each batch file written once, directories in the earlier
layout still resumable), and workers that exit once their supervisor
is gone.
"""

import collections
import json
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import pytest

from repro.campaign_api import (
    SEED_STRIDE,
    BatchSpec,
    CampaignSpec,
    WorkerPolicy,
    resume_campaign,
    run_campaign,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.fuzzer import supervisor
from repro.fuzzer.parallel import merge_shards, run_batch
from repro.fuzzer.supervisor import (
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    FaultPlan,
    load_checkpoint,
    run_supervised,
)
from repro.trace import TraceRecorder


def pooled_spec(**overrides):
    base = dict(
        iterations=12, jobs=2, batch_size=3, use_seeds=True, shard_timeout=5.0
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestBatchPlan:
    def test_default_plan_is_one_batch_per_job(self):
        spec = CampaignSpec(iterations=10, jobs=4)
        plan = spec.batches()
        assert [b.index for b in plan] == [0, 1, 2, 3]
        assert [b.iterations for b in plan] == list(spec.shard_iterations())
        assert sum(b.iterations for b in plan) == 10
        assert all(b.nslices == 4 for b in plan)

    def test_explicit_batch_size_plan(self):
        spec = CampaignSpec(iterations=10, jobs=2, batch_size=4)
        plan = spec.batches()
        assert [b.iterations for b in plan] == [4, 4, 2]
        assert [b.seed for b in plan] == [spec.seed * SEED_STRIDE + b for b in range(3)]
        assert all(b.nslices == 3 for b in plan)

    def test_plan_is_independent_of_jobs(self):
        """The work queue contract: the plan is a function of the budget
        alone, so any worker count executes identical batches."""
        plans = {
            jobs: CampaignSpec(iterations=20, jobs=jobs, batch_size=4).batches()
            for jobs in (1, 2, 4)
        }
        assert plans[1] == plans[2] == plans[4]

    def test_batch_is_a_mini_shard(self):
        b = CampaignSpec(iterations=9, jobs=1, batch_size=4).batches()[1]
        assert b == BatchSpec(index=1, seed=SEED_STRIDE + 1, iterations=4, nslices=3)


class TestPoolDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_campaign(pooled_spec(jobs=1, shard_timeout=None))

    def test_jobs_do_not_change_the_result(self, serial_result):
        """jobs=1 (serial, in-process) == jobs=2 == jobs=4 (pooled)."""
        for jobs in (2, 4):
            result = run_campaign(pooled_spec(jobs=jobs))
            assert replace(result, spec=serial_result.spec) == serial_result

    def test_death_mid_batch_equals_clean(self, serial_result):
        clean = run_supervised(pooled_spec())
        assert replace(clean, spec=serial_result.spec) == serial_result
        faulted = run_supervised(
            pooled_spec(), faults=(FaultPlan(shard=2, iteration=1, kind="die"),)
        )
        assert faulted == clean
        assert [r.shard for r in faulted.retries] == [2]

    def test_merge_order_is_canonical(self):
        spec = pooled_spec(jobs=1, shard_timeout=None)
        shards = [run_batch(spec, b) for b in spec.batches()]
        forward = merge_shards(spec, shards, seconds=0.0)
        backward = merge_shards(spec, list(reversed(shards)), seconds=0.0)
        assert forward == backward
        assert [s.shard for s in backward.shards] == sorted(
            s.shard for s in backward.shards
        )


class TestWorkStealing:
    def test_slow_batch_does_not_starve_the_plan(self):
        """One stalled batch must not block the queue: the sibling worker
        drains the remaining batches while the slow one sleeps."""
        sink = TraceRecorder(capacity=8192)
        spec = pooled_spec(iterations=12, batch_size=2)  # 6 batches, 2 workers
        result = run_supervised(
            spec,
            faults=(FaultPlan(shard=0, iteration=0, kind="slow"),),
            sink=sink,
        )
        assert result.retries == () and result.failed_shards == ()
        claims = [e for e in sink.events() if e.kind == "batch-claim"]
        by_worker = {}
        for e in claims:
            by_worker.setdefault(e.worker, set()).add(e.batch)
        assert set.union(*by_worker.values()) == set(range(6))
        slow_worker = next(e.worker for e in claims if e.batch == 0)
        # The stalled worker held batch 0 the whole time the other side
        # drained the queue.
        assert len(by_worker[slow_worker]) <= 2
        assert max(len(batches) for batches in by_worker.values()) >= 4

    def test_retry_after_death_is_recorded_as_a_steal(self):
        sink = TraceRecorder(capacity=8192)
        result = run_supervised(
            pooled_spec(),
            faults=(FaultPlan(shard=1, iteration=1, kind="die"),),
            sink=sink,
        )
        assert result.failed_shards == ()
        steals = [e for e in sink.events() if e.kind == "batch-steal"]
        assert steals, "retry on a fresh worker should emit batch-steal"
        assert all(e.from_worker != e.worker for e in steals)
        assert any(e.batch == 1 for e in steals)


class TestWorkerPolicy:
    def test_json_roundtrip(self):
        policy = WorkerPolicy(jobs=4, batch_size=16, shard_timeout=30.0, max_retries=5)
        assert WorkerPolicy.from_dict(policy.to_dict()) == policy
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()

    def test_validation(self):
        for bad in (
            dict(jobs=0),
            dict(batch_size=0),
            dict(shard_timeout=0.0),
            dict(max_retries=-1),
        ):
            with pytest.raises(ConfigError):
                WorkerPolicy(**bad)

    def test_spec_folds_policy(self):
        policy = WorkerPolicy(jobs=3, batch_size=8, shard_timeout=9.0, max_retries=1)
        spec = CampaignSpec(iterations=4, worker_policy=policy)
        assert spec.policy == policy
        assert (spec.jobs, spec.batch_size) == (3, 8)
        assert (spec.shard_timeout, spec.max_retries) == (9.0, 1)

    def test_policy_and_loose_knobs_are_one_source(self):
        spec = CampaignSpec(iterations=4, jobs=2, batch_size=5)
        assert spec.policy == WorkerPolicy(jobs=2, batch_size=5)
        bumped = replace(spec, jobs=4)
        assert bumped.policy.jobs == 4

    def test_spec_dict_nests_policy(self):
        spec = pooled_spec()
        payload = spec_to_dict(spec)
        assert payload["policy"] == spec.policy.to_dict()
        assert "jobs" not in payload  # flat v1 keys are gone
        assert spec_from_dict(payload) == spec

    def test_spec_from_dict_reads_v1_flat_keys(self):
        payload = spec_to_dict(CampaignSpec(iterations=6))
        del payload["policy"]
        payload.update(jobs=2, shard_timeout=4.0, max_retries=3)
        spec = spec_from_dict(payload)
        assert spec.policy == WorkerPolicy(
            jobs=2, batch_size=None, shard_timeout=4.0, max_retries=3
        )


@pytest.fixture
def count_writes(monkeypatch):
    """Count the supervisor's checkpoint writes per file name."""
    writes = collections.Counter()
    real = supervisor._atomic_write

    def counting(path, text):
        writes[os.path.basename(path)] += 1
        real(path, text)

    monkeypatch.setattr(supervisor, "_atomic_write", counting)
    return writes


class TestWriteOnceCheckpoint:
    def test_each_batch_file_written_once_and_no_partials(self, tmp_path, count_writes):
        # 4 batches of 3 iterations; checkpoint_every=1 makes every batch
        # ship partial snapshots at iterations 1 and 2.
        d = str(tmp_path / "ckpt")
        run_supervised(pooled_spec(checkpoint_dir=d, checkpoint_every=1))
        batch_files = {f"shard-{k:03d}.json" for k in range(4)}
        assert {n: c for n, c in count_writes.items() if n != MANIFEST_NAME} == {
            n: 1 for n in batch_files
        }
        assert count_writes[MANIFEST_NAME] >= 4
        assert set(os.listdir(d)) == batch_files | {MANIFEST_NAME}

    def test_resume_of_finished_directory_writes_only_manifest(
        self, tmp_path, count_writes
    ):
        d = str(tmp_path / "ckpt")
        first = run_supervised(pooled_spec(checkpoint_dir=d, checkpoint_every=1))
        count_writes.clear()
        assert resume_campaign(d) == first
        assert count_writes == {MANIFEST_NAME: 1}

    def test_resume_from_earlier_layout(self, tmp_path):
        """A manifest that also carries the ``plan`` and ``partials`` keys
        of the layout before batch files became write-once, next to a
        stray ``partial-NNN.json``.  It resumes to the clean result; the
        extra keys and the stray file are ignored."""
        d = str(tmp_path / "ckpt")
        spec = CampaignSpec(
            iterations=8,
            jobs=2,
            use_seeds=True,
            shard_timeout=5.0,
            checkpoint_dir=d,
            checkpoint_every=2,
            max_retries=0,
        )
        first = run_supervised(
            spec, faults=(FaultPlan(shard=1, iteration=1, kind="die"),)
        )
        assert [f.shard for f in first.failed_shards] == [1]
        manifest_path = os.path.join(d, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["plan"] = [
            {"batch": b.index, "seed": b.seed, "iterations": b.iterations,
             "slices": b.nslices}
            for b in spec.batches()
        ]
        manifest["partials"] = [1]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with open(os.path.join(d, "shard-000.json")) as fh:
            stray = json.load(fh)
        stray.update(shard=1, iterations=2)
        with open(os.path.join(d, "partial-001.json"), "w") as fh:
            json.dump(stray, fh)

        assert sorted(load_checkpoint(d).completed) == [0]
        resumed = resume_campaign(d)
        clean = run_campaign(replace(spec, checkpoint_dir=None))
        assert replace(resumed, spec=clean.spec) == clean
        assert resumed.failed_shards == ()


class TestManifestV2:
    def test_manifest_records_plan_and_assignments(self, tmp_path):
        d = str(tmp_path / "ckpt")
        spec = pooled_spec(checkpoint_dir=d)
        run_supervised(spec)
        with open(os.path.join(d, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        assert manifest["version"] == CHECKPOINT_VERSION
        plan = spec.batches()
        ran = {a["batch"] for a in manifest["assignments"]}
        assert ran == {b.index for b in plan}
        assert all(a["attempt"] == 0 for a in manifest["assignments"])


def _running(pid):
    """True while ``pid`` exists and is not a zombie.  An orphan's new
    parent (PID 1 in a container) may never reap it, so a zombie counts
    as gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("State:"):
                    return line.split()[1] != "Z"
    except FileNotFoundError:
        pass
    return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
class TestOrphanedWorkers:
    def test_workers_exit_after_supervisor_sigkill(self):
        """A SIGKILLed supervisor sends no poison pill; its workers must
        notice they were reparented and exit instead of waiting on the
        task queue forever."""
        script = textwrap.dedent(
            """
            import multiprocessing, threading, time
            from repro.campaign_api import CampaignSpec, run_campaign

            spec = CampaignSpec(iterations=100_000, jobs=2, batch_size=20)
            threading.Thread(target=run_campaign, args=(spec,), daemon=True).start()
            while len(multiprocessing.active_children()) < 2:
                time.sleep(0.05)
            print(*(p.pid for p in multiprocessing.active_children()), flush=True)
            time.sleep(600)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        pids = []
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            assert ready, "supervisor never started its workers"
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(_running(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [p for p in pids if _running(p)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
