"""Tests for the ``python -m repro`` entry point."""

import pytest

from repro.__main__ import (EXPERIMENTS, _extract_worker_count, main,
                            scenarios_main)
from repro.sweeps import JOBS_ENV


class TestCli:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_registry_covers_all_paper_experiments(self):
        assert set(EXPERIMENTS) == {"e1", "e2", "e3", "e4", "e5", "e6",
                                    "e6-scale", "e7", "e8", "e9", "a1", "a2"}

    def test_single_experiment_prints_table(self, capsys, monkeypatch):
        from repro.sweeps import Job
        stub_jobs = [Job("repro.sweeps.job:echo_row",
                         kwargs={"routers": 1, "ok": True}, group="e2")]
        monkeypatch.setitem(EXPERIMENTS, "e2", ("stub", lambda: stub_jobs))
        assert main(["e2"]) == 0
        out = capsys.readouterr().out
        assert "routers" in out and "stub" in out

    def test_experiment_registry_entries_build_job_lists(self):
        for key, (_title, jobs_fn) in EXPERIMENTS.items():
            if key == "e6-scale":
                continue    # builds large tiers by default; covered below
            jobs = list(jobs_fn())
            assert jobs, key
            assert all(job.group == key for job in jobs), key

    def test_e6_scale_registry_honours_tier_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_E6_SCALE_TIERS", "small")
        _title, jobs_fn = EXPERIMENTS["e6-scale"]
        labels = [job.label for job in jobs_fn()]
        assert labels == ["e6-scale flat small", "e6-scale recursive small"]


class TestShardedScaleFlags:
    """``--shards`` / ``--stateful`` wiring."""

    def test_stateful_requires_shards(self, capsys):
        assert main(["e6-scale", "--stateful"]) == 2
        assert "--stateful" in capsys.readouterr().err

    def test_shards_applies_to_e6_scale_only(self, capsys):
        assert main(["e2", "--shards", "2"]) == 2
        assert "e6-scale" in capsys.readouterr().err

    def test_stateful_with_one_shard_is_a_contradiction(self, capsys):
        # --shards 1 is the unsharded reference row: there is no
        # partition to shard the control plane over, so accepting the
        # combination would silently run something else than asked
        assert main(["e6-scale", "--shards", "1", "--stateful"]) == 2
        err = capsys.readouterr().err
        assert "--stateful" in err and "--shards 1" in err

    def test_stateful_tier_runs_and_pins_fingerprint(self, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_E6_STATEFUL_TIERS", "small")
        assert main(["e6-scale", "--shards", "2", "--stateful"]) == 0
        out = capsys.readouterr().out
        assert "flat-stateful" in out and "rib_sha256" in out
        assert "stateful" in out   # the table title names the tier

    def test_stateful_tier_rejects_unknown_tier_env(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_E6_STATEFUL_TIERS", "galactic")
        assert main(["e6-scale", "--shards", "2", "--stateful"]) == 2
        assert "REPRO_E6_STATEFUL_TIERS" in capsys.readouterr().err

    def test_removed_transport_flag_is_rejected(self, capsys):
        # the relay has one path and placement is one rule: the flags
        # that used to select among them are unknown arguments now
        for removed in (["--transport", "packed"], ["--balance"]):
            assert main(["e6-scale", "--shards", "2", "--stateful",
                         *removed]) == 2
            assert capsys.readouterr().err

    def test_removed_protocol_flag_is_rejected(self, capsys):
        # one round rule, no switch: --protocol is an unknown argument,
        # with or without the tier it used to apply to
        for extra in (["--stateful"], []):
            assert main(["e6-scale", "--shards", "2", *extra,
                         "--protocol", "global-min"]) == 2
            assert capsys.readouterr().err
        assert main([]) == 0
        assert "--protocol" not in capsys.readouterr().out

    def test_stateful_jobs_take_no_round_rule(self):
        from repro.experiments.e6_scalability import iter_stateful_jobs
        jobs = iter_stateful_jobs(["small"], shards=2)
        assert jobs
        for job in jobs:
            assert "protocol" not in job.kwargs
            assert "transport" not in job.kwargs
        with pytest.raises(TypeError):
            iter_stateful_jobs(["small"], shards=2, protocol="global-min")


class TestJobsFlag:
    """``--jobs`` parsing and the ``REPRO_JOBS`` fallback."""

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", ""])
    def test_rejects_non_positive_and_non_integers(self, capsys, value):
        assert main(["e2", "--jobs", value]) == 2
        assert "worker count" in capsys.readouterr().err

    def test_rejects_missing_value(self, capsys):
        assert main(["e2", "--jobs"]) == 2
        assert "--jobs requires a value" in capsys.readouterr().err

    def test_equals_form_is_accepted(self):
        args, workers, error = _extract_worker_count(["e2", "--jobs=3"])
        assert (args, workers, error) == (["e2"], 3, None)

    def test_flag_position_is_free(self):
        args, workers, error = _extract_worker_count(["--jobs", "2", "e1",
                                                      "e2"])
        assert (args, workers, error) == (["e1", "e2"], 2, None)

    def test_flag_runs_experiment_through_pool(self, capsys, monkeypatch):
        from repro.sweeps import Job
        stub_jobs = [Job("repro.sweeps.job:worker_info_row",
                         kwargs={"index": i}, group="e2") for i in range(3)]
        monkeypatch.setitem(EXPERIMENTS, "e2", ("stub", lambda: stub_jobs))
        assert main(["e2", "--jobs", "2"]) == 0
        assert "index" in capsys.readouterr().out

    def test_env_override_is_used_when_flag_absent(self, monkeypatch):
        seen = {}

        class Recorder:
            def __init__(self, workers=None, **_kwargs):
                seen["workers"] = workers
            def imap(self, jobs):
                return iter([[] for _job in jobs])
            def map(self, jobs):
                return [[] for _job in jobs]
            def run(self, jobs):
                return []

        monkeypatch.setattr("repro.sweeps.SweepRunner", Recorder)
        monkeypatch.setitem(EXPERIMENTS, "e2", ("stub", lambda: []))
        monkeypatch.setenv(JOBS_ENV, "3")
        assert main(["e2"]) == 0
        assert seen["workers"] == 3
        # the explicit flag beats the environment
        assert main(["e2", "--jobs", "2"]) == 0
        assert seen["workers"] == 2

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_invalid_env_value_is_an_error(self, capsys, monkeypatch, value):
        monkeypatch.setitem(EXPERIMENTS, "e2", ("stub", lambda: []))
        monkeypatch.setenv(JOBS_ENV, value)
        assert main(["e2"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_invalid_start_method_env_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "e2", ("stub", lambda: []))
        monkeypatch.setenv("REPRO_START_METHOD", "Spawn")
        assert main(["e2"]) == 2
        assert "REPRO_START_METHOD" in capsys.readouterr().err

    def test_invalid_env_does_not_break_poolless_commands(self, capsys,
                                                          monkeypatch):
        # help and `scenarios list` never dispatch jobs, so a bad
        # REPRO_JOBS must not turn them into errors
        monkeypatch.setenv(JOBS_ENV, "bogus")
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out
        assert main(["scenarios", "list"]) == 0
        assert "canned scenarios" in capsys.readouterr().out

    def test_scenarios_run_accepts_jobs_flag(self, capsys):
        assert main(["scenarios", "run", "--jobs", "2", "--seed", "5",
                     "--stack", "rina", "gen:2"]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out and "byte-identical" in out

    def test_scenarios_jobs_validation_matches_experiments(self, capsys):
        assert main(["scenarios", "run", "--jobs", "-1", "fault-storm"]) == 2
        assert "worker count" in capsys.readouterr().err
