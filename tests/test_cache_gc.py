"""Cache housekeeping suite: GC pruning, quarantine handling, CLI surface.

Covers the :meth:`~repro.runner.cache.ResultCache.gc` age/size pruning and
quarantine sweep, the ``python -m repro.runner cache`` subcommand built on
them, and the policy-table quarantine fix: a corrupt cached table must be
*moved* to ``quarantine/`` (the ResultCache convention) and counted, never
silently overwritten in place.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.api.config import SenderConfig
from repro.api.policy import (
    load_or_precompute_policy_table,
    policy_table_cache_path,
    table_quarantine_count,
)
from repro.inference import single_link_prior
from repro.runner import ResultCache, grid, run_specs
from repro.runner.cli import main as cli_main

#: Cheap built-in grid used to populate caches (sub-second per point).
SPECS = grid("single_link_tcp", base={"duration": 2.0}, loss_rate=(0.0, 0.05))


def populate(cache_dir: Path) -> ResultCache:
    cache = ResultCache(cache_dir)
    run_specs(SPECS, cache=cache)
    return cache


def age_files(cache: ResultCache, seconds: float) -> None:
    """Back-date every artifact so age-based pruning has something to cut."""
    stamp = time.time() - seconds
    for path in cache.artifact_files():
        os.utime(path, (stamp, stamp))


class TestResultCacheGC:
    def test_stats_counts_entries_and_quarantine(self, tmp_path):
        cache = populate(tmp_path)
        stats = cache.stats()
        assert stats.entries == len(SPECS)
        assert stats.bytes > 0
        assert stats.quarantined == 0

        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        (quarantine / "bad.json").write_text("{broken")
        stats = cache.stats()
        assert stats.quarantined == 1
        assert stats.quarantined_bytes > 0

    def test_age_prune_removes_only_old_entries(self, tmp_path):
        cache = populate(tmp_path)
        age_files(cache, seconds=10 * 86_400)
        # A fresh entry written now must survive a 5-day cutoff.
        fresh = run_specs(
            grid("single_link_tcp", base={"duration": 2.0}, loss_rate=(0.1,)),
            cache=cache,
        )
        assert len(fresh) == 1

        report = cache.gc(max_age_s=5 * 86_400)
        assert not report.dry_run
        assert len(report.removed) == len(SPECS)
        assert report.freed_bytes > 0
        assert cache.stats().entries == 1

    def test_size_prune_removes_oldest_first(self, tmp_path):
        cache = populate(tmp_path)
        paths = sorted(cache.artifact_files(), key=lambda p: p.stat().st_mtime)
        # Make the first artifact clearly the oldest.
        stamp = time.time() - 3_600
        os.utime(paths[0], (stamp, stamp))
        total = sum(path.stat().st_size for path in cache.artifact_files())
        keep = total - paths[0].stat().st_size

        report = cache.gc(max_total_bytes=keep)
        assert [path.name for path in report.removed] == [paths[0].name]
        assert cache.stats().entries == len(SPECS) - 1

    def test_dry_run_touches_nothing(self, tmp_path):
        cache = populate(tmp_path)
        age_files(cache, seconds=10 * 86_400)
        report = cache.gc(max_age_s=0.0, dry_run=True)
        assert report.dry_run
        assert len(report.removed) == len(SPECS)
        assert cache.stats().entries == len(SPECS)  # nothing actually pruned

    def test_quarantine_sweep(self, tmp_path):
        cache = populate(tmp_path)
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        (quarantine / "old-corruption.json").write_text("{broken")

        untouched = cache.gc(max_age_s=10 * 86_400)
        assert untouched.quarantine_removed == []
        assert (quarantine / "old-corruption.json").exists()

        swept = cache.gc(sweep_quarantine=True)
        assert len(swept.quarantine_removed) == 1
        assert swept.quarantine_freed_bytes > 0
        assert not (quarantine / "old-corruption.json").exists()
        assert cache.stats().entries == len(SPECS)  # artifacts untouched

    def test_corpus_blobs_prune_but_manifest_survives(self, tmp_path):
        """Corpus trace blobs are regenerable artifacts; the manifest is not."""
        from repro.corpus import CorpusStore

        cache = populate(tmp_path)
        store = CorpusStore(tmp_path / "corpus")
        store.register_generator("mk", "markov_onoff", {"duration": 10.0}, seed=1)
        store.register_generator("dd", "diurnal", {"duration": 10.0}, seed=2)

        stats = cache.stats()
        assert stats.corpus_entries == 2
        assert stats.corpus_bytes > 0
        # Result entries and corpus blobs are counted separately.
        assert stats.entries == len(SPECS)

        age_files(cache, seconds=10 * 86_400)
        for path in cache.corpus_files():
            stamp = time.time() - 10 * 86_400
            os.utime(path, (stamp, stamp))
        report = cache.gc(max_age_s=5 * 86_400)
        assert len(report.removed) == len(SPECS) + 2
        assert cache.corpus_manifest_path().exists()
        assert cache.stats().corpus_entries == 0

        # The store transparently rebuilds a pruned generator blob.
        rebuilt = store.get("mk")
        assert rebuilt.digest == store.digest_of("mk")
        assert cache.stats().corpus_entries == 1

    def test_corpus_manifest_survives_total_prune(self, tmp_path):
        from repro.corpus import CorpusStore

        cache = ResultCache(tmp_path)
        store = CorpusStore(tmp_path / "corpus")
        store.register_generator("mk", "markov_onoff", {"duration": 10.0}, seed=1)
        cache.gc(max_age_s=0.0, max_total_bytes=0, sweep_quarantine=True)
        assert cache.corpus_manifest_path().exists()
        assert store.names() == ["mk"]

    def test_journal_is_never_pruned(self, tmp_path):
        """The sweep journal records history, not regenerable artifacts."""
        cache = populate(tmp_path)
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir(exist_ok=True)
        marker = journal_dir / "sweep-abc123.jsonl"
        marker.write_text('{"event": "point_done"}\n')
        stamp = time.time() - 365 * 86_400
        os.utime(marker, (stamp, stamp))

        cache.gc(max_age_s=0.0, max_total_bytes=0, sweep_quarantine=True)
        assert marker.exists()


class TestCacheCli:
    def test_list_reports_stats(self, tmp_path, capsys):
        populate(tmp_path)
        assert cli_main(["cache", "--cache-dir", str(tmp_path), "list"]) == 0
        output = capsys.readouterr().out
        assert f"cache: {tmp_path}" in output
        assert f"entries: {len(SPECS)}" in output
        assert "quarantined: 0" in output

    def test_list_reports_corpus_traces(self, tmp_path, capsys):
        from repro.corpus import CorpusStore

        populate(tmp_path)
        CorpusStore(tmp_path / "corpus").register_generator(
            "mk", "markov_onoff", {"duration": 10.0}, seed=1
        )
        assert cli_main(["cache", "--cache-dir", str(tmp_path), "list"]) == 0
        output = capsys.readouterr().out
        assert "corpus traces: 1" in output
        assert "manifest never pruned" in output

    def test_prune_by_age_and_quarantine(self, tmp_path, capsys):
        cache = populate(tmp_path)
        age_files(cache, seconds=10 * 86_400)
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        (quarantine / "bad.json").write_text("{broken")

        code = cli_main(
            [
                "cache", "--cache-dir", str(tmp_path), "prune",
                "--max-age-days", "5", "--sweep-quarantine",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"removed: {len(SPECS)} entr(ies)" in output
        assert "quarantine removed: 1 file(s)" in output
        assert cache.stats().entries == 0
        assert cache.stats().quarantined == 0

    def test_prune_dry_run_leaves_cache_alone(self, tmp_path, capsys):
        cache = populate(tmp_path)
        age_files(cache, seconds=10 * 86_400)
        code = cli_main(
            [
                "cache", "--cache-dir", str(tmp_path), "prune",
                "--max-age-days", "0", "--dry-run",
            ]
        )
        assert code == 0
        assert "would remove" in capsys.readouterr().out
        assert cache.stats().entries == len(SPECS)

    def test_prune_without_criteria_is_a_usage_error(self, tmp_path, capsys):
        populate(tmp_path)
        assert cli_main(["cache", "--cache-dir", str(tmp_path), "prune"]) == 2
        assert "at least one criterion" in capsys.readouterr().err

    def test_missing_cache_dir_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cli_main(["cache", "list"]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestPolicyTableQuarantine:
    """The satellite fix: corrupt cached tables are quarantined, not
    silently recomputed over."""

    def fast_config(self) -> SenderConfig:
        return SenderConfig(
            prior=single_link_prior(link_rate_points=2, fill_points=1),
            top_k=4,
            max_hypotheses=32,
            belief_backend="vectorized",
            rollout_backend="vectorized",
            policy="table",
        )

    PRECOMPUTE = dict(pilot_duration=5.0, burst_levels=(0, 2), seed=2)

    def test_corrupt_cached_table_is_moved_to_quarantine(self, tmp_path):
        config = self.fast_config()
        table = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.PRECOMPUTE
        )
        assert not table.loaded_from_cache
        path = policy_table_cache_path(tmp_path, config, self.PRECOMPUTE)
        assert path.exists()

        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        before = table_quarantine_count()

        healed = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.PRECOMPUTE
        )
        assert not healed.loaded_from_cache  # recomputed, not trusted
        assert healed.size == table.size
        assert table_quarantine_count() == before + 1
        quarantined = tmp_path / "quarantine" / path.name
        assert quarantined.exists()
        assert quarantined.read_bytes() == data[: len(data) // 2]
        assert path.exists()  # the healed recompute wrote a fresh artifact

    def test_fingerprint_mismatch_is_quarantined_too(self, tmp_path):
        config = self.fast_config()
        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.PRECOMPUTE)
        path = policy_table_cache_path(tmp_path, config, self.PRECOMPUTE)
        text = path.read_text().replace(config.fingerprint(), "f" * 16)
        path.write_text(text)
        before = table_quarantine_count()

        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.PRECOMPUTE)
        assert table_quarantine_count() == before + 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_clean_reload_does_not_quarantine(self, tmp_path):
        config = self.fast_config()
        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.PRECOMPUTE)
        before = table_quarantine_count()
        reloaded = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.PRECOMPUTE
        )
        assert reloaded.loaded_from_cache
        assert table_quarantine_count() == before
        assert not (tmp_path / "quarantine").exists()

    def test_table_pruned_before_the_read_is_a_miss_not_corruption(
        self, tmp_path, monkeypatch
    ):
        # `cache prune` racing a loader: the file is there when looked for
        # and gone when read.  That is a miss — nothing was corrupt.
        config = self.fast_config()
        path = policy_table_cache_path(tmp_path, config, self.PRECOMPUTE)
        real_exists = Path.exists
        monkeypatch.setattr(
            Path, "exists", lambda self, **kw: self == path or real_exists(self, **kw)
        )
        before = table_quarantine_count()
        table = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.PRECOMPUTE
        )
        monkeypatch.undo()
        assert not table.loaded_from_cache
        assert table_quarantine_count() == before
        assert not (tmp_path / "quarantine").exists()
