"""Tests for the persistent blueprint store (repro.store)."""

import pickle
import sqlite3

import pytest

import repro.store as store_mod
from repro.core.caching import DistanceCache
from repro.store import (
    BlueprintStore,
    canonical_digest,
    entry_key,
    file_lock,
    shared_store,
    store_dir,
    store_enabled,
)
from repro.html.domain import HtmlDomain
from repro.html.parser import parse_html


def make_store(tmp_path, **kwargs):
    return BlueprintStore(directory=tmp_path / "store", enabled=True, **kwargs)


class TestRoundTrip:
    def test_put_get_same_instance(self, tmp_path):
        store = make_store(tmp_path)
        store.put("doc_bp", "k1", "html", frozenset({"a", "b"}))
        assert store.get("doc_bp", "k1") == frozenset({"a", "b"})

    def test_none_is_a_value_not_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        store.put("roi_bp", "k1", "html", None)
        assert store.get("roi_bp", "k1") is None
        assert store.get("roi_bp", "absent") is BlueprintStore.MISS

    def test_survives_across_instances(self, tmp_path):
        first = make_store(tmp_path)
        first.put("dist", "k1", "html", 0.25)
        first.close()
        second = make_store(tmp_path)
        assert second.get("dist", "k1") == 0.25

    def test_blueprint_values_round_trip_exactly(self, tmp_path):
        summaries = frozenset(
            {("Total", "⊥", "⊤", "Date", "⊥"), ("Date", "⊤", "⊤", "⊥", "⊥")}
        )
        store = make_store(tmp_path)
        store.put("roi_bp", "k", "images", summaries)
        store.close()
        assert make_store(tmp_path).get("roi_bp", "k") == summaries

    def test_disabled_store_never_hits(self, tmp_path):
        store = BlueprintStore(directory=tmp_path, enabled=False)
        store.put("dist", "k", "html", 0.5)
        assert store.get("dist", "k") is BlueprintStore.MISS
        store.flush()
        assert not (tmp_path / "blueprints.sqlite").exists()


class TestEnvKnobs:
    def test_repro_store_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert store_enabled()
        monkeypatch.setenv("REPRO_STORE", "0")
        assert not store_enabled()

    def test_store_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "custom"))
        assert store_dir() == tmp_path / "custom"

    def test_shared_store_tracks_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "one"))
        first = shared_store()
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "two"))
        second = shared_store()
        assert first is not second
        assert second.directory == tmp_path / "two"


class TestKeyDerivation:
    def test_algo_version_bump_invalidates_keys(self, monkeypatch):
        """The stale-cache guard: bumping the constant changes every key."""
        before = entry_key("html", "doc_bp", "fingerprint")
        monkeypatch.setattr(
            store_mod,
            "BLUEPRINT_ALGO_VERSION",
            store_mod.BLUEPRINT_ALGO_VERSION + 1,
        )
        after = entry_key("html", "doc_bp", "fingerprint")
        assert before != after

    def test_keys_partition_by_substrate_and_kind(self):
        assert entry_key("html", "dist", "a", "b") != entry_key(
            "images", "dist", "a", "b"
        )
        assert entry_key("html", "dist", "a") != entry_key("html", "doc_bp", "a")

    def test_keys_independent_of_runtime_knobs(self, monkeypatch):
        """REPRO_SCALE / REPRO_JOBS must never leak into store keys."""
        html = "<html><body><p>Depart: 8:18 PM</p></body></html>"
        domain = HtmlDomain()

        def keys():
            doc = parse_html(html)
            return (
                domain.document_fingerprint(doc),
                entry_key(
                    domain.substrate,
                    "doc_bp",
                    domain.document_fingerprint(doc),
                ),
            )

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_JOBS", "1")
        small = keys()
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        monkeypatch.setenv("REPRO_JOBS", "8")
        large = keys()
        assert small == large

    def test_canonical_digest_ignores_set_order(self):
        # Equal frozensets digest identically even though pickle and
        # iteration order differ between equal sets built differently.
        a = frozenset(["x", "y", "z"])
        b = frozenset(["z", "x", "y"])
        assert canonical_digest(a) == canonical_digest(b)
        assert canonical_digest(a) != canonical_digest(frozenset(["x", "y"]))

    def test_canonical_digest_nested_structures(self):
        a = frozenset({("g", "⊥", "⊤"), ("h", 1, 2.5)})
        b = frozenset({("h", 1, 2.5), ("g", "⊥", "⊤")})
        assert canonical_digest(a) == canonical_digest(b)


class TestAsymmetricOrientationKeys:
    """Image-metric orientation: d(a, b) != d(b, a) needs two L2 entries."""

    class AsymmetricDomain(HtmlDomain):
        substrate = "asym-test"
        symmetric_distance = False

        def blueprint_distance(self, bp1, bp2):
            return 0.25 if len(bp1) <= len(bp2) else 0.75

    class SymmetricDomain(HtmlDomain):
        substrate = "sym-test"

    def test_orientations_stored_separately(self, tmp_path):
        domain = self.AsymmetricDomain()
        store = make_store(tmp_path)
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        cache = DistanceCache(domain, enabled=True, store=store)
        assert cache.distance(bp_a, bp_b) == 0.25
        assert cache.distance(bp_b, bp_a) == 0.75
        store.flush()
        # A fresh cache over the same store must serve each orientation
        # its own value.
        warm = DistanceCache(domain, enabled=True, store=store)
        assert warm.distance(bp_a, bp_b) == 0.25
        assert warm.distance(bp_b, bp_a) == 0.75
        assert warm.store_hit_counts.get("dist") == 2

    def test_symmetric_domain_shares_one_entry(self, tmp_path):
        domain = self.SymmetricDomain()
        store = make_store(tmp_path)
        cache = DistanceCache(domain, enabled=True, store=store)
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        value = cache.distance(bp_a, bp_b)
        store.flush()
        warm = DistanceCache(domain, enabled=True, store=store)
        # Reversed orientation is served from the single normalized entry.
        assert warm.distance(bp_b, bp_a) == value
        assert warm.store_hit_counts.get("dist") == 1

    def test_orientation_key_shape(self, tmp_path):
        domain = self.AsymmetricDomain()
        cache = DistanceCache(domain, enabled=True, store=make_store(tmp_path))
        bp_a, bp_b = frozenset({"x"}), frozenset({"x", "y"})
        assert cache._distance_key(bp_a, bp_b) != cache._distance_key(
            bp_b, bp_a
        )
        symmetric = DistanceCache(
            self.SymmetricDomain(), enabled=True, store=make_store(tmp_path)
        )
        assert symmetric._distance_key(bp_a, bp_b) == symmetric._distance_key(
            bp_b, bp_a
        )


class TestHygiene:
    def test_schema_version_mismatch_wipes(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.flush()
        conn = store._connect()
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        conn.commit()
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.get("dist", "k") is BlueprintStore.MISS

    def test_stats_and_clear(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "k1", "html", 0.5)
        store.put("doc_bp", "k2", "html", frozenset({"a"}))
        stats = store.stats()
        assert stats["entries"] == 2
        assert sorted(stats["by_kind"]) == ["html/dist", "html/doc_bp"]
        for detail in stats["by_kind"].values():
            assert detail["entries"] == 1
            assert detail["bytes"] > 0
        assert stats["payload_bytes"] == sum(
            detail["bytes"] for detail in stats["by_kind"].values()
        )
        assert stats["schema_version"] == store_mod.SCHEMA_VERSION
        assert stats["algo_version"] == store_mod.BLUEPRINT_ALGO_VERSION
        store.clear()
        assert store.stats()["entries"] == 0
        assert store.get("dist", "k1") is BlueprintStore.MISS

    def test_corrupt_value_is_skipped(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "good", "html", 0.5)
        store.flush()
        conn = store._connect()
        conn.execute(
            "INSERT OR REPLACE INTO entries"
            " (key, kind, substrate, value, created, last_used, size, codec)"
            " VALUES ('bad', 'dist', 'html', ?, 0, 0, 12, 'raw')",
            (b"not a pickle",),
        )
        conn.commit()
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.get("dist", "bad") is BlueprintStore.MISS
        assert reopened.get("dist", "good") == 0.5

    def test_file_lock_serializes(self, tmp_path):
        # Smoke test: the lock context is reentrant-free and releases.
        lock = tmp_path / "store.lock"
        with file_lock(lock):
            pass
        with file_lock(lock):
            pass
        assert lock.exists()


class TestCli:
    def test_stats_command(self, tmp_path, capsys):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.close()
        assert store_mod.main(["--dir", str(tmp_path / "store"), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:  1" in out
        assert "html/dist: 1 entries" in out
        assert "bytes" in out

    def test_clear_command(self, tmp_path, capsys):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.5)
        store.close()
        assert store_mod.main(["--dir", str(tmp_path / "store"), "clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert make_store(tmp_path).get("dist", "k") is BlueprintStore.MISS


def _corpus_like_value():
    """A corpus-shaped payload with the redundancy real corpora have."""
    documents = [
        f"<html><body><table><tr><td>Depart:</td><td>{hour}:{minute:02d} PM"
        "</td></tr><tr><td>Arrive:</td><td>LAX</td></tr></table>"
        "</body></html>"
        for hour in range(1, 11)
        for minute in range(0, 60, 7)
    ]
    return (False, documents)


class TestCompression:
    def test_corpus_kind_round_trips_compressed(self, tmp_path):
        value = _corpus_like_value()
        store = make_store(tmp_path)
        store.put("corpus", "k", "corpus", value, eager=True)
        store.flush()
        row = store._connect().execute(
            "SELECT codec, size, value FROM entries WHERE key = 'k'"
        ).fetchone()
        assert row[0] == "zlib"
        assert row[1] == len(row[2])
        # The acceptance bar: the stored footprint shrinks >= 2x vs the
        # raw pickle the store used to write.
        assert row[1] * 2 <= len(pickle.dumps(value))
        store.close()
        # Cross-instance read decodes per the row's codec.
        assert make_store(tmp_path).get("corpus", "k") == value

    def test_small_kinds_stay_raw(self, tmp_path):
        store = make_store(tmp_path)
        store.put("dist", "k", "html", 0.25)
        store.flush()
        codec = store._connect().execute(
            "SELECT codec FROM entries WHERE key = 'k'"
        ).fetchone()[0]
        assert codec == "raw"

    def test_codec_knob_disables_compression(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CODEC", "raw")
        store = make_store(tmp_path)
        value = _corpus_like_value()
        store.put("corpus", "k", "corpus", value)
        store.flush()
        codec = store._connect().execute(
            "SELECT codec FROM entries WHERE key = 'k'"
        ).fetchone()[0]
        assert codec == "raw"
        store.close()
        # Raw rows read back fine with the knob unset again.
        monkeypatch.delenv("REPRO_STORE_CODEC")
        assert make_store(tmp_path).get("corpus", "k") == value

    def test_codec_knob_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CODEC", "lz4")
        with pytest.raises(ValueError, match="REPRO_STORE_CODEC"):
            store_mod.store_codec()

    def test_v2_store_migrates_in_place(self, tmp_path):
        """A schema-v2 database (pre-codec) keeps its entries readable."""
        directory = tmp_path / "store"
        directory.mkdir(parents=True)
        conn = sqlite3.connect(directory / "blueprints.sqlite")
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO meta VALUES ('schema_version', '2')")
        conn.execute(
            "CREATE TABLE entries ("
            " key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
            " substrate TEXT NOT NULL, value BLOB NOT NULL,"
            " created REAL NOT NULL, last_used REAL NOT NULL,"
            " size INTEGER NOT NULL)"
        )
        old_corpus = _corpus_like_value()
        for key, kind, value in (
            ("c", "corpus", old_corpus),
            ("d", "dist", 0.5),
        ):
            blob = pickle.dumps(value)
            conn.execute(
                "INSERT INTO entries VALUES (?, ?, 'html', ?, 0, 0, ?)",
                (key, kind, blob, len(blob)),
            )
        conn.commit()
        conn.close()

        store = BlueprintStore(directory=directory, enabled=True)
        # Old uncompressed entries are served (codec defaulted to raw)...
        assert store.get("corpus", "c") == old_corpus
        assert store.get("dist", "d") == 0.5
        assert store.stats()["schema_version"] == store_mod.SCHEMA_VERSION
        # ...and new corpus writes compress alongside them.
        store.put("corpus", "new", "corpus", old_corpus)
        store.flush()
        codecs = dict(
            store._connect().execute(
                "SELECT key, codec FROM entries WHERE kind = 'corpus'"
            ).fetchall()
        )
        assert codecs == {"c": "raw", "new": "zlib"}

    def test_eviction_budgets_against_compressed_bytes(self, tmp_path):
        """A budget that fits the compressed payload evicts nothing, even
        though the raw pickles would blow it many times over."""
        value = _corpus_like_value()
        raw_size = len(pickle.dumps(value))
        store = make_store(tmp_path)
        for index in range(4):
            store.put("corpus", f"k{index}", "corpus", (index, value))
        store.flush()
        payload = store.stats()["payload_bytes"]
        assert payload * 2 <= 4 * raw_size
        # Forget the touched-key protection so eviction *could* act.
        store._touched = set()
        budget = max(payload * 2, 4096)
        assert budget < 4 * raw_size
        evicted, _ = store.evict(budget)
        assert evicted == 0
        assert store.stats()["entries"] == 4


class TestDistanceCacheL2:
    def test_doc_blueprint_served_across_cache_instances(self, tmp_path):
        domain = HtmlDomain()
        store = make_store(tmp_path)
        html = "<html><body><p>Depart: 8:18 PM</p></body></html>"
        cold_doc = parse_html(html)
        cold = DistanceCache(domain, enabled=True, store=store)
        blueprint = cold.document_blueprint(cold_doc)
        store.flush()
        # A *different document object with identical content* — the
        # content-hash key must hit where the id-keyed L1 cannot.
        warm_doc = parse_html(html)
        warm = DistanceCache(domain, enabled=True, store=store)
        assert warm.document_blueprint(warm_doc) == blueprint
        assert warm.store_hit_counts.get("doc_bp") == 1

    def test_disabled_cache_bypasses_store(self, tmp_path):
        domain = HtmlDomain()
        store = make_store(tmp_path)
        doc = parse_html("<html><body><p>x</p></body></html>")
        cache = DistanceCache(domain, enabled=False, store=store)
        cache.document_blueprint(doc)
        store.flush()
        assert store.stats()["entries"] == 0

    def test_substrate_none_opts_out(self, tmp_path):
        from tests.core.fake_domain import FakeDomain, FakeDoc

        store = make_store(tmp_path)
        cache = DistanceCache(FakeDomain(), enabled=True, store=store)
        cache.distance(frozenset({"a"}), frozenset({"b"}))
        store.flush()
        assert store.stats()["entries"] == 0
