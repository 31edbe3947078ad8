"""Content-addressed result store behaviour."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.explore.store import ResultStore, code_version, result_key
from repro.params import VAX780


class TestResultKey:
    def test_stable(self):
        a = result_key(VAX780, "timesharing-research", 1500, 1984)
        b = result_key(VAX780, "timesharing-research", 1500, 1984)
        assert a == b and len(a) == 64

    def test_every_input_is_load_bearing(self):
        base = result_key(VAX780, "w", 1500, 1984, code="c0")
        assert result_key(VAX780.with_overrides(cache_bytes=4096),
                          "w", 1500, 1984, code="c0") != base
        assert result_key(VAX780, "other", 1500, 1984, code="c0") != base
        assert result_key(VAX780, "w", 3000, 1984, code="c0") != base
        assert result_key(VAX780, "w", 1500, 7, code="c0") != base
        assert result_key(VAX780, "w", 1500, 1984, code="c1") != base

    def test_code_version_shape(self):
        version = code_version()
        assert len(version) == 16
        assert int(version, 16) >= 0
        assert code_version() == version


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        assert key not in store
        assert store.get(key) is None
        record = {"cycles": 42, "cells": {"DECODE": {"COMPUTE": 7}}}
        store.put(key, record)
        assert key in store
        assert store.get(key) == record
        assert len(store) == 1

    def test_hit_miss_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.get(key)
        store.put(key, {"cycles": 1})
        store.get(key)
        assert store.misses == 1 and store.hits == 1

    def test_corrupt_record_warns_and_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})
        path = store._path(key)
        path.write_text("{truncated")
        with pytest.warns(UserWarning, match="unreadable store entry"):
            assert store.get(key) is None
        assert store.misses == 1

    def test_absent_record_misses_silently(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None
        assert store.misses == 1

    def test_records_are_valid_sorted_json(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"b": 2, "a": 1})
        text = store._path(key).read_text()
        assert json.loads(text) == {"a": 1, "b": 2}
        assert text.index('"a"') < text.index('"b"')

    def test_no_temp_file_left_behind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})
        leftovers = [p for p in (tmp_path / "store").rglob("*")
                     if p.is_file() and p.suffix != ".json"]
        assert leftovers == []


class TestCheck:
    def test_creates_a_missing_root(self, tmp_path):
        store = ResultStore(tmp_path / "a" / "b")
        store.check()
        assert (tmp_path / "a" / "b" / "objects").is_dir()
        assert len(store) == 0

    def test_root_under_a_regular_file_is_refused(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(NotADirectoryError):
            ResultStore(tmp_path / "file" / "store").check()

    def test_unwritable_root_is_refused(self, tmp_path, monkeypatch):
        # Simulated: a superuser may write anywhere, so chmod cannot.
        monkeypatch.setattr("repro.explore.store.os.access",
                            lambda path, mode: False)
        with pytest.raises(PermissionError, match="cannot write"):
            ResultStore(tmp_path / "store").check()


class TestQuarantine:
    def test_corrupt_entry_is_renamed_aside(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})
        path = store._path(key)
        path.write_text("{truncated")
        with pytest.warns(UserWarning, match="quarantined as"):
            assert store.get(key) is None
        assert not path.exists()
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_text() == "{truncated"

    def test_quarantined_entry_warns_only_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})
        store._path(key).write_text("{truncated")
        with pytest.warns(UserWarning):
            store.get(key)
        # The poisoned file is gone, so the next read is an ordinary
        # silent miss — no warning spam on every lookup.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) is None

    def test_key_is_writable_again_after_quarantine(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})
        store._path(key).write_text("{truncated")
        with pytest.warns(UserWarning):
            store.get(key)
        store.put(key, {"cycles": 2})
        assert store.get(key) == {"cycles": 2}
        assert store.stats()["quarantined"] == 1


class TestStats:
    def test_empty_store(self, tmp_path):
        stats = ResultStore(tmp_path / "store").stats()
        assert stats == {"entries": 0, "bytes": 0, "quarantined": 0,
                         "versions": {}, "machines": {},
                         "workloads": {}}

    def test_counts_bytes_and_version_buckets(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for n, code in enumerate(("c0", "c0", "c1")):
            key = result_key(VAX780, f"w{n}", 100, 1, code=code)
            store.put(key, {"schema": 1, "code": code, "cycles": n})
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(
            path.stat().st_size for path in
            (tmp_path / "store" / "objects").glob("*/*.json"))
        assert stats["versions"] == {"schema=1 code=c0": 2,
                                     "schema=1 code=c1": 1}

    def test_legacy_records_land_in_unknown_bucket(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key(VAX780, "w", 100, 1, code="c")
        store.put(key, {"cycles": 1})      # no schema/code fields
        assert store.stats()["versions"] == {"schema=? code=?": 1}

    def test_quarantined_files_counted_not_bucketed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        good = result_key(VAX780, "good", 100, 1, code="c")
        bad = result_key(VAX780, "bad", 100, 1, code="c")
        store.put(good, {"schema": 1, "code": "c"})
        store.put(bad, {"schema": 1, "code": "c"})
        store._path(bad).write_text("{truncated")
        with pytest.warns(UserWarning):
            store.get(bad)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["quarantined"] == 1
        assert sum(stats["versions"].values()) == 1

    def test_sweep_records_carry_their_version(self, smoke_store,
                                               smoke_sweep):
        """The runner stamps schema/code into every record, so a real
        sweep's store breaks down into exactly one version bucket."""
        from repro.explore.store import SCHEMA, code_version

        stats = smoke_store.stats()
        assert stats["entries"] == len(smoke_store)
        label = f"schema={SCHEMA} code={code_version()}"
        assert stats["versions"] == {label: stats["entries"]}


class TestHashedPaths:
    """Every module of the package shapes the code-version digest.

    A module left out of the digest would let a warm store serve records
    and documents the current code does not produce — the very bug class
    the digest exists to prevent — so a planted edit to an observer or a
    presenter must change it as surely as one to the cycle model.
    """

    #: The sweep record builder, a table renderer, a conservation law,
    #: the metrics registry, serve's canonicalization, a refutation, the
    #: CLI, the facade and the cycle model.
    PLANTED = ("explore/runner.py", "report/format.py",
               "validate/invariants.py", "obs/metrics.py",
               "serve/canonical.py", "refute/assumptions.py", "cli.py",
               "api.py", "cpu/ebox.py")

    def test_result_shaping_modules_are_hashed(self, tmp_path):
        import repro

        package = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def version() -> str:
            done = subprocess.run(
                [sys.executable, "-c",
                 "from repro.explore.store import code_version; "
                 "print(code_version())"],
                env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                cwd=tmp_path, capture_output=True, text=True,
                timeout=120, check=True)
            return done.stdout.strip()

        base = version()
        assert base == code_version()
        for rel in self.PLANTED:
            path = package / rel
            source = path.read_bytes()
            path.write_bytes(source + b"# planted edit\n")
            try:
                assert version() != base, rel
            finally:
                path.write_bytes(source)
        assert version() == base
