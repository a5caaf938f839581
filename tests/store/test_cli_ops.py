"""`repro store` operational edges: gc grace windows and verify exit codes.

These drive the CLI entry point (``repro.cli.main``) rather than the
store API, pinning the exit codes and the reaping rules an operator's
cron jobs and CI checks rely on.
"""

import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.store import ContentStore

from test_store_corruption import flip_byte


def _seeded_store(tmp_path, entries=2):
    """A disk store with a few entries; returns (store, root)."""
    root = tmp_path / "cas"
    store = ContentStore(root=root)
    for index in range(entries):
        store.put("stage", f"k{index}", {"x": np.arange(8.0) + index})
    return store, root


class TestGcGraceWindow:
    def test_default_grace_spares_inflight_temp_files(
        self, tmp_path, capsys
    ):
        """A writer's fresh ``.tmp-*`` file survives a default gc; only
        files older than the 60 s grace window are treated as the debris
        of a crashed writer."""
        store, root = _seeded_store(tmp_path)
        bucket = store._entry_path("stage", "k0").parent
        fresh = bucket / ".tmp-inflight"
        fresh.write_bytes(b"partial write")
        stale = bucket / ".tmp-crashed"
        stale.write_bytes(b"older partial write")
        past = time.time() - 120.0
        os.utime(stale, (past, past))

        assert main(["store", "gc", "--dir", str(root)]) == 0
        assert "temp files removed: 1" in capsys.readouterr().out
        assert fresh.exists()
        assert not stale.exists()

    def test_zero_grace_reaps_everything_in_flight(self, tmp_path, capsys):
        store, root = _seeded_store(tmp_path)
        bucket = store._entry_path("stage", "k0").parent
        fresh = bucket / ".tmp-inflight"
        fresh.write_bytes(b"partial write")

        code = main(
            ["store", "gc", "--dir", str(root), "--grace-seconds", "0"]
        )
        assert code == 0
        assert "temp files removed: 1" in capsys.readouterr().out
        assert not fresh.exists()

    def test_gc_enforces_an_explicit_byte_budget(self, tmp_path, capsys):
        _, root = _seeded_store(tmp_path, entries=3)
        assert main(["store", "gc", "--dir", str(root), "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted: 3" in out
        assert "entries: 0" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-bytes", "-5"),
            ("--max-bytes", "1.5"),
            ("--grace-seconds", "-1"),
            ("--grace-seconds", "nan"),
            ("--grace-seconds", "inf"),
        ],
    )
    def test_a_bad_bound_is_a_usage_error_and_removes_nothing(
        self, tmp_path, capsys, flag, value
    ):
        """A negative budget used to evict every entry and exit 0, and a
        negative or NaN grace to reap live writers' files or nothing."""
        store, root = _seeded_store(tmp_path, entries=3)
        inflight = store._entry_path("stage", "k0").parent / ".tmp-inflight"
        inflight.write_bytes(b"partial write")
        with pytest.raises(SystemExit) as info:
            main(["store", "gc", "--dir", str(root), f"{flag}={value}"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert store.disk_report()["entries"] == 3
        assert inflight.exists()


class TestVerifyExitCodes:
    def test_clean_store_verifies_with_exit_zero(self, tmp_path, capsys):
        _, root = _seeded_store(tmp_path)
        assert main(["store", "verify", "--dir", str(root)]) == 0
        assert "checked: 2  ok: 2" in capsys.readouterr().out

    def test_corruption_flips_the_exit_code_but_not_the_files(
        self, tmp_path, capsys
    ):
        """verify is a read-only detector: exit 1 names the corrupt
        entry and leaves it in place for inspection."""
        store, root = _seeded_store(tmp_path)
        bad = store._entry_path("stage", "k1")
        flip_byte(bad, 20)

        assert main(["store", "verify", "--dir", str(root)]) == 1
        out = capsys.readouterr().out
        assert f"corrupt: {bad}" in out
        assert bad.exists()

    def test_gc_heals_what_verify_flagged(self, tmp_path, capsys):
        store, root = _seeded_store(tmp_path)
        bad = store._entry_path("stage", "k1")
        flip_byte(bad, 20)
        assert main(["store", "verify", "--dir", str(root)]) == 1

        assert main(["store", "gc", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "corrupt removed: 1" in out
        assert not bad.exists()

        assert main(["store", "verify", "--dir", str(root)]) == 0
        assert "checked: 1  ok: 1" in capsys.readouterr().out


class TestMissingDir:
    @pytest.mark.parametrize("action", ["stats", "verify", "gc"])
    def test_a_missing_dir_is_a_usage_error_and_creates_nothing(
        self, tmp_path, capsys, action
    ):
        """A typo in ``--dir`` used to create an empty store that then
        verified clean (``checked: 0  ok: 0``, exit 0)."""
        missing = tmp_path / "cas-typo"
        with pytest.raises(SystemExit) as info:
            main(["store", action, "--dir", str(missing)])
        assert info.value.code == 2
        assert "--dir" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("action", ["stats", "verify", "gc"])
    def test_a_file_is_no_store_dir(self, tmp_path, capsys, action):
        path = tmp_path / "not-a-store"
        path.write_bytes(b"data")
        with pytest.raises(SystemExit) as info:
            main(["store", action, "--dir", str(path)])
        assert info.value.code == 2
        assert path.read_bytes() == b"data"
