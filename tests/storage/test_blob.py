"""Unit tests for blob stores."""

import builtins
import os

import pytest

from repro.errors import StorageError
from repro.storage import DirectoryBlobStore, MemoryBlobStore, StoredBlob


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryBlobStore()
    return DirectoryBlobStore(str(tmp_path / "blobs"))


class TestBlobStore:
    def test_put_get_roundtrip(self, store):
        store.put("a/p1.jig", b"hello")
        assert store.get("a/p1.jig") == b"hello"
        assert store.size("a/p1.jig") == 5

    def test_overwrite(self, store):
        store.put("k", b"one")
        store.put("k", b"two!")
        assert store.get("k") == b"two!"
        assert store.size("k") == 4

    def test_missing_key_raises(self, store):
        with pytest.raises(StorageError):
            store.get("missing")
        with pytest.raises(StorageError):
            store.size("missing")

    def test_missing_key_error_names_the_key(self, store):
        """Both stores must raise the same StorageError, carrying the key —
        callers (retry loops, logs) rely on the message naming the blob."""
        with pytest.raises(StorageError, match="'absent/blob.jig'"):
            store.get("absent/blob.jig")
        with pytest.raises(StorageError, match="'absent/blob.jig'"):
            store.size("absent/blob.jig")

    def test_key_prefix_directory_is_not_a_blob(self, store):
        """A key naming another key's parent 'directory' is absent on both
        stores (the directory store must not raise IsADirectoryError)."""
        store.put("dir/y", b"cdef")
        with pytest.raises(StorageError, match="'dir'"):
            store.get("dir")
        assert "dir" not in store

    def test_contains(self, store):
        store.put("k", b"x")
        assert "k" in store
        assert "nope" not in store

    def test_delete_is_idempotent(self, store):
        store.put("k", b"x")
        store.delete("k")
        store.delete("k")
        assert "k" not in store

    def test_keys_and_total_bytes(self, store):
        store.put("x", b"ab")
        store.put("dir/y", b"cdef")
        assert sorted(store.keys()) == ["dir/y", "x"]
        assert store.total_bytes() == 6


class TestDirectoryStore:
    def test_rejects_escaping_keys(self, tmp_path):
        store = DirectoryBlobStore(str(tmp_path / "root"))
        with pytest.raises(StorageError):
            store.put("../escape", b"x")

    @pytest.mark.overwrites_blobs  # the store API itself permits a re-put
    def test_failed_write_leaves_the_live_blob_whole(self, tmp_path, monkeypatch):
        """``put`` goes through a temp file + ``os.replace``: a writer dying
        mid-stream neither tears the live key nor leaves a listed file."""
        store = DirectoryBlobStore(str(tmp_path / "root"))
        store.put("dir/p1.jig", b"old-bytes")
        real_open = builtins.open

        class DyingWriter:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError("disk full")

        def dying_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return DyingWriter(handle) if "w" in mode else handle

        monkeypatch.setattr(builtins, "open", dying_open)
        with pytest.raises(OSError, match="disk full"):
            store.put("dir/p1.jig", b"new-bytes-that-never-land")
        with pytest.raises(OSError, match="disk full"):
            store.put("dir/p2.jig", b"never-visible")
        monkeypatch.undo()
        assert store.get("dir/p1.jig") == b"old-bytes"
        assert "dir/p2.jig" not in store
        assert sorted(store.keys()) == ["dir/p1.jig"]
        assert os.listdir(tmp_path / "root" / "dir") == ["p1.jig"]

    def test_temp_file_of_a_killed_writer_is_not_a_key(self, tmp_path):
        store = DirectoryBlobStore(str(tmp_path / "root"))
        store.put("dir/p1.jig", b"abc")
        orphan = tmp_path / "root" / "dir" / f"{store._TEMP_PREFIX}123-456-p2.jig"
        orphan.write_bytes(b"torn")
        assert sorted(store.keys()) == ["dir/p1.jig"]
        assert store.total_bytes() == 3


class TestStoredBlob:
    def test_memory_store_hands_out_the_object_it_keeps(self):
        store = MemoryBlobStore()
        payload = b"payload"
        store.put("k", payload)
        blob = store.get("k")
        assert isinstance(blob, StoredBlob) and blob == payload
        assert store.get("k") is blob
        assert not blob.crc_verified

    def test_every_put_stores_a_fresh_unverified_object(self):
        store = MemoryBlobStore()
        store.put("k", b"payload")
        first = store.get("k")
        first.crc_verified = True
        store.put("k", first)  # e.g. a rewrite that changed nothing
        assert store.get("k") is not first
        assert not store.get("k").crc_verified

    def test_directory_store_reads_carry_no_verdict(self, tmp_path):
        store = DirectoryBlobStore(str(tmp_path / "root"))
        store.put("k", b"payload")
        assert type(store.get("k")) is bytes
