"""Fixtures shared by the storage tests."""

import zlib
from types import SimpleNamespace

import pytest

from repro.storage import format as format_module


@pytest.fixture()
def crc_calls(monkeypatch):
    """The byte length of every ``zlib.crc32`` call the format module makes
    (reader and writer); clear it after the writes a test sets up with."""
    calls = []

    def counting_crc32(data, value=0):
        calls.append(len(data))
        return zlib.crc32(data, value)

    monkeypatch.setattr(format_module, "zlib", SimpleNamespace(crc32=counting_crc32))
    return calls
