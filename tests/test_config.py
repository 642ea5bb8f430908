"""Strict ``REPRO_*`` on/off flag parsing."""

import pytest

from repro import store
from repro.sanitize import sanitizer_enabled
from repro.timing import trace_cache

#: (variable, reader, default) for every on/off flag
FLAGS = [
    ("REPRO_SANITIZE", sanitizer_enabled, False),
    ("REPRO_CACHE", store.enabled, True),
    ("REPRO_CACHE_VERIFY", store.verify_enabled, False),
    ("REPRO_TRACE_CACHE", trace_cache.enabled, True),
]
IDS = [name for name, _read, _default in FLAGS]


@pytest.mark.parametrize("name,read,default", FLAGS, ids=IDS)
def test_unset_empty_and_binary_values(name, read, default, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    assert read() is default
    monkeypatch.setenv(name, "")
    assert read() is default
    monkeypatch.setenv(name, "0")
    assert read() is False
    monkeypatch.setenv(name, "1")
    assert read() is True


@pytest.mark.parametrize("value", ["true", "yes", "2"])
@pytest.mark.parametrize("name,read,default", FLAGS, ids=IDS)
def test_other_values_are_rejected(name, read, default, value,
                                   monkeypatch):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError) as exc:
        read()
    assert name in str(exc.value)
    assert repr(value) in str(exc.value)

