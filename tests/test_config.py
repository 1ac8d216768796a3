"""Tests for ArpPathConfig validation."""

import pytest

from repro.core.config import ArpPathConfig, DEFAULT_CONFIG


class TestDefaults:
    def test_default_is_valid(self):
        assert DEFAULT_CONFIG.lock_timeout > 0

    def test_default_proxy_off(self):
        assert not DEFAULT_CONFIG.proxy_enabled

    def test_default_repair_on(self):
        assert DEFAULT_CONFIG.repair_enabled

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.lock_timeout = 5.0


class TestValidation:
    def test_rejects_zero_lock_timeout(self):
        with pytest.raises(ValueError):
            ArpPathConfig(lock_timeout=0)

    def test_rejects_negative_learnt_timeout(self):
        with pytest.raises(ValueError):
            ArpPathConfig(learnt_timeout=-1)

    def test_rejects_zero_guard_timeout(self):
        with pytest.raises(ValueError):
            ArpPathConfig(guard_timeout=0)

    def test_rejects_zero_hello_interval(self):
        with pytest.raises(ValueError):
            ArpPathConfig(hello_interval=0)

    def test_rejects_hold_below_interval(self):
        with pytest.raises(ValueError):
            ArpPathConfig(hello_interval=2.0, hello_hold=1.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            ArpPathConfig(repair_retries=-1)

    def test_rejects_zero_retry_timeout(self):
        with pytest.raises(ValueError):
            ArpPathConfig(repair_retry_timeout=0)

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            ArpPathConfig(repair_buffer_size=-1)

    def test_rejects_zero_ttl(self):
        with pytest.raises(ValueError):
            ArpPathConfig(control_ttl=0)

    def test_zero_buffer_allowed(self):
        assert ArpPathConfig(repair_buffer_size=0).repair_buffer_size == 0

    def test_zero_retries_allowed(self):
        assert ArpPathConfig(repair_retries=0).repair_retries == 0
