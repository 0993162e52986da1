"""Logger hierarchy and CLI verbosity wiring."""

from __future__ import annotations

import io
import logging

import pytest

from repro.obs import (
    ROOT_LOGGER_NAME,
    configure_logging,
    get_logger,
    level_for_verbosity,
)
from repro.obs import log as log_module


@pytest.fixture(autouse=True)
def restore_logging_config():
    """Put the package logger back to its pre-test handler arrangement."""
    root = logging.getLogger(ROOT_LOGGER_NAME)
    saved = (list(root.handlers), root.level, root.propagate, log_module._HANDLER)
    yield
    root.handlers[:] = saved[0]
    root.setLevel(saved[1])
    root.propagate = saved[2]
    log_module._HANDLER = saved[3]


class TestHierarchy:
    def test_root_logger(self):
        assert get_logger().name == "repro"

    def test_child_suffix(self):
        assert get_logger("campaign").name == "repro.campaign"

    def test_absolute_dotted_name_passes_through(self):
        assert get_logger("repro.analysis.report").name == "repro.analysis.report"

    def test_children_inherit_root_level(self):
        configure_logging(verbosity=1, stream=io.StringIO())
        assert get_logger("campaign").getEffectiveLevel() == logging.INFO


class TestVerbosityMapping:
    @pytest.mark.parametrize(
        "verbosity,level",
        [
            (-2, logging.ERROR),
            (-1, logging.ERROR),
            (0, logging.WARNING),
            (1, logging.INFO),
            (2, logging.DEBUG),
            (5, logging.DEBUG),
        ],
    )
    def test_mapping(self, verbosity, level):
        assert level_for_verbosity(verbosity) == level


class TestConfigureLogging:
    def test_writes_to_given_stream(self):
        stream = io.StringIO()
        configure_logging(verbosity=1, stream=stream)
        get_logger("campaign").info("evaluating %d job(s)", 4)
        assert "repro.campaign" in stream.getvalue()
        assert "evaluating 4 job(s)" in stream.getvalue()

    def test_default_verbosity_silences_info(self):
        stream = io.StringIO()
        configure_logging(verbosity=0, stream=stream)
        get_logger("campaign").info("should not appear")
        get_logger("campaign").warning("should appear")
        output = stream.getvalue()
        assert "should not appear" not in output
        assert "should appear" in output

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        configure_logging(verbosity=1, stream=first)
        configure_logging(verbosity=1, stream=second)
        get_logger().info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_unconfigured_library_import_is_silent(self):
        # The NullHandler installed at import keeps "no handler" warnings away.
        root = logging.getLogger(ROOT_LOGGER_NAME)
        assert any(
            isinstance(handler, logging.NullHandler) for handler in root.handlers
        )
