"""Structured logging for the ``repro`` package.

One logger hierarchy rooted at ``repro``: every module asks
:func:`get_logger` for its child logger (``get_logger("campaign")`` →
``repro.campaign``), so one :func:`configure_logging` call — made by the CLI
from its ``-v`` / ``-q`` flags — controls the whole package.

Library use stays silent by default: the root ``repro`` logger carries a
:class:`logging.NullHandler` until :func:`configure_logging` installs a real
stream handler, so importing the package never prints and never triggers the
"no handlers could be found" warning.

Verbosity mapping (``-v`` adds, ``-q`` subtracts):

====================  =========
verbosity             level
====================  =========
``<= -1`` (``-q``)    ERROR
``0`` (default)       WARNING
``1`` (``-v``)        INFO
``>= 2`` (``-vv``)    DEBUG
====================  =========
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

#: Root of the package logger hierarchy.
ROOT_LOGGER_NAME = "repro"

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"
_DATE_FORMAT = "%H:%M:%S"

#: The handler configure_logging installed, so re-configuration replaces it
#: instead of stacking duplicates.
_HANDLER: Optional[logging.Handler] = None

logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The package logger, or a child of it.

    ``name`` may be a child suffix (``"campaign"``), an absolute dotted name
    already under the hierarchy (``"repro.analysis.report"``, the usual
    ``get_logger(__name__)`` spelling), or None for the root.
    """
    if name is None:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def level_for_verbosity(verbosity: int) -> int:
    """Map a ``-v``/``-q`` count to a logging level."""
    if verbosity <= -1:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(
    verbosity: int = 0, stream=None
) -> logging.Logger:
    """Install (or replace) the package's stream handler at the given level.

    Idempotent: repeated calls swap the handler rather than stacking copies,
    so tests and long-lived sessions can re-configure freely.  Returns the
    root package logger.
    """
    global _HANDLER
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if _HANDLER is not None:
        root.removeHandler(_HANDLER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATE_FORMAT))
    root.addHandler(handler)
    root.setLevel(level_for_verbosity(verbosity))
    root.propagate = False
    _HANDLER = handler
    return root
