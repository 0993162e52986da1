"""The logical-task to physical-PE mapping the runtime migrates."""

from .mapping import Mapping

__all__ = ["Mapping"]
