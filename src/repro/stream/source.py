"""Window sources: where an epoch stream comes from.

Two producers feed :class:`repro.stream.engine.StreamingExperiment`:

* :func:`scenario_windows` — walks a compiled scenario's pattern cursors
  lazily over ``[start_epoch, ...)``, emitting fixed-size
  :class:`repro.stream.window.EpochWindow` records without ever
  materialising a whole-horizon schedule (the generator is happy to run
  past ``spec.num_epochs`` forever when ``max_epochs`` is None);
* :func:`jsonl_windows` — parses the JSONL wire format from any iterable of
  lines (a file, a pipe, stdin), one window per line.

Both yield plain :class:`EpochWindow` records, so the engine cannot tell a
named scenario from an external co-simulator.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..scenarios.compile import CompiledScenario, compile_window
from .window import EpochWindow


def scenario_windows(
    compiled: CompiledScenario,
    window_epochs: int,
    max_epochs: Optional[int] = None,
    start_epoch: int = 0,
) -> Iterator[EpochWindow]:
    """Stream a compiled scenario as fixed-size epoch windows.

    Windows cover ``[start_epoch, max_epochs)`` (the final window is trimmed
    to the cap); with ``max_epochs=None`` the stream is unbounded — patterns
    are pure functions of the epoch index, so the cursors never run out.
    """
    if window_epochs < 1:
        raise ValueError("window_epochs must be at least 1")
    if start_epoch < 0:
        raise ValueError("start_epoch must be non-negative")
    if max_epochs is not None and max_epochs < 0:
        raise ValueError("max_epochs must be non-negative")
    if max_epochs is not None and max_epochs <= start_epoch:
        return
    cursor = start_epoch
    while max_epochs is None or cursor < max_epochs:
        end = cursor + window_epochs
        if max_epochs is not None:
            end = min(end, max_epochs)
        yield compile_window(compiled, cursor, end)
        cursor = end


def jsonl_windows(lines: Iterable[str]) -> Iterator[EpochWindow]:
    """Parse an iterable of JSONL lines into epoch windows.

    Blank lines are skipped (so interactive pipes can keep-alive); malformed
    lines raise with the 1-based line number for a useful producer-side
    error.
    """
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield EpochWindow.from_json_line(line)
        except ValueError as error:
            raise ValueError(f"bad epoch-window record on line {number}: {error}")
