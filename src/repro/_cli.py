"""The ``KEY=VALUE`` parameter parser shared by the command-line tools.

``python -m repro.runner run --set/--sweep`` and ``python -m repro.corpus
generate --set`` read parameters the same way: a key given twice is an
error, never a silent "last one wins".
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError


def parse_value(text: str) -> Any:
    """Parse a CLI parameter value: int, float, bool, or string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def parse_assignments(texts: Sequence[str], flags: str) -> list[tuple[str, str]]:
    """Split ``KEY=VALUE`` texts into ``(key, raw value)`` pairs, in order.

    Raises :class:`~repro.errors.ConfigurationError` for a text without
    ``=`` and for a key given more than once; ``flags`` names the options
    the texts came from, for the message.
    """
    pairs = []
    for text in texts:
        if "=" not in text:
            raise ConfigurationError(f"expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        pairs.append((key.strip(), value))
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigurationError(
                f"parameter {key!r} is given more than once across {flags}; "
                "give each parameter once"
            )
    return pairs
