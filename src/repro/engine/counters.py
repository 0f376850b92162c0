"""Counter dataclasses whose views follow their fields.

:class:`~repro.engine.scheduler.EngineStats` and
:class:`~repro.engine.cache.CacheStats` are plain dataclasses of
numbers and ``{kind: count}`` dicts.  Deriving ``as_dict``,
``snapshot`` and ``delta`` from :func:`dataclasses.fields` means a new
counter needs one line, not one line per view.
"""

from __future__ import annotations

import dataclasses
from typing import Any, TypeVar

C = TypeVar("C", bound="Counters")


class Counters:
    """Mixin for a dataclass of numeric and ``{name: count}`` fields."""

    def _values(self) -> dict[str, Any]:
        """Every field by name; dict fields are copied."""
        values: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values[f.name] = dict(value) if isinstance(value, dict) else value
        return values

    def as_dict(self) -> dict[str, Any]:
        return self._values()

    def snapshot(self: C) -> C:
        """An independent copy (pair with :meth:`delta` to scope the
        cumulative counters to one run)."""
        return type(self)(**self._values())

    def delta(self: C, earlier: C) -> C:
        """Counters accumulated since an earlier snapshot; dict fields
        keep only the keys that changed."""
        values: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            now, then = getattr(self, f.name), getattr(earlier, f.name)
            if isinstance(now, dict):
                values[f.name] = {
                    key: count - then.get(key, 0)
                    for key, count in now.items()
                    if count - then.get(key, 0)
                }
            else:
                values[f.name] = now - then
        return type(self)(**values)
