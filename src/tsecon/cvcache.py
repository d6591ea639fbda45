"""Persistent store for test critical values.

Critical values the underlying theory does not provide in closed form are
derived by Monte Carlo (see :mod:`tsecon.montecarlo`) and cached in a
versioned, human-readable JSON file.  Each entry records the statistic kind,
its deterministic specification, the simulation size, replication count,
seed and generator, the tail direction, and the quantiles at the 10%/5%/1%
levels at minimum.  The published cointegration critical-value table ships
in the same format with provenance ``paper_table``.

Resolution order for the default cache: explicit argument, then the
``TSECON_CV_FILE`` environment variable, then the file packaged with the
library.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

from .errors import DomainError

__all__ = ["FORMAT_VERSION", "CvEntry", "CriticalValueCache", "default_cache", "ENV_VAR"]

FORMAT_VERSION = 1
ENV_VAR = "TSECON_CV_FILE"


def _params_key(statistic: str, params: dict) -> str:
    parts = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{statistic}|{parts}"


@dataclass(frozen=True)
class CvEntry:
    """Quantiles of one statistic's null distribution."""

    statistic: str
    params: dict
    tail: str
    quantiles: dict  # significance level (float) -> critical value
    provenance: dict
    summary: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return _params_key(self.statistic, self.params)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "params": dict(self.params),
            "tail": self.tail,
            "quantiles": {f"{lv:g}": cv for lv, cv in sorted(self.quantiles.items())},
            "provenance": dict(self.provenance),
            "summary": dict(self.summary),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CvEntry":
        return cls(
            statistic=d["statistic"],
            params=dict(d["params"]),
            tail=d["tail"],
            quantiles={float(lv): float(cv) for lv, cv in d["quantiles"].items()},
            provenance=dict(d["provenance"]),
            summary=dict(d.get("summary", {})),
        )


class CriticalValueCache:
    """In-memory view of a critical-value file; one entry per statistic spec."""

    def __init__(self, entries=(), generator: str | None = None, path: str | None = None):
        self.entries: dict = {}
        self.generator = generator
        self.path = path
        for e in entries:
            self.put(e)

    def put(self, entry: CvEntry) -> None:
        # regenerating a spec replaces its previous quantiles
        self.entries[entry.key] = entry

    def lookup(self, statistic: str, params: dict, levels) -> CvEntry:
        key = _params_key(statistic, params)
        entry = self.entries.get(key)
        if entry is None:
            where = self.path or "the in-memory cache"
            raise DomainError(
                f"no cached critical values for {key!r} in {where}; "
                "generate them with the mc-critical command or supply --cv-file"
            )
        missing = [lv for lv in levels if float(lv) not in entry.quantiles]
        if missing:
            raise DomainError(
                f"cached entry {key!r} lacks quantiles for levels {sorted(missing)}"
            )
        return entry

    def critical_values(self, statistic: str, params: dict, levels) -> tuple[dict, dict, str]:
        entry = self.lookup(statistic, params, levels)
        cvs = {float(lv): entry.quantiles[float(lv)] for lv in levels}
        return cvs, dict(entry.provenance), entry.tail

    def save(self, path: str) -> None:
        payload = {
            "format_version": FORMAT_VERSION,
            "generator": self.generator,
            "entries": [self.entries[k].to_dict() for k in sorted(self.entries)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CriticalValueCache":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise DomainError(f"critical-value file {path!r} does not exist") from None
        except OSError as exc:
            raise DomainError(f"cannot read critical-value file {path!r}: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise DomainError(f"critical-value file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DomainError(f"critical-value file {path!r} does not hold a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise DomainError(
                f"critical-value file {path!r} has format version {version}, expected {FORMAT_VERSION}"
            )
        try:
            entries = [CvEntry.from_dict(d) for d in payload.get("entries", [])]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(
                f"critical-value file {path!r} has a malformed entry: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        return cls(entries, generator=payload.get("generator"), path=path)


_PACKAGED: CriticalValueCache | None = None


def _packaged_cache() -> CriticalValueCache:
    global _PACKAGED
    if _PACKAGED is None:
        ref = resources.files("tsecon").joinpath("data/critical_values.json")
        with resources.as_file(ref) as path:
            _PACKAGED = CriticalValueCache.load(str(path))
    return _PACKAGED


def default_cache(cv_source=None) -> CriticalValueCache:
    """Resolve a cache: explicit object or path, else env override, else packaged."""
    if isinstance(cv_source, CriticalValueCache):
        return cv_source
    if isinstance(cv_source, str):
        return CriticalValueCache.load(cv_source)
    if cv_source is not None:
        raise DomainError("cv_source must be a CriticalValueCache, a path, or None")
    env = os.environ.get(ENV_VAR)
    if env:
        return CriticalValueCache.load(env)
    return _packaged_cache()
