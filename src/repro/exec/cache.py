"""Content-addressed result cache.

One file per grid point under a cache root (``.repro-cache/`` by
default), named ``<spec_key>.json`` and holding a JSON-serialised
:class:`~repro.core.metrics.ExperimentResult`.  Because the key hashes
everything that determines the simulation (see
:mod:`repro.exec.speckey`), invalidation is automatic: change any spec
field and the old entry is simply never looked up again.  A ``format``
field guards against schema drift — entries written by an incompatible
version read as misses, never as wrong data.  Lookups and writes take
the key itself, so a caller that already hashed a spec (the executor
keys every point once per batch) never hashes it again.

Corrupted or unreadable entries are treated as misses too (the point is
recomputed and the entry rewritten); a cache must never be able to make
a study fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.core.metrics import ExperimentResult
from repro.exec import tmpfiles

#: On-disk schema version; bump when the entry layout changes.
CACHE_FORMAT = 1


class ResultCache:
    """Spec-keyed persistent store of experiment results.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    """

    def __init__(self, root: Union[str, Path] = ".repro-cache") -> None:
        self.root = Path(root)
        self._swept = False

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str, spec_name: str) -> Optional[ExperimentResult]:
        """The result cached under ``key`` (a :func:`spec_key`), or None
        on a miss.

        The stored ``spec_name`` is rewritten to ``spec_name`` — the key
        ignores display names, so a hit may come from a differently
        labelled but physically identical run.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != CACHE_FORMAT:
            return None
        try:
            result = ExperimentResult.from_json_dict(payload["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            # Tampered-but-valid JSON (missing field, wrong-typed field,
            # string where a mapping belongs...) is corruption like any
            # other: a miss, never a crashed study.
            return None
        if result.spec_name != spec_name:
            result = dataclasses.replace(result, spec_name=spec_name)
        return result

    def put(self, key: str, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``key`` (atomic replace).

        The first write of a cache instance also sweeps temp files
        orphaned by crashed writers (see :mod:`repro.exec.tmpfiles`).
        """
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._swept:
            self._swept = True
            tmpfiles.sweep_stale(self.root)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "result": result.to_json_dict(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        tmp.replace(path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key, "") is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry (and leftover temp file); returns the
        number of files removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
            removed += tmpfiles.sweep_all(self.root)
        return removed
