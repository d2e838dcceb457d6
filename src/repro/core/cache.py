"""Persistent, content-addressed result cache for sweep rows.

Every simulated :class:`~repro.core.runner.Row` is cached under a key with
two components:

* the **config digest** — a SHA-256 over the canonical JSON form of the
  :class:`~repro.core.experiment.ExperimentConfig`
  (:func:`repro.core.persistence.config_to_dict` with sorted keys), so the
  key is stable across processes and Python versions;
* the **model fingerprint** — a digest of the package version, the full
  processor catalog, the compiler presets, every miniapp's kernel
  parameters and the timing code.  Any change to them changes the
  fingerprint, so stale rows self-invalidate instead of silently serving
  results from an older model.

Storage is a JSON-lines file (one record per line, append-only, written
with single atomic ``write`` calls), fronted by an LRU-bounded in-memory
dict.  Corrupt or truncated lines — e.g. from a run killed mid-write —
are skipped on load, never fatal.

The cache duck-types the plain-``dict`` protocol the runner always used
(``cache.get(config)`` / ``cache[config] = row``), so every ``cache=``
parameter in :mod:`repro.core` accepts either a throwaway dict or a
:class:`ResultCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.core.experiment import ExperimentConfig
from repro.core.persistence import config_to_dict, row_from_dict, row_to_dict
from repro.core.runner import Row
from repro.errors import ConfigurationError

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: On-disk record format version (independent of the sweep-file schema).
CACHE_FORMAT = 1

_fingerprint_memo: str | None = None

#: The ``repro`` package root, and the packages whose source computes rows.
_SOURCE_ROOT = Path(__file__).resolve().parent.parent
_TIMING_PACKAGES = ("analytic", "compile", "kernels", "machine", "runtime")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def model_fingerprint(refresh: bool = False) -> str:
    """Digest of everything that determines a simulated result.

    Covers the package version, the repr of every cataloged cluster
    (all hardware parameters are frozen dataclasses, so their reprs are
    canonical), the compiler presets, each miniapp's per-dataset kernel
    descriptors, and the source of the timing packages, so a refactor
    that shifts numbers cannot hide behind a warm cache.  Memoized per
    process; ``refresh=True`` recomputes (tests use this after
    monkeypatching the catalog).
    """
    global _fingerprint_memo
    if _fingerprint_memo is not None and not refresh:
        return _fingerprint_memo

    import repro
    from repro.compile.options import PRESETS
    from repro.machine import catalog
    from repro.miniapps import SUITE

    parts = [f"repro={repro.__version__}"]
    for name in sorted(catalog.PROCESSORS):
        parts.append(f"processor:{name}={catalog.by_name(name)!r}")
    for pname in sorted(PRESETS):
        parts.append(f"preset:{pname}={PRESETS[pname]!r}")
    for aname in sorted(SUITE):
        app = SUITE[aname]
        for dname in sorted(app.datasets):
            kernels = app.kernels(app.dataset(dname))
            for kname in sorted(kernels):
                parts.append(f"kernel:{aname}/{dname}/{kname}="
                             f"{kernels[kname]!r}")
    for package in _TIMING_PACKAGES:
        for path in sorted((_SOURCE_ROOT / package).glob("*.py")):
            parts.append(f"source:{package}/{path.name}="
                         + path.read_text(encoding="utf-8"))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
    _fingerprint_memo = digest
    return digest


def _key_payload(key: Any) -> dict:
    """Canonical JSON payload for a cache key.

    Accepts an :class:`ExperimentConfig`, or a tuple whose first element
    is one (the remaining elements must be JSON-safe primitives — the
    ablation studies key on ``(config, vector_length)``).
    """
    if isinstance(key, ExperimentConfig):
        return {"config": config_to_dict(key)}
    if isinstance(key, tuple) and key and isinstance(key[0], ExperimentConfig):
        extra = list(key[1:])
        for item in extra:
            if not isinstance(item, (str, int, float, bool, type(None))):
                raise ConfigurationError(
                    f"cache key extras must be JSON primitives, got {item!r}"
                )
        return {"config": config_to_dict(key[0]), "extra": extra}
    raise ConfigurationError(
        f"uncacheable key {key!r}: expected an ExperimentConfig or a "
        f"(config, *primitives) tuple"
    )


def config_digest(key: Any) -> str:
    """Stable content digest of a cache key (hex, 16 chars)."""
    blob = json.dumps(_key_payload(key), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _decode_lines(data: bytes) -> tuple[list[str], int]:
    """Split a JSONL store into text lines, counting undecodable ones.

    The whole buffer is decoded at once; only when that fails (a torn
    multi-byte character, foreign bytes) is it decoded line by line, so
    one bad line costs itself, not the load.
    """
    try:
        return data.decode("utf-8").splitlines(), 0
    except UnicodeDecodeError:
        pass
    lines: list[str] = []
    bad = 0
    for raw in data.splitlines():
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            bad += 1
    return lines, bad


class ResultCache:
    """Persistent content-addressed cache of sweep :class:`Row` objects.

    Parameters
    ----------
    directory:
        Where the JSONL file lives (created on first write).  ``None``
        selects :func:`default_cache_dir`.
    max_memory_entries:
        LRU bound on the in-memory layer; the disk file is unbounded.
    """

    __slots__ = ("directory", "max_memory_entries", "hits", "misses",
                 "torn_lines", "_mem", "_loaded", "_fingerprint")

    FILENAME = "results.jsonl"

    def __init__(self, directory: str | Path | None = None, *,
                 max_memory_entries: int = 65536) -> None:
        if max_memory_entries < 1:
            raise ConfigurationError("max_memory_entries must be positive")
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.max_memory_entries = max_memory_entries
        self.hits = 0
        self.misses = 0
        self.torn_lines = 0
        self._mem: OrderedDict[str, Row] = OrderedDict()
        self._loaded = False
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint()
        return self._fingerprint

    # ------------------------------------------------------------------
    def _remember(self, digest: str, row: Row) -> None:
        mem = self._mem
        if digest in mem:
            mem.move_to_end(digest)
        mem[digest] = row
        while len(mem) > self.max_memory_entries:
            mem.popitem(last=False)

    def _load(self) -> None:
        """Read the JSONL file, keeping current-fingerprint rows.

        Tolerates corrupt/truncated lines and records whose config no
        longer validates (e.g. a preset that was since removed) — those
        are simply skipped.
        """
        self._loaded = True
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        fp = self.fingerprint
        lines, corrupt = _decode_lines(data)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                corrupt += 1  # torn write / non-JSON garbage
                continue
            try:
                if (rec.get("format") != CACHE_FORMAT
                        or rec.get("fp") != fp):
                    continue  # expected invalidation, not corruption
                digest = rec["key"]
                row = row_from_dict(rec["row"])
            except (ValueError, KeyError, TypeError, ConfigurationError,
                    AttributeError):
                corrupt += 1  # current-format record we cannot decode
                continue
            self._remember(digest, row)
        if corrupt:
            # Surface through telemetry rather than a one-shot
            # warnings.warn: the count lands in metrics.jsonl and shows
            # up as a `repro report` line item, and stays inspectable on
            # the cache object itself.
            self.torn_lines += corrupt
            telemetry.count("cache.torn_lines", corrupt)

    def _append(self, digest: str, row: Row) -> None:
        rec = {"format": CACHE_FORMAT, "fp": self.fingerprint,
               "key": digest, "row": row_to_dict(row)}
        line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        # One O_APPEND write per record: concurrent appenders interleave
        # whole lines, and a killed process leaves at most one truncated
        # line, which _load() skips.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def get(self, key: Any, default: Row | None = None) -> Row | None:
        if not self._loaded:
            self._load()
        digest = config_digest(key)
        row = self._mem.get(digest)
        if row is None:
            self.misses += 1
            telemetry.count("cache.miss")
            return default
        self._mem.move_to_end(digest)
        self.hits += 1
        telemetry.count("cache.hit")
        return row

    def put(self, key: Any, row: Row) -> None:
        if not self._loaded:
            self._load()
        digest = config_digest(key)
        if digest in self._mem:
            self._remember(digest, row)
            return
        self._remember(digest, row)
        self._append(digest, row)
        telemetry.count("cache.store")

    # dict-protocol aliases so ResultCache drops in wherever a plain
    # memo dict was accepted.
    def __setitem__(self, key: Any, row: Row) -> None:
        self.put(key, row)

    def __getitem__(self, key: Any) -> Row:
        row = self.get(key)
        if row is None:
            raise KeyError(key)
        return row

    def __contains__(self, key: Any) -> bool:
        if not self._loaded:
            self._load()
        return config_digest(key) in self._mem

    def __len__(self) -> int:
        if not self._loaded:
            self._load()
        return len(self._mem)

    def compact(self, *, keep_stale: bool = True) -> dict[str, int]:
        """Rewrite the JSONL file without torn or duplicate lines.

        The append-only write path never rewrites history, so a
        long-lived cache accumulates garbage: truncated lines from
        killed processes, and superseded records when a key was stored
        more than once (every ``put`` appends).  ``compact`` rewrites
        the file keeping only the **last** record per (fingerprint, key)
        pair, dropping everything unparseable; with
        ``keep_stale=False`` records from other model fingerprints are
        dropped too (they can never be served by this build).

        The rewrite is atomic — records stream to a temporary file in
        the same directory, then ``os.replace`` swaps it in — so a
        reader or concurrent appender sees either the old file or the
        new one, never a half-written hybrid.  Returns counters:
        ``kept``, ``dropped_torn``, ``dropped_duplicates``,
        ``dropped_stale``, ``bytes_before``, ``bytes_after``.
        """
        stats = {"kept": 0, "dropped_torn": 0, "dropped_duplicates": 0,
                 "dropped_stale": 0, "bytes_before": 0, "bytes_after": 0}
        try:
            data = self.path.read_bytes()
        except OSError:
            return stats  # nothing on disk: already as compact as it gets
        stats["bytes_before"] = len(data)
        fp = self.fingerprint
        lines, stats["dropped_torn"] = _decode_lines(data)
        #: (fp, key) -> last good line for it, in first-seen order.
        latest: "OrderedDict[tuple[str, str], str]" = OrderedDict()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                record_fp = str(rec["fp"])
                key = str(rec["key"])
                ok = rec.get("format") == CACHE_FORMAT and "row" in rec
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                stats["dropped_torn"] += 1
                continue
            if not keep_stale and record_fp != fp:
                stats["dropped_stale"] += 1
                continue
            if (record_fp, key) in latest:
                stats["dropped_duplicates"] += 1
            latest[(record_fp, key)] = line
        stats["kept"] = len(latest)
        body = "".join(line + "\n" for line in latest.values())
        stats["bytes_after"] = len(body.encode())
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, body.encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        # Reload so the memory layer reflects exactly what survived.
        self._mem.clear()
        self._loaded = False
        telemetry.count("cache.compacted")
        return stats

    def clear(self) -> None:
        """Drop the in-memory layer and delete the on-disk file."""
        self._mem.clear()
        self._loaded = True
        try:
            self.path.unlink()
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "torn_lines": self.torn_lines, "entries": len(self)}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<ResultCache {self.path} entries={len(self._mem)} "
                f"hits={self.hits} misses={self.misses}>")
