"""Versioned, content-addressed registry of servable policy tables.

The offline half of §3.3 produces :class:`~repro.api.policy.PolicyTable`
artifacts keyed by :meth:`~repro.api.config.SenderConfig.fingerprint`; this
module is the online half's source of truth for *which* table answers a
fingerprint right now:

* **Content addressing** — a published table lives at
  ``tables/<fingerprint>/<digest>.json`` where ``digest`` is the sha256 of
  the file's bytes.  Publishing the same table twice is idempotent;
  publishing a changed table adds a *new* version file next to the old one.
* **Versioning** — the ``CURRENT`` pointer file names the served digest.
  It is swapped with an atomic rename, so two server instances (or a
  publisher racing a reader) sharing one registry directory always observe
  either the old complete version or the new complete one, never a tear.
* **Load-time integrity validation** — on every (re)load the file's bytes
  are re-digested and checked against the content address, the payload's
  schema version and fingerprint are checked against the request, and any
  failure quarantines the file (``quarantine/``, the
  :class:`~repro.runner.cache.ResultCache` convention) and reads as a miss:
  a corrupt table is **never served**.
* **A fingerprint is one path component** — it names a directory and it
  comes from the client, so anything else (:func:`is_path_component`) is
  unpublished: ``<fp>/../<fp>`` can neither read nor quarantine ``<fp>``.
* **Hot reload** — lookups are answered from an in-memory cache that
  re-reads the ``CURRENT`` pointer on every call (three syscalls on a
  17-byte file; no ``stat`` shortcut, because a rename-swapped pointer can
  reuse an inode inside one mtime tick), so publishing a new version takes
  effect on the very next lookup without restarting the server, and
  requests already holding the old table object finish on it undisturbed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional

from repro._persist import atomic_write_text, quarantine_file
from repro.api.policy import TABLE_SCHEMA_VERSION, PolicyTable
from repro.errors import TableIntegrityError

__all__ = ["PolicyTableRegistry", "content_digest", "is_path_component"]

#: Hex digits of the sha256 content address in version filenames.
DIGEST_LENGTH = 16

#: What a fingerprint may not hold: a separator (leaves its directory), NUL.
_PATH_BREAKERS = tuple(sorted({"/", "\0", os.sep, os.altsep or os.sep}))


def content_digest(data: bytes) -> str:
    """The content address of one serialized table artifact."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_LENGTH]


def is_path_component(fingerprint: str) -> bool:
    """Whether ``fingerprint`` names exactly one directory entry.

    False for ``""``, ``"."``, ``".."`` and anything holding a path
    separator or NUL.  On every table hit's path: plain ``str`` tests only.
    """
    if fingerprint in ("", ".", ".."):
        return False
    for breaker in _PATH_BREAKERS:
        if breaker in fingerprint:
            return False
    return True


class PolicyTableRegistry:
    """Disk-backed map from config fingerprint to the served policy table.

    Parameters
    ----------
    root:
        Registry directory (created lazily on first publish).  Layout:
        ``tables/<fingerprint>/<digest>.json`` version files,
        ``tables/<fingerprint>/CURRENT`` pointer, ``quarantine/`` for
        artifacts that failed validation.

    Thread-safe: lookups and publishes may race freely; the in-memory
    cache holds immutable tables, each stamped with the digest it was
    validated against (``version_digest``), swapped under a lock.
    Counters (``loads``, ``corrupt``) accumulate on the instance and feed
    the serving layer's ``table_corrupt`` counter and readiness probe.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        #: fingerprint -> the served version (its ``version_digest`` set).
        self._loaded: dict[str, PolicyTable] = {}
        #: Artifacts read from disk (cold loads and hot reloads).
        self.loads = 0
        #: Artifacts that failed validation and were quarantined.
        self.corrupt = 0

    # ---------------------------------------------------------------- layout

    def _table_dir(self, fingerprint: str) -> Path:
        if not is_path_component(fingerprint):
            raise TableIntegrityError(
                f"fingerprint {fingerprint!r} is not a single path component"
            )
        return self.root / "tables" / fingerprint

    # --------------------------------------------------------------- publish

    def publish(self, table: PolicyTable) -> Path:
        """Store ``table`` as a new version and point ``CURRENT`` at it.

        The table must carry its owning config's fingerprint (every table
        built by :func:`~repro.api.policy.precompute_policy_table` does),
        and that fingerprint must be a single path component.
        Returns the version file's path.  Safe against concurrent
        publishers: both version writes and the pointer swap are atomic
        renames, so the loser of a race leaves a complete, valid registry.
        """
        if not table.fingerprint:
            raise TableIntegrityError(
                "cannot publish a policy table without a config fingerprint; "
                "precompute it via precompute_policy_table(config)"
            )
        text = json.dumps(table.to_payload(), sort_keys=True, indent=1) + "\n"
        digest = content_digest(text.encode("utf-8"))
        version = self._table_dir(table.fingerprint) / f"{digest}.json"
        if not version.exists():
            atomic_write_text(version, text)
        atomic_write_text(version.with_name("CURRENT"), digest + "\n")
        return version

    def current_digest(self, fingerprint: str) -> Optional[str]:
        """The digest ``CURRENT`` points at, or ``None`` when unpublished."""
        # On every table hit's path: a string and ``os`` calls cost an eighth
        # of ``Path`` joins and ``read_text``.
        if not is_path_component(fingerprint):
            return None
        try:
            pointer = os.open(f"{self.root}/tables/{fingerprint}/CURRENT", os.O_RDONLY)
        except OSError:
            return None
        try:
            value = os.read(pointer, 4096)
        finally:
            os.close(pointer)
        return value.decode("utf-8").strip() or None

    def fingerprints(self) -> list[str]:
        """Every fingerprint with at least one published version."""
        tables = self.root / "tables"
        if not tables.is_dir():
            return []
        return sorted(path.name for path in tables.iterdir() if path.is_dir())

    # ---------------------------------------------------------------- lookup

    def lookup(self, fingerprint: str, *, load: bool = True) -> Optional[PolicyTable]:
        """The currently served table for ``fingerprint``, or ``None``.

        Revalidates the ``CURRENT`` pointer on every call (hot reload is
        automatic), loads and integrity-checks the version file when the
        pointer moved, and returns the cached immutable table otherwise.
        A file that fails validation is quarantined and the lookup misses —
        the caller falls through to the live-planner tier.  The returned
        table's ``version_digest`` is the digest it was validated against:
        name the version from it, not from a second ``CURRENT`` read that
        a concurrent publish may already have moved.

        With ``load=False`` a moved pointer is a miss instead of a load, so
        the call never does more than the pointer read: what a caller that
        must not block (the server's event loop) asks for.
        """
        digest = self.current_digest(fingerprint)
        if digest is None:
            return None
        with self._lock:
            cached = self._loaded.get(fingerprint)
            if cached is not None and cached.version_digest == digest:
                return cached
        if not load:
            return None
        table = self._load_version(fingerprint, digest)
        if table is None:
            return None
        with self._lock:
            self._loaded[fingerprint] = table
        return table

    def is_resident(self, fingerprint: str) -> bool:
        """Whether some version of ``fingerprint`` is in memory right now."""
        return fingerprint in self._loaded

    def reload(self) -> int:
        """Drop the in-memory cache; the next lookups re-read from disk.

        Returns the number of cached tables dropped.  In-flight requests
        holding a table object keep using it — the swap only affects which
        object *future* lookups receive.
        """
        with self._lock:
            dropped = len(self._loaded)
            self._loaded.clear()
        return dropped

    # ------------------------------------------------------------ validation

    def _load_version(self, fingerprint: str, digest: str) -> Optional[PolicyTable]:
        path = self._table_dir(fingerprint) / f"{digest}.json"
        try:
            table = self._validate(path, fingerprint, digest)
        except OSError:
            # Dangling CURRENT (version pruned or racing publisher) or an
            # unreadable file: a miss, not corruption.
            return None
        except TableIntegrityError:
            self.corrupt += 1
            quarantine_file(self.root, path)
            return None
        self.loads += 1
        table.version_digest = digest
        return table

    def _validate(self, path: Path, fingerprint: str, digest: str) -> PolicyTable:
        """Load one version file, raising :class:`TableIntegrityError` on
        any mismatch between bytes, content address, schema, and request."""
        data = path.read_bytes()
        actual = content_digest(data)
        if actual != digest:
            raise TableIntegrityError(
                f"policy table {path.name} content digests to {actual}, not "
                f"its address {digest} — torn write or tampering"
            )
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError as error:
            raise TableIntegrityError(f"policy table {path.name}: {error}") from error
        if not isinstance(payload, dict) or payload.get("schema") != TABLE_SCHEMA_VERSION:
            raise TableIntegrityError(
                f"policy table {path.name} has schema "
                f"{payload.get('schema') if isinstance(payload, dict) else payload!r}, "
                f"this build serves version {TABLE_SCHEMA_VERSION}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise TableIntegrityError(
                f"policy table {path.name} was computed for fingerprint "
                f"{payload.get('fingerprint')!r}, not {fingerprint!r}"
            )
        try:
            # learn=False: a served table is immutable — runtime misses are
            # the fallback tiers' business, not the artifact's.
            return PolicyTable.from_payload(payload, learn=False)
        except Exception as error:  # noqa: BLE001 - any malformed payload
            raise TableIntegrityError(
                f"policy table {path.name} failed to deserialize: {error}"
            ) from error
