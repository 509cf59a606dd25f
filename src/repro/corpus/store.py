"""Content-addressed on-disk corpus of link traces.

Layout under one root (by default ``<cache-dir>/corpus`` next to the
result cache)::

    corpus/
      manifest.json          # name -> entry metadata (the only index)
      traces/<digest>.json   # one blob per distinct trace content

The manifest is the source of truth; blobs are regenerable artifacts.  An
*ingested* entry's blob can be re-created by re-running ``ingest`` on the
original file; a *generator* entry's blob is rebuilt automatically from
the family parameters and seed recorded in the manifest.  That split is
what lets the runner's cache GC prune ``traces/*.json`` freely while the
manifest itself is never pruned (see ``ResultCache.corpus_files``).

Two names that resolve to identical trace content share one blob — the
digest is the address.  A blob read back from disk is digest-verified;
mismatches are quarantined (``quarantine/`` under the corpus root, same
convention as the result cache) and treated as missing.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Optional

from repro._persist import (
    CACHE_DIR_ENV,
    atomic_write_text,
    default_cache_dir,
    read_json_or_quarantine,
)
from repro.corpus.generators import build_generator
from repro.corpus.ingest import DEFAULT_BIN_MS, load_trace_path
from repro.corpus.trace import LinkTrace
from repro.errors import ConfigurationError
from repro.units import DEFAULT_PACKET_BITS

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "CorpusStore",
    "default_corpus_dir",
    "open_corpus_store",
]

#: Manifest layout version; unknown versions are rejected, not guessed at.
MANIFEST_SCHEMA_VERSION = 1


def default_corpus_dir() -> Optional[Path]:
    """The corpus root co-located with the default result cache (or None)."""
    cache_dir = default_cache_dir()
    return cache_dir / "corpus" if cache_dir is not None else None


def open_corpus_store(corpus_dir: "str | Path | None" = None) -> "CorpusStore":
    """A store at ``corpus_dir``, or at the default cache-relative root."""
    root = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    if root is None:
        raise ConfigurationError(
            "no corpus directory: pass --corpus-dir / corpus_dir or set "
            f"${CACHE_DIR_ENV} (the corpus lives under the cache directory)"
        )
    return CorpusStore(root)


class CorpusStore:
    """Name-indexed, content-addressed trace store."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ paths

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def blob_path(self, digest: str) -> Path:
        return self.root / "traces" / f"{digest}.json"

    # --------------------------------------------------------------- manifest

    def _load_manifest(self) -> dict:
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {"schema": MANIFEST_SCHEMA_VERSION, "entries": {}}
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"corpus manifest {self.manifest_path} is unreadable: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != MANIFEST_SCHEMA_VERSION
            or not isinstance(payload.get("entries"), dict)
        ):
            raise ConfigurationError(
                f"corpus manifest {self.manifest_path} has an unsupported layout"
            )
        return payload

    def _save_manifest(self, payload: dict) -> None:
        # sort_keys keeps the manifest byte-stable under re-registration
        # order, so repeated ingests of the same corpus diff clean.
        atomic_write_text(
            self.manifest_path,
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        )

    # ---------------------------------------------------------------- writing

    def _write_blob(self, trace: LinkTrace) -> Path:
        path = self.blob_path(trace.digest)
        if not path.exists():
            atomic_write_text(
                path,
                json.dumps(trace.to_payload(), separators=(",", ":")) + "\n",
            )
        return path

    def _register(self, name: str, entry: dict) -> None:
        if not name:
            raise ConfigurationError("corpus entry name must be non-empty")
        manifest = self._load_manifest()
        manifest["entries"][name] = entry
        self._save_manifest(manifest)

    def add_trace(self, name: str, trace: LinkTrace, source: str = "") -> dict:
        """Store ``trace`` under ``name`` (re-registering replaces the name)."""
        self._write_blob(trace)
        entry = {
            "kind": "trace",
            "digest": trace.digest,
            "samples": len(trace),
            "duration_s": trace.duration,
            "mean_rate_bps": trace.mean_rate(),
            "min_rate_bps": trace.min_rate(),
            "source": source or trace.source,
        }
        self._register(name, entry)
        return entry

    def ingest(
        self,
        path: str | Path,
        name: str = "",
        fmt: str = "auto",
        packet_bits: int = DEFAULT_PACKET_BITS,
        bin_ms: int = DEFAULT_BIN_MS,
    ) -> dict:
        """Parse a trace file and register it (name defaults to the stem)."""
        trace = load_trace_path(
            path, fmt=fmt, name=name, packet_bits=packet_bits, bin_ms=bin_ms
        )
        return self.add_trace(name or Path(path).stem, trace, source=str(path))

    def register_generator(
        self,
        name: str,
        family: str,
        params: Mapping | None = None,
        seed: int = 0,
    ) -> dict:
        """Materialize a generator and register it like an ingested trace.

        The manifest records ``family``/``params``/``seed``, so the blob
        can always be rebuilt — it is a pure cache of the build.
        """
        generator = build_generator(family, params)
        trace = generator.build(seed)
        self._write_blob(trace)
        entry = {
            "kind": "generator",
            "digest": trace.digest,
            "samples": len(trace),
            "duration_s": trace.duration,
            "mean_rate_bps": trace.mean_rate(),
            "min_rate_bps": trace.min_rate(),
            "source": family,
            "family": family,
            "params": asdict(generator),
            "seed": seed,
        }
        self._register(name, entry)
        return entry

    # ---------------------------------------------------------------- reading

    def names(self) -> list[str]:
        """All registered entry names, sorted."""
        return sorted(self._load_manifest()["entries"])

    def describe(self, name: str) -> dict:
        """The manifest entry for ``name``."""
        entries = self._load_manifest()["entries"]
        try:
            return dict(entries[name])
        except KeyError:
            raise ConfigurationError(
                f"no corpus entry named {name!r} "
                f"(known: {', '.join(sorted(entries)) or 'none'})"
            ) from None

    def digest_of(self, name: str) -> str:
        """The content digest of entry ``name``."""
        return str(self.describe(name)["digest"])

    def _load_blob(self, digest: str) -> Optional[LinkTrace]:
        def check(payload: object) -> Optional[LinkTrace]:
            trace = LinkTrace.from_payload(payload)
            # A blob that parses but is not the content its address claims
            # is rejected like any other corrupt one.
            return trace if trace.digest == digest else None

        return read_json_or_quarantine(self.root, self.blob_path(digest), check)[0]

    def get(self, name_or_digest: str) -> LinkTrace:
        """Load a trace by entry name or by content digest.

        A generator entry whose blob was pruned is rebuilt from its
        recorded family/params/seed and re-cached; an ingested entry with
        a missing blob is an error naming the original source file.
        """
        entries = self._load_manifest()["entries"]
        entry = entries.get(name_or_digest)
        if entry is None:
            matches = [
                (name, meta)
                for name, meta in entries.items()
                if meta.get("digest") == name_or_digest
            ]
            if not matches:
                raise ConfigurationError(
                    f"no corpus entry or digest {name_or_digest!r} "
                    f"(known entries: {', '.join(sorted(entries)) or 'none'})"
                )
            _, entry = matches[0]
        digest = str(entry["digest"])
        trace = self._load_blob(digest)
        if trace is not None:
            return trace
        if entry.get("kind") == "generator":
            generator = build_generator(
                str(entry["family"]), entry.get("params") or {}
            )
            trace = generator.build(int(entry.get("seed", 0)))
            if trace.digest != digest:
                raise ConfigurationError(
                    f"rebuilt generator trace digest {trace.digest} does not "
                    f"match the manifest's {digest} — the generator code "
                    "changed since registration; re-run generate"
                )
            self._write_blob(trace)
            return trace
        raise ConfigurationError(
            f"corpus blob {digest} is missing and entry is not regenerable; "
            f"re-ingest {entry.get('source', 'the original file')!r}"
        )
