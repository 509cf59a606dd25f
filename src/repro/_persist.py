"""Shared persistence plumbing for the fingerprint-keyed stores.

Deliberately light (stdlib plus :mod:`repro.errors`) so every store —
:mod:`repro.runner.cache` for grid-point results, :mod:`repro.api.policy`
for precomputed policy tables, :mod:`repro.corpus.store` for trace blobs —
can use one write path, one read rule (:func:`read_json_or_quarantine`)
and one cache-directory convention without importing each other.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")

#: Environment variable naming the shared cache directory.  The runner
#: CLI's ``--cache-dir`` exports it for the duration of a run so worker
#: processes and the policy-table precompute path all reuse one location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonical_digest(payload, length: int = 16) -> str:
    """Hex digest of ``payload``'s canonical JSON form.

    The one hashing convention shared by every fingerprint-keyed artifact:
    :meth:`~repro.api.config.SenderConfig.fingerprint`, the runner's
    persistent :class:`~repro.runner.cache.ResultCache` keys, and the
    :class:`~repro.api.policy.PolicyTable` cache filenames.  ``payload``
    must be JSON-serializable (non-JSON leaves fall back to ``str``, the
    same rule the runner's canonical artifacts use)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


def default_cache_dir() -> Optional[Path]:
    """The cache directory named by ``$REPRO_CACHE_DIR``, or ``None``."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


@contextlib.contextmanager
def cache_dir_override(
    value: Optional[str], *, clear: bool = False
) -> Iterator[None]:
    """Temporarily set (or, with ``clear``, remove) ``$REPRO_CACHE_DIR``.

    ``value=None`` without ``clear`` is a no-op — the environment is left
    exactly as found.  The previous value is always restored on exit.
    Runner workers use this around a *single* point execution in their own
    process, so concurrent runs with different cache directories never
    observe each other's export.
    """
    if value is None and not clear:
        yield
        return
    saved = os.environ.get(CACHE_DIR_ENV)
    if clear:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = saved


def signature_defaults(
    fn: Callable, exclude: Sequence[str] = ()
) -> dict[str, object]:
    """``fn``'s defaulted parameters as a name → default dict.

    The one effective-parameter rule both caches key on: an omitted
    parameter and its explicitly spelled-out default must address the same
    artifact, and a changed default must invalidate.  Used by the scenario
    registry (grid-point keys) and the policy-table cache (sweep-parameter
    digests) so the two invalidation rules cannot drift.
    """
    return {
        name: parameter.default
        for name, parameter in inspect.signature(fn).parameters.items()
        if parameter.default is not inspect.Parameter.empty and name not in exclude
    }


def quarantine_file(root: Path, path: Path) -> Optional[Path]:
    """Move an untrusted artifact into ``root/quarantine/`` (never delete it).

    The one corruption-handling convention every fingerprint-keyed store
    follows (:class:`~repro.runner.cache.ResultCache` entries, cached
    policy tables, serving-registry artifacts): evidence of a torn write or
    a stale schema is preserved for :mod:`repro.diagnostics` triage instead
    of being silently unlinked.  Returns the destination, or ``None`` when
    a racing reader already moved the file.
    """
    destination = Path(root) / "quarantine" / Path(path).name
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, destination)
    except OSError:  # pragma: no cover - racing reader already moved it
        return None
    return destination


def read_json_or_quarantine(
    root: Path, path: str | Path, check: Callable[[object], Optional[T]]
) -> tuple[Optional[T], bool]:
    """The stores' one read rule: ``(value, quarantined)`` for ``path``.

    A missing file is a miss, ``(None, False)`` — there is no existence test
    first, so a file pruned by another process is just a miss.  ``path`` may
    be a string: the file is read with one :func:`open`.  A file that
    is there but unreadable, not JSON, or rejected by ``check`` (handed the
    parsed payload; it returns the caller's value, or returns ``None`` or
    raises ``ReproError``/``ValueError``/``KeyError``/``TypeError`` to
    reject) is moved to ``root/quarantine/`` by :func:`quarantine_file` and
    reads as ``(None, True)``, for the caller to count.
    """
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except FileNotFoundError:
        return None, False
    except (OSError, ValueError):
        text = ""  # unreadable or not UTF-8: fails to parse below
    try:
        value = check(json.loads(text))
    except (ReproError, ValueError, KeyError, TypeError):
        value = None
    if value is None:
        quarantine_file(root, path)
        return None, True
    return value, False


def atomic_write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (last writer wins).

    The content lands in a scratch file unique to the writing thread (its
    process id and thread id) and is moved into place with
    :func:`os.replace`, so concurrent writers racing on a shared cache
    directory — processes or threads of one process — each leave a
    complete file, never a torn one, and a failed write leaves no scratch
    debris behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        scratch.write_text(text, encoding="utf-8")
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return path
