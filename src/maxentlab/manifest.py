"""Run manifests: what a command produced, with content digests.

The manifest is a JSON file written last, after every artifact it lists.
Loading a manifest re-hashes the artifacts and raises ManifestError on any
mismatch, so a manifest that loads cleanly certifies its run directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IoError, ManifestError

MANIFEST_NAME = "manifest.json"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(eq=False)
class RunManifest:
    tool_version: str
    command: str
    config_text: str
    stages: list[tuple[str, float]]
    artifacts: list[dict]  # {"path": rel, "sha256": hex, "bytes": int}

    def to_json(self) -> str:
        payload = {
            "tool_version": self.tool_version,
            "command": self.command,
            "config": self.config_text,
            "stages": [{"name": n, "seconds": s} for n, s in self.stages],
            "artifacts": self.artifacts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """Digest over artifact digests; identifies the run content, not its timings."""
        h = hashlib.sha256()
        for art in sorted(self.artifacts, key=lambda a: a["path"]):
            h.update(art["path"].encode())
            h.update(art["sha256"].encode())
        return h.hexdigest()


class ArtifactSession:
    """Collects artifact writes for one command and guarantees all-or-nothing.

    Artifacts are written into a ``.staging-*`` directory inside ``out_dir``
    (so each publishing rename stays on one filesystem), and ``finish`` moves
    them into place, the manifest last, or none of them. ``abort`` removes the
    staging directory, so a failed run leaves ``out_dir``, and any previous
    run in it, as it was; as a context manager, the session aborts when its
    block raises.
    """

    def __init__(self, out_dir: Path, command: str, config_text: str, tool_version: str):
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out_dir))
        except OSError as err:
            raise IoError(f"cannot create {out_dir}: {err}") from err
        self.command = command
        self.config_text = config_text
        self.tool_version = tool_version
        self.created: list[str] = []
        self.stages: list[tuple[str, float]] = []
        self._stage_started = time.monotonic()

    def __enter__(self) -> "ArtifactSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()

    def path(self, name: str) -> Path:
        """Register a new artifact and return its staged path; a name may be created once."""
        if name in self.created:
            raise ManifestError(f"artifact {name} is created twice in one run")
        self.created.append(name)
        return self.staging / name

    def write_text(self, name: str, text: str | Iterable[str]) -> Path:
        """Stage artifact ``name`` from ``text``, one string or an iterable of string chunks.

        Chunks are written in order through one open file, so a caller that
        yields them holds one chunk's text at a time; the file's bytes are
        those of the chunks joined. An exception raised while they are
        consumed propagates, and the session's abort removes the staged file.
        """
        p = self.path(name)
        chunks = (text,) if isinstance(text, str) else text
        try:
            with open(p, "w", encoding="utf-8", newline="\n") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as err:
            raise IoError(f"cannot write {self.out_dir / name}: {err}") from err
        return p

    def mark_stage(self, name: str) -> None:
        now = time.monotonic()
        self.stages.append((name, now - self._stage_started))
        self._stage_started = now

    def abort(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)
        try:
            self.out_dir.rmdir()  # only succeeds when nothing else lives there
        except OSError:
            pass

    def finish(self) -> Path:
        """Publish the staged artifacts, then the manifest that lists them.

        The files a name replaces are first moved aside. If a rename fails,
        the names published so far are taken back and the old files put back,
        so a previous run still verifies.
        """
        names = self.created + [MANIFEST_NAME]
        try:
            artifacts = []
            for name in self.created:
                p = self.staging / name
                artifacts.append({"path": name, "sha256": sha256_file(p), "bytes": p.stat().st_size})
            manifest = RunManifest(
                self.tool_version, self.command, self.config_text, self.stages, artifacts
            )
            (self.staging / MANIFEST_NAME).write_bytes(manifest.to_json().encode("utf-8"))
            for name in names:
                if (self.out_dir / name).is_dir():
                    raise IoError(f"cannot replace directory {self.out_dir / name}")
            self._publish(names)
            self.staging.rmdir()
        except OSError as err:
            raise IoError(f"cannot publish the run in {self.out_dir}: {err}") from err
        return self.out_dir / MANIFEST_NAME

    def _publish(self, names: list[str]) -> None:
        """Move ``names`` from staging into ``out_dir``, all of them or, on an OSError, none.

        The files the names replace wait in a ``.previous-*`` directory of
        ``out_dir``, outside the staging directory that ``abort`` removes. If
        a step of the rollback fails as well, that directory stays with the
        old files not put back, and the error names it.
        """
        previous = Path(tempfile.mkdtemp(prefix=".previous-", dir=self.out_dir))
        replaced, published = [], []
        try:
            for name in names:
                if os.path.lexists(self.out_dir / name):
                    os.replace(self.out_dir / name, previous / name)
                    replaced.append(name)
            for name in names:
                os.replace(self.staging / name, self.out_dir / name)
                published.append(name)
        except OSError as err:
            failed = []
            for name in published:
                if name not in replaced:
                    try:
                        (self.out_dir / name).unlink()
                    except OSError:
                        failed.append(name)
            for name in replaced:
                try:
                    os.replace(previous / name, self.out_dir / name)
                except OSError:
                    failed.append(name)
            if failed:
                raise OSError(
                    f"{err}; could not roll back {', '.join(failed)}: "
                    f"the replaced files are kept in {previous}"
                ) from err
            previous.rmdir()
            raise
        shutil.rmtree(previous)


def load_manifest(path: Path, verify: bool = True) -> RunManifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise IoError(f"cannot read manifest {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ManifestError(f"{path}: not valid JSON: {err}") from err
    try:
        manifest = RunManifest(
            tool_version=payload["tool_version"],
            command=payload["command"],
            config_text=payload["config"],
            stages=[(s["name"], float(s["seconds"])) for s in payload["stages"]],
            artifacts=list(payload["artifacts"]),
        )
    except (KeyError, TypeError) as err:
        raise ManifestError(f"{path}: missing field {err}") from err
    for art in manifest.artifacts:
        if not (
            isinstance(art, dict)
            and isinstance(art.get("path"), str)
            and isinstance(art.get("sha256"), str)
        ):
            raise ManifestError(f"{path}: artifact entry needs a path and a sha256: {art!r}")
    if verify:
        base = path.parent
        for art in manifest.artifacts:
            target = base / art["path"]
            if not target.is_file():
                raise ManifestError(f"{path}: listed artifact missing: {art['path']}")
            actual = sha256_file(target)
            if actual != art["sha256"]:
                raise ManifestError(
                    f"{path}: digest mismatch for {art['path']}: "
                    f"manifest {art['sha256'][:12]}.., file {actual[:12]}.."
                )
    return manifest
