"""Run manifests: what a command produced, with content digests.

The manifest is a JSON file written last, after every artifact it lists.
Loading a manifest re-hashes the artifacts and raises ManifestError on any
mismatch, so a manifest that loads cleanly certifies its run directory.
"""

from __future__ import annotations

import hashlib
import json
import time
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

    On success, ``finish`` writes the manifest last. On failure, ``abort``
    removes every file this session created so no partial artifacts remain;
    as a context manager, the session aborts when its block raises.
    """

    def __init__(self, out_dir: Path, command: str, config_text: str, tool_version: str):
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise IoError(f"cannot create {out_dir}: {err}") from err
        self.command = command
        self.config_text = config_text
        self.tool_version = tool_version
        self.created: list[Path] = []
        self.stages: list[tuple[str, float]] = []
        self._stage_started = time.monotonic()

    def __enter__(self) -> "ArtifactSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()

    def path(self, name: str) -> Path:
        """Register a new artifact; a name may be created once per session."""
        p = self.out_dir / name
        if p in self.created:
            raise ManifestError(f"artifact {name} is created twice in one run")
        p.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(p)
        return p

    def write_text(self, name: str, text: str) -> Path:
        p = self.path(name)
        try:
            with open(p, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            raise IoError(f"cannot write {p}: {err}") from err
        return p

    def mark_stage(self, name: str) -> None:
        now = time.monotonic()
        self.stages.append((name, now - self._stage_started))
        self._stage_started = now

    def abort(self) -> None:
        for p in reversed(self.created):
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        self.created.clear()
        try:
            self.out_dir.rmdir()  # only succeeds when nothing else lives there
        except OSError:
            pass

    def finish(self) -> Path:
        artifacts = []
        for p in self.created:
            artifacts.append(
                {
                    "path": str(p.relative_to(self.out_dir)),
                    "sha256": sha256_file(p),
                    "bytes": p.stat().st_size,
                }
            )
        manifest = RunManifest(
            self.tool_version, self.command, self.config_text, self.stages, artifacts
        )
        target = self.out_dir / MANIFEST_NAME
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.to_json())
        return target


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
