"""Deterministic hashing helpers shared across file formats and seeding."""

import hashlib
import json

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes: the seed derivation of `Rng.child`
    and the blob checksum of excel-tensors-v1 files."""
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & _MASK64
    return h


def config_digest(mapping: dict) -> str:
    """Stable hex digest of a JSON-serializable mapping."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance(stage: str, seed: int, config_hash: str, inputs: dict[str, str] | None = None) -> dict:
    """The {stage, seed, config_hash} stamp every artifact carries. An
    artifact built from a run's input files adds `inputs`: each input's
    name -> the SHA-256 hex digest of its contents."""
    stamp = {"stage": stage, "seed": seed, "config_hash": config_hash}
    if inputs is not None:
        stamp["inputs"] = dict(inputs)
    return stamp


def provenance_comment(prov: dict) -> str:
    """A provenance stamp as the comment line of a PPM or PGM image."""
    digests = "".join(f" {name}={digest}" for name, digest in prov.get("inputs", {}).items())
    return f"provenance stage={prov['stage']} seed={prov['seed']} config={prov['config_hash']}{digests}"
