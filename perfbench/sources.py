"""Digest of the program and benchmark sources (standard library only)."""

from __future__ import annotations

import hashlib
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "pharec")


def code_digest() -> str:
    """Hash of every .py file of the program and the benchmark; keys cached
    inputs and recorded artifact digests, so a code change starts afresh."""
    h = hashlib.sha256()
    for d in (SRC, HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]
