"""Shared fixtures."""

import os
from pathlib import Path

import pytest

from netdiag import preprocess


@pytest.fixture
def break_writes(monkeypatch):
    """break_writes(name, how) makes every later write of a file called
    `name` fail as a crash would: how="write" stops halfway through the
    text, how="replace" fails the os.replace that puts the file in place."""

    def install(name: str, how: str) -> None:
        if how == "write":
            real_open = open

            class HalfWriter:
                def __init__(self, f):
                    self.f = f

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

                def write(self, text):
                    self.f.write(text[: len(text) // 2])
                    self.f.flush()
                    raise OSError(28, "No space left on device")

            def failing_open(path, *args, **kwargs):
                f = real_open(path, *args, **kwargs)
                return HalfWriter(f) if Path(path).name.startswith(f".{name}.") else f

            monkeypatch.setattr(preprocess, "open", failing_open, raising=False)
        else:
            real_replace = os.replace

            def failing_replace(src, dst):
                if Path(dst).name == name:
                    raise OSError(5, "Input/output error")
                real_replace(src, dst)

            monkeypatch.setattr(preprocess.os, "replace", failing_replace)

    return install
