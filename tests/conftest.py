"""Shared fixtures."""

import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from netdiag import preprocess
from netdiag.svm import SvmModel


def model_fields(model: SvmModel) -> tuple:
    """The fields of a model as plain values, its arrays as lists, so that
    two models compare field by field with ==."""

    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value

    return tuple(plain(getattr(model, f.name)) for f in fields(model))


def stage_fields(stage) -> tuple:
    """What a cascade stage (an LpdClassifier or a CfModule) learned, as
    plain values: its model's fields, its scaler's extrema and its
    selection, so that two stages compare with ==."""
    return model_fields(stage.model), stage.scaler.min.tolist(), stage.scaler.max.tolist(), stage.selection


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
                return HalfWriter(f) if Path(path).name.rsplit(".", 2)[0] == f".{name}" else f

            monkeypatch.setattr(preprocess, "open", failing_open, raising=False)
        else:
            real_replace = os.replace

            def failing_replace(src, dst):
                if Path(dst).name == name:
                    raise OSError(5, "Input/output error")
                real_replace(src, dst)

            monkeypatch.setattr(preprocess.os, "replace", failing_replace)

    return install


class Crash(BaseException):
    """The process died: no later filesystem step runs."""


@pytest.fixture
def fail_step():
    """fail_step(k, crash) patches the filesystem steps of a save (os.rename,
    os.replace, os.mkdir, shutil.rmtree and the opening of artifact files)
    for the duration of a `with` block, and fails the k-th of them (from 0).
    With crash=False that step raises OSError (an rmtree that ignores
    errors deletes nothing) and later steps run; with crash=True it and
    every later step raise Crash without touching the disk.  The yielded
    list holds the names of the steps taken."""
    import shutil
    from contextlib import contextmanager

    @contextmanager
    def install(k: int, crash: bool):
        steps: list[str] = []

        def wrap(name, real):
            def step(*args, **kwargs):
                steps.append(name)
                if len(steps) - 1 == k or (crash and len(steps) - 1 > k):
                    if crash:
                        raise Crash(name)
                    if name == "rmtree" and kwargs.get("ignore_errors"):
                        return None
                    raise OSError(5, f"Input/output error in {name}")
                return real(*args, **kwargs)

            return step

        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((os, "rename"), (os, "replace"), (os, "mkdir"), (shutil, "rmtree")):
                mp.setattr(module, name, wrap(name, getattr(module, name)))
            mp.setattr(preprocess, "open", wrap("open", open), raising=False)
            yield steps

    return install
