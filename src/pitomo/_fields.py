"""Typed JSON input and output.

Every ``from_json_dict`` reads its fields through :func:`field` and
:func:`items`, and every JSON file is opened through :func:`load`, so a
value of the wrong JSON type is reported as ``path: field must be ...``
(a ``ValueError``, exit code 3 at the command line) instead of escaping
as a ``TypeError`` or being coerced into something it is not; a record's
own rules name the entry they refuse the same way (:class:`EntryError`).
Every file the package writes goes through :func:`rewrite`, the one
writer: UTF-8 text, rewritten in place and cut to length, never
truncated to empty first.  Every JSON file is written through
:func:`dump`, in one layout: sorted keys, two-space indent, a final
newline.
"""

from __future__ import annotations

import enum
import json
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

_REQUIRED = object()

_EXPECTED = {float: "a number", int: "an integer", bool: "true or false",
             str: "a string", list: "a list", dict: "an object"}


def brief(value) -> str:
    """repr(value), cut to 60 characters."""
    shown = repr(value)
    return shown if len(shown) <= 60 else shown[:57] + "..."


class EntryError(ValueError):
    """``key``, or entry ``index`` of the list ``key``, breaks ``rule``."""

    def __init__(self, key: str, index, rule: str, value):
        self.key, self.index, self.rule, self.value = key, index, rule, value
        name = key if index is None else f"{key}[{index}]"
        super().__init__(f"{name} {rule}, got {brief(value)}")


def check(value, kind, name: str, index=None):
    """``value`` as ``kind``, or an EntryError for ``name`` or ``name[index]``.

    ``kind`` is float, int, bool, str, list, dict or an Enum class.  A
    number is a JSON integer or float, never a boolean; an integer field
    also takes a float with an integral value, as JSON writers may emit.
    """
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            expected = " or ".join(repr(m.value) for m in kind)
    else:
        expected = _EXPECTED[kind]
        if kind is float:
            if type(value) in (int, float):
                try:
                    return float(value)
                except OverflowError:
                    pass
        elif kind is int:
            if type(value) is int:
                return value
            if type(value) is float and value.is_integer():
                return int(value)
        elif type(value) is kind:
            return value
    raise EntryError(name, index, f"must be {expected}", value)


def field(d: dict, key: str, kind, default=_REQUIRED):
    """``d[key]`` checked by :func:`check`.

    An absent key gives ``default``, or an error if there is none.  A
    field whose default is None is optional: null reads as absent.
    """
    if key not in d or (default is None and d[key] is None):
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    return check(d[key], kind, key)


def items(d: dict, key: str, kind, default=_REQUIRED):
    """``d[key]`` as a tuple whose entries are checked as ``key[i]``;
    ``default`` if the key is absent."""
    if key not in d and default is not _REQUIRED:
        return default
    return tuple(check(x, kind, key, i)
                 for i, x in enumerate(field(d, key, list)))


def load(path, reader):
    """``reader`` applied to the JSON object stored in ``path``.

    Undecodable JSON, a document that is not an object and every
    ``ValueError`` of the reader are re-raised as ``path: ...``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return reader(check(json.loads(text), dict, "the document"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def rewrite(path):
    """A UTF-8 text file open for writing ``path`` from its first byte.

    The file is created if missing (mode 0o666 less the umask) and
    otherwise rewritten in place: same inode, mode and owner, through a
    symlink to its target.  It is not truncated on open, which on ext4
    would flush the old file's pages on close; it is cut to what was
    written on leaving the block, whether the block returns or raises.
    Until then, and if the process is killed before the cut, the file
    holds the new bytes followed by the tail of the old ones, so an
    interrupted rewrite is no complete file; rerun the command.  The
    bytes are those of ``Path.write_text(..., encoding="utf-8")``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        f = os.fdopen(fd, "w", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    try:
        yield f
    finally:
        try:
            f.truncate()
        finally:
            f.close()


def dump(path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON with sorted keys.

    The encoder's chunks go to the file in joined batches, so a long scan
    is never held as one string.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    with rewrite(path) as f:
        while batch := list(islice(chunks, 65536)):
            f.write("".join(batch))
        f.write("\n")
