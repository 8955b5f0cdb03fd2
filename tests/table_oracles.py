"""Reference implementation of cell-text normalization, for differential
tests.

This is the regex version that ``adapterqa.tables.normalize_text``
replaces: control characters become spaces, every whitespace run becomes
one space, and the ends are trimmed. The two must return equal strings.
"""

from __future__ import annotations

import re

_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text_regex(text: str) -> str:
    text = _CONTROL_CHARS.sub(" ", text)
    return _WHITESPACE_RUN.sub(" ", text).strip()
