"""Strict parsing of the ``REPRO_*`` on/off environment flags.

A flag is read per call (tests and CLIs toggle them without
re-importing modules).  Unset or empty selects the default, ``"0"`` and
``"1"`` select off and on, and anything else is an error: a mistyped
``REPRO_CACHE=false`` must not quietly leave the store on.
"""

from __future__ import annotations

import os


def env_flag(name: str, default: bool) -> bool:
    """The on/off value of environment variable ``name``.

    Raises :class:`ValueError` naming the variable and its value unless
    it is unset, ``""``, ``"0"`` or ``"1"``.
    """
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise ValueError(f"{name}={raw!r}: expected 0 or 1 (or unset)")
