"""The name of the array backend, written to the ``kernel-backend`` line of
every CSV. The package is numpy only and holds no kernel of its own; the
line stays until the next CSV format version.
"""
from __future__ import annotations

BACKEND = "numpy"


def backend_name() -> str:
    return BACKEND
