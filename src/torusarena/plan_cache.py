"""Exact plan memoization keyed by a canonical text encoding of the local
planning problem, persisted one file per plan so the cache survives across
runs and configurations.

Key grammar: <flag><attachment><61 grid chars> where the flag is 'c' or 'n'
(clear allowed or not), the attachment prefix is the signed decimal dx then
dy of the attached cardinal offset ("01" = south, "0-1" = north) or empty,
and the grid maps the diamond in unrolling order with empty cells as 0,
obstacles 1, blocks 2 and the movement target 3. The agent's own cell,
dispensers and taskboards all count as empty.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
from pathlib import Path
from typing import Callable, Optional

from .torus import CARDINALS, DIAMOND, Offset
from .planner import BLOCKED, EMPTY, OBSTACLE, Plan, Problem, action_from_token

logger = logging.getLogger(__name__)

_FLAGS = {True: "c", False: "n"}
_GRID = len(DIAMOND)
_PREFIX_RE = re.compile(r"^(-?\d)(-?\d)$")


class KeyFormatError(ValueError):
    def __init__(self, position: int, reason: str):
        super().__init__(f"bad key at position {position}: {reason}")
        self.position = position
        self.reason = reason


def encode(problem: Problem) -> str:
    """Canonical key of a problem."""
    codes = {EMPTY: "0", OBSTACLE: "1", BLOCKED: "2"}
    prefix = ""
    if problem.attached is not None:
        prefix = f"{problem.attached[0]}{problem.attached[1]}"
    grid = []
    for off, label in zip(DIAMOND, problem.labels):
        grid.append("3" if off == problem.goal else codes[label])
    return _FLAGS[problem.clear_allowed] + prefix + "".join(grid)


def decode_key(key: str) -> Problem:
    """Inverse of encode. Rejects malformed keys with
    the position of the first offending character."""
    if not key or key[0] not in ("c", "n"):
        raise KeyFormatError(0, "flag must be 'c' or 'n'")
    if len(key) < 1 + _GRID:
        raise KeyFormatError(len(key), f"key shorter than flag + {_GRID} grid chars")
    middle, grid = key[1:-_GRID], key[-_GRID:]
    attached: Optional[Offset] = None
    if middle:
        m = _PREFIX_RE.match(middle)
        if not m:
            raise KeyFormatError(1, f"malformed attachment prefix {middle!r}")
        attached = (int(m.group(1)), int(m.group(2)))
        if attached not in CARDINALS:
            raise KeyFormatError(1, f"attachment {attached} is not cardinal")
    goal = None
    labels = []
    base = 1 + len(middle)
    for i, ch in enumerate(grid):
        if ch == "0":
            labels.append(EMPTY)
        elif ch == "1":
            labels.append(OBSTACLE)
        elif ch == "2":
            labels.append(BLOCKED)
        elif ch == "3":
            if goal is not None:
                raise KeyFormatError(base + i, "second goal marker")
            goal = DIAMOND[i]
            labels.append(EMPTY)
        else:
            raise KeyFormatError(base + i, f"invalid grid char {ch!r}")
    if goal is None:
        raise KeyFormatError(base, "no goal marker")
    return Problem(
        labels=tuple(labels),
        goal=goal,
        attached=attached,
        clear_allowed=key[0] == "c",
    )


def classify_key(key: str) -> Optional[tuple[str, bool]]:
    """(flag, has_attachment) for a well-formed key, None otherwise."""
    try:
        problem = decode_key(key)
    except (KeyFormatError, ValueError):
        return None
    return (key[0], problem.attached is not None)


class CacheStore:
    """One file per key under `root`; file name is the key text, content is
    the plan, one action token per line. A read-only store never creates
    its directory: a missing one raises FileNotFoundError."""

    def __init__(self, root, readonly: bool = False):
        self.root = Path(root)
        self.readonly = readonly
        if not readonly:
            self.root.mkdir(parents=True, exist_ok=True)
        self.index = {p.name for p in self.root.iterdir() if p.is_file()}

    def lookup(self, key: str) -> Optional[Plan]:
        if key not in self.index:
            return None
        path = self.root / key
        try:
            text = path.read_text()
        except OSError:
            logger.warning("unreadable cache entry %s; treating as miss", key)
            return None
        plan = parse_plan(text)
        if plan is None:
            logger.warning("corrupt cache entry %s; treating as miss", key)
            return None
        return plan

    def store(self, key: str, plan: Plan) -> None:
        if self.readonly:
            return
        # Atomic persist: concurrent writers of one key all compute the same
        # plan, so last-writer-wins is harmless.
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(format_plan(plan))
            os.replace(tmp, self.root / key)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.index.add(key)


def format_plan(plan: Plan) -> str:
    return "".join(token + "\n" for token in plan)


def parse_plan(text: str) -> Optional[Plan]:
    tokens = tuple(line for line in text.splitlines() if line)
    try:
        for token in tokens:
            action_from_token(token)
    except ValueError:
        return None
    return tokens


def solve_cached(
    problem: Problem,
    store: CacheStore,
    solver: Callable[[Problem], Plan],
) -> tuple[Plan, str]:
    """Fetch by key or solve and persist; the outcome tag is 'hit' or 'miss'."""
    key = encode(problem)
    cached = store.lookup(key)
    if cached is not None:
        return cached, "hit"
    plan = solver(problem)
    store.store(key, plan)
    return plan, "miss"
