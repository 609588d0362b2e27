"""Time one import of sstap in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py

Prints one JSON list: the seconds that ``import sstap, sstap.cli`` took,
and the seconds that ``interpreter_seconds`` took just before and just
after it. Only ``time`` and ``json`` are loaded before the import, so the
import pays for everything else it needs, numpy included.
"""

import time


def interpreter_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work, about 30 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(10):
        table = {i: (i, float(i)) for i in range(2_000)}
    assert len(table) == 2_000
    return time.perf_counter() - start


def main() -> None:
    before = interpreter_seconds()
    start = time.perf_counter()
    import sstap  # noqa: F401
    import sstap.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    after = interpreter_seconds()
    import json

    print(json.dumps([elapsed, before, after]))


if __name__ == "__main__":
    main()
