"""Atomic writes under concurrent writers."""

import sys
import threading

from stochreg.fileio import atomic_write_text


def test_concurrent_writers_of_one_path(tmp_path):
    target = tmp_path / "shared.txt"
    texts = {name: name * 4096 + "\n" for name in ("a", "b")}
    errors = []

    def writer(text):
        try:
            for _ in range(200):
                atomic_write_text(target, text)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(text,))
               for text in texts.values()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text(encoding="utf-8") in texts.values()
    assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]
