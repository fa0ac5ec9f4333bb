"""R002 bad: guarded attributes touched outside their guard."""

import threading


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock

    def record(self):
        self._hits += 1  # line 12: lock-guarded attr without the lock

    def snapshot(self):
        with self._other_lock:
            return self._hits  # line 16: wrong lock held
