"""R002 good: every access path the guard discipline allows."""

import threading


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._hits = 0  # __init__ may touch guarded attrs lock-free

    def record(self):
        with self._lock:
            self._hits += 1

    def snapshot(self):
        with self._lock:
            hits = self._hits
        return hits
