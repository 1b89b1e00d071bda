"""Per-tenant warm state: :class:`TheorySession` and :class:`SessionRegistry`.

A session is what makes the server faster than a cold one-shot CLI
invocation: it keeps

* parsed theories, databases, and queries (keyed by source text), so a
  tenant sending the same theory with every request pays the parser
  once;
* finished rewriting artifacts — the Darwiche–Marquis idiom: pay the
  UCQ compilation once, answer every later identical ``rewrite``
  request from the cache (only *saturated* rewritings are cached; a
  budget-truncated result under one deadline must not be served to a
  request with a larger one);
* live :class:`~repro.chase.ChaseView` incremental views, each with
  its own lock so updates and queries against one view serialize while
  different views (and different tenants) proceed in parallel.

The compiled join plans and subsume/type-query memos warmed by a
session's requests live in the existing process-wide caches
(:data:`repro.lf.plan.PLAN_CACHE` & co.), which this PR made
thread-safe; the session does not duplicate them.

Everything here is called from worker threads, so every mutation of
shared dicts happens under a lock; parsing and engine work happen
outside the locks.  Cached structures are safe to share because no
engine mutates its input.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..lf import parse_query, parse_structure, parse_theory

#: Bound on each per-session parse cache (entries are parsed ASTs —
#: cheap — but tenants can be adversarial).
PARSE_CACHE_MAX = 128
#: Bound on the per-session finished-rewriting artifact cache.
REWRITING_CACHE_MAX = 256


def text_key(text: str) -> str:
    """A stable short key for a source text (sha1 prefix)."""
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class _ViewSlot:
    """A live view plus the lock serializing its updates/queries."""

    __slots__ = ("view", "lock")

    def __init__(self, view) -> None:
        self.view = view
        self.lock = threading.RLock()


class TheorySession:
    """The warm state of one tenant (see the module docstring)."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.created = time.monotonic()
        self._lock = threading.RLock()
        self._theories: "OrderedDict[str, Any]" = OrderedDict()
        self._databases: "OrderedDict[str, Any]" = OrderedDict()
        self._queries: "OrderedDict[Tuple[str, Tuple[str, ...]], Any]" = OrderedDict()
        self._rewritings: "OrderedDict[tuple, Tuple[Dict[str, Any], int]]" = OrderedDict()
        self._views: Dict[str, _ViewSlot] = {}
        self.hits = 0
        self.misses = 0
        self.rewriting_hits = 0
        self.requests = 0

    # -- parse caches --------------------------------------------------

    def _cached(self, cache: "OrderedDict", key, parse, max_size=PARSE_CACHE_MAX):
        with self._lock:
            if key in cache:
                cache.move_to_end(key)
                self.hits += 1
                return cache[key]
        value = parse()  # pure; outside the lock
        with self._lock:
            if key not in cache:
                self.misses += 1
                cache[key] = value
                while len(cache) > max_size:
                    cache.popitem(last=False)
            return cache[key]

    def theory(self, text: str):
        """Parse (or recall) a theory from its source text."""
        return self._cached(self._theories, text_key(text),
                            lambda: parse_theory(text))

    def database(self, text: str):
        """Parse (or recall) a database.  Sharing the parsed structure
        is safe: engines never mutate their input."""
        return self._cached(self._databases, text_key(text),
                            lambda: parse_structure(text))

    def query(self, text: str, free: "Tuple[str, ...]"):
        """Parse (or recall) a conjunctive query."""
        return self._cached(self._queries, (text_key(text), free),
                            lambda: parse_query(text, free=list(free)))

    # -- rewriting artifacts -------------------------------------------

    def cached_rewriting(self, key: tuple) -> "Optional[Tuple[Dict[str, Any], int]]":
        with self._lock:
            entry = self._rewritings.get(key)
            if entry is not None:
                self._rewritings.move_to_end(key)
                self.rewriting_hits += 1
            return entry

    def store_rewriting(self, key: tuple, payload: Dict[str, Any], code: int) -> None:
        with self._lock:
            self._rewritings[key] = (payload, code)
            while len(self._rewritings) > REWRITING_CACHE_MAX:
                self._rewritings.popitem(last=False)

    # -- live views ----------------------------------------------------

    def create_view(self, name: str, view) -> _ViewSlot:
        slot = _ViewSlot(view)
        with self._lock:
            self._views[name] = slot
        return slot

    def view_slot(self, name: str) -> "Optional[_ViewSlot]":
        with self._lock:
            return self._views.get(name)

    def close_view(self, name: str) -> bool:
        with self._lock:
            return self._views.pop(name, None) is not None

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests,
                "theories": len(self._theories),
                "databases": len(self._databases),
                "queries": len(self._queries),
                "rewritings": len(self._rewritings),
                "views": sorted(self._views),
                "parse_hits": self.hits,
                "parse_misses": self.misses,
                "rewriting_hits": self.rewriting_hits,
            }


class SessionRegistry:
    """Thread-safe LRU map ``tenant name -> TheorySession``."""

    def __init__(self, max_sessions: int = 64) -> None:
        self._max = max_sessions
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, TheorySession]" = OrderedDict()
        self.evicted = 0

    def get(self, tenant: str) -> TheorySession:
        """The tenant's session, created (and LRU-evicting) on demand."""
        with self._lock:
            session = self._sessions.get(tenant)
            if session is None:
                session = TheorySession(tenant)
                self._sessions[tenant] = session
                while len(self._sessions) > self._max:
                    self._sessions.popitem(last=False)
                    self.evicted += 1
            else:
                self._sessions.move_to_end(tenant)
            return session

    def peek(self, tenant: str) -> "Optional[TheorySession]":
        with self._lock:
            return self._sessions.get(tenant)

    def close(self, tenant: str) -> bool:
        with self._lock:
            return self._sessions.pop(tenant, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            sessions = list(self._sessions.items())
        return {
            "sessions": len(sessions),
            "evicted": self.evicted,
            "tenants": {name: session.stats() for name, session in sessions},
        }
