"""Incremental label maintenance under edge updates.

Every labeling scheme in :mod:`repro.labeling` freezes its labels at
construction; this package makes them survive mutation.  The public
surface lives on :class:`~repro.labeling.base.ReachabilityIndex`
(``insert_edge`` / ``delete_edge``, gated by the ``mutable`` capability
flag); this package supplies the machinery behind it:

* :mod:`repro.dynamic.strategies` — the per-scheme delta strategies.
  Interval and tree-cover repair only affected subtrees, chain patches
  the decomposition segments an update crosses, 2-hop patches hop sets
  along the edge's frontier, TCM ors/recomputes closure rows over the
  dirty region, and the traversal schemes are free because they answer
  from the live graph.  Updates a delta cannot handle cheaply fall back
  to a partial/full rebuild.
* :mod:`repro.dynamic.log` — :class:`UpdateLog`, the per-index record of
  which strategy served each update and how many labels it touched, so
  tests and benches can assert an update stayed on the delta path.

Invalidation is by version token: every applied update bumps the graph's
``update_version``, which the index mirrors and every derived layer
(compiled kernels, hot-pair caches, session plans) snapshots and
re-checks.  A mutated index therefore never serves a
pre-update answer from any cache.
"""

from repro.dynamic.log import UpdateLog, UpdateRecord
from repro.dynamic.strategies import apply_delete, apply_insert, register_strategy

__all__ = [
    "UpdateLog",
    "UpdateRecord",
    "apply_insert",
    "apply_delete",
    "register_strategy",
]
