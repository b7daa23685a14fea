"""Property-based safety of the stack under seeded fault injection (S3).

The contract of every recovery path is *no silent wrong answers and no
hangs*: for any seeded :class:`~repro.faults.FaultPlan` over the
injectable fault set (connection drops, SQL errors, worker crashes) and
any query type on any surface (a local session or a ``repro://`` client),
the caller either gets an answer **bit-identical** to the unfaulted
oracle, or a *typed* error (:class:`~repro.exceptions.ReproError`,
``OSError`` or ``sqlite3.OperationalError``) — never a mangled result,
never an unbounded wait.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    CrossRunBatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
)
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import ReproError
from repro.faults import FaultPlan, FaultRule
from repro.server import RemoteStore, ServerThread
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size

FEW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)

#: the injectable fault set of the property: every (point, kind) pair a
#: plan may arm, spanning transport, SQL and worker-crash shapes
FAULT_CASES = (
    ("client.send", "oserror"),
    ("client.recv", "oserror"),
    ("pool.task", "crash"),
    ("pushdown.sql", "sql"),
    ("store.load_label_arrays", "sql"),
)

#: what a caller may legitimately see instead of the oracle answer
TYPED_ERRORS = (ReproError, OSError, sqlite3.OperationalError)


@pytest.fixture(scope="module")
def fault_world(tmp_path_factory):
    """A pushdown-capable local store with several runs, behind a server."""
    spec = generate_specification(
        SyntheticSpecConfig(
            n_modules=12,
            n_edges=11,
            hierarchy_size=4,
            hierarchy_depth=2,
            name="fault-prop",
            seed=19,
        )
    )
    labeler = SkeletonLabeler(spec, "interval")
    store = ProvenanceStore(tmp_path_factory.mktemp("fault-prop") / "prov.db")
    anchor = None
    run_ids = []
    for index in range(5):
        generated = generate_run_with_size(
            spec, 30, seed=index, name=f"prop-{index}"
        )
        run_ids.append(store.add_labeled_run(labeler.label_run(generated.run)))
        if anchor is None:
            vertex = generated.run.vertices()[0]
            anchor = (vertex.module, vertex.instance)
    with ServerThread(store) as server:
        yield store, server, spec, anchor, run_ids
    store.close()


def _queries(spec, anchor, run_ids):
    pairs = [(anchor, anchor), (anchor, (anchor[0], anchor[1] + 1))]
    return {
        "point": PointQuery(anchor, anchor, run_id=run_ids[0]),
        "sweep": DownstreamQuery(anchor, run_id=run_ids[0], pushdown="auto"),
        "sweep-pushdown": DownstreamQuery(
            anchor, run_id=run_ids[0], pushdown="always"
        ),
        "cross": CrossRunQuery(spec.name, anchor, workers=2),
        "cross-pushdown": CrossRunQuery(
            spec.name, anchor, workers=2, pushdown="always"
        ),
        "cross-batch": CrossRunBatchQuery(spec.name, pairs),
    }


@FEW
@given(
    case=st.sampled_from(FAULT_CASES),
    trigger=st.one_of(
        st.integers(min_value=1, max_value=3).map(lambda n: {"nth": n}),
        st.floats(min_value=0.05, max_value=0.5).map(lambda p: {"p": p}),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    query_name=st.sampled_from(
        ("point", "sweep", "sweep-pushdown", "cross", "cross-pushdown", "cross-batch")
    ),
    surface=st.sampled_from(("local", "remote")),
)
def test_faulted_queries_match_oracle_or_raise_typed(
    fault_world, case, trigger, seed, query_name, surface
):
    store, server, spec, anchor, run_ids = fault_world
    point, kind = case
    query = _queries(spec, anchor, run_ids)[query_name]
    plan = FaultPlan([FaultRule(point, kind, **trigger)], seed=seed)

    if surface == "local":
        session = ProvenanceSession(store)
        oracle = session.run(query)
        with plan.active():
            try:
                result = session.run(query)
            except TYPED_ERRORS:
                return  # a typed refusal is within contract
        assert result == oracle
    else:
        with RemoteStore(
            server.url, retries=3, backoff_base=0.005, retry_seed=seed
        ) as client:
            session = client.session()
            oracle = session.run(query)
            with plan.active():
                try:
                    result = session.run(query)
                except TYPED_ERRORS:
                    return
            assert result == oracle


@FEW
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p=st.floats(min_value=0.02, max_value=0.1),
)
def test_chaos_profile_is_always_transparent(fault_world, seed, p):
    """The ``chaos`` points recover transparently: answers only, no errors."""
    store, server, spec, anchor, run_ids = fault_world
    from repro.faults import parse_fault_spec

    plan = parse_fault_spec(f"chaos:p={p};seed={seed}")
    # the retry budget dominates the flake floor: at p=0.1 an attempt fails
    # with probability ~0.3 (send + recv + reconnect handshake), so nine
    # attempts put residual failure below 1e-4
    with RemoteStore(
        server.url, retries=8, backoff_base=0.005, retry_seed=seed
    ) as client:
        session = client.session()
        query = CrossRunQuery(spec.name, anchor, workers=2)
        oracle = session.run(query)
        with plan.active():
            assert session.run(query) == oracle
