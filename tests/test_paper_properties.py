"""The paper's qualitative claims, as the model measures them today.

RING and CONV at 2, 4 and 8 clusters run every workload mix at 20k
instructions with seed 2005 under the default kernel variant (20k with one
seed is enough: across 10 seeds the IPC standard deviation of every
``dependence`` and ``round_robin`` cell is at most 0.03 there).  Each property
states its direction.  A timing-model change that flips one on purpose
must change the property here and say so; one that flips it by accident
fails here even when every kernel agrees with every other.

* **Balance (the title claim).**  Under ``dependence`` steering, RING's
  issue imbalance, (max - min) / mean of ``issued_per_cluster``, is below
  CONV's at every cluster count for every mix, except the cells in
  :data:`RING_NOT_MORE_BALANCED`.  There both are below 1%.
* **Ring distance.**  Every RING operand travels 1 to N hops: a consumer
  reads from the next cluster's register file at best, and from its own
  cluster after going once round the ring at worst.
* **Conventional distance.**  Every remote CONV operand travels 1 to N/2
  hops, the shorter way round.
* **Serial code.**  On a serial dependence chain CONV's IPC beats RING's:
  CONV keeps the chain in one cluster behind its local bypass, while RING
  pays at least one hop per edge.
"""

import pytest

from repro.common.config import ProcessorConfig
from repro.common.types import InstrClass, Topology
from repro.engine import Pipeline, Trace
from repro.steering import list_policies
from repro.workloads import generate_trace, list_mixes

CLUSTER_COUNTS = (2, 4, 8)
N_INSTRUCTIONS = 20_000
SEED = 2005

#: (mix, clusters) cells where RING's imbalance is not below CONV's under
#: ``dependence``: branchy at 2 clusters, 0.0067 against 0.0059.
RING_NOT_MORE_BALANCED = {("branchy", 2)}


@pytest.fixture(scope="module")
def traces():
    return {mix: generate_trace(mix, N_INSTRUCTIONS, seed=SEED)
            for mix in list_mixes()}


def run(trace, topology, n_clusters, steering="dependence"):
    cfg = ProcessorConfig(topology=topology, n_clusters=n_clusters,
                          steering=steering)
    return Pipeline(cfg).run(trace)


def imbalance(result):
    issued = result.issued_per_cluster
    return (max(issued) - min(issued)) / (sum(issued) / len(issued))


def test_ring_issue_is_more_balanced_under_dependence(traces):
    not_more_balanced = set()
    for mix, trace in traces.items():
        for n in CLUSTER_COUNTS:
            ring = imbalance(run(trace, Topology.RING, n))
            conv = imbalance(run(trace, Topology.CONV, n))
            if ring >= conv:
                not_more_balanced.add((mix, n))
                assert max(ring, conv) < 0.01, (mix, n, ring, conv)
    assert not_more_balanced == RING_NOT_MORE_BALANCED


@pytest.mark.parametrize("steering", list_policies())
@pytest.mark.parametrize("topology, bound", [
    (Topology.RING, lambda n: n),
    (Topology.CONV, lambda n: n // 2),
], ids=["ring", "conv"])
def test_hop_counts_stay_within_the_topology(traces, topology, bound,
                                             steering):
    for mix, trace in traces.items():
        for n in CLUSTER_COUNTS:
            hops = run(trace, topology, n, steering).hop_histogram
            assert hops, (mix, n)
            assert min(hops) >= 1 and max(hops) <= bound(n), (mix, n, hops)


@pytest.mark.parametrize("n_clusters", CLUSTER_COUNTS)
def test_conv_beats_ring_on_a_serial_chain(n_clusters):
    ops = [(InstrClass.INT_ALU, "r0")]
    ops += [(InstrClass.INT_ALU, "r0", "r0")] * (N_INSTRUCTIONS - 1)
    chain = Trace.from_ops(ops, name="chain")
    ring = run(chain, Topology.RING, n_clusters)
    conv = run(chain, Topology.CONV, n_clusters)
    assert conv.ipc > ring.ipc, (conv.ipc, ring.ipc)
