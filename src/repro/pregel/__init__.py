"""A Pregel-like bulk-synchronous graph processing engine.

The graph is hash partitioned by node id (each partition holds its nodes and
their out-edges), computation proceeds in supersteps, and partitions exchange
messages that are delivered at the start of the next superstep.  A
sender-side message *combiner* can pre-reduce messages bound for the same
destination before they leave the worker — the mechanism the paper reuses for
its partial-gather strategy.

Programs are :class:`~repro.pregel.vertex.BlockVertexProgram`\\ s: the
"think like a vertex" compute runs once per partition per superstep over
packed :class:`~repro.pregel.vertex.MessageBlock`\\ s, so every stage stays
vectorised.  The GNN inference adaptor is one such program; PageRank in the
examples is another.
"""

from repro.pregel.vertex import MessageBlock, PartitionContext, BlockVertexProgram
from repro.pregel.combiners import MessageCombiner, SumCombiner, MeanCombiner, MaxCombiner
from repro.pregel.engine import PregelEngine, PregelPartition, PregelResult

__all__ = [
    "MessageBlock",
    "PartitionContext",
    "BlockVertexProgram",
    "MessageCombiner",
    "SumCombiner",
    "MeanCombiner",
    "MaxCombiner",
    "PregelEngine",
    "PregelPartition",
    "PregelResult",
]
