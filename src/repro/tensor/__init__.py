"""Minimal numpy-backed tensor and neural-network substrate.

The paper's GNN models are written against TensorFlow; this package provides
the small slice of a deep-learning framework that GNN training and inference
actually need:

* :class:`~repro.tensor.tensor.Tensor` — a dense array with reverse-mode
  automatic differentiation; its 2-D ``@`` is row-stable (fixed-shape
  tiles), so any row subset of a product is bit-identical to the full one.
* :mod:`~repro.tensor.ops` — dense math (elementwise, reductions) and
  the *segment* operations (``segment_sum`` / ``segment_mean`` / ``segment_max``
  and ``segment_softmax``) that message-passing GNNs are built from.
* :mod:`~repro.tensor.nn` — ``Module`` / ``Parameter`` / ``Linear`` and friends.
* :mod:`~repro.tensor.optim` — SGD and Adam.
* :mod:`~repro.tensor.losses` — cross-entropy and binary cross-entropy.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import ops
from repro.tensor import nn
from repro.tensor import optim
from repro.tensor import losses

__all__ = ["Tensor", "no_grad", "ops", "nn", "optim", "losses"]
