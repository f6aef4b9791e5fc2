"""Counter-fixture: projections go through the tensor layer's Linear."""

import numpy as np


def project(linear, state, attn):
    out = linear(state)
    logits = (out * attn).sum(axis=-1)
    return logits, np.concatenate([out.data, logits.data], axis=-1)
