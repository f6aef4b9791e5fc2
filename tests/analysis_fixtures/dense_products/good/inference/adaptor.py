"""Counter-fixture: row gathers and segment sums are not dense products."""

import numpy as np


def gather(state, src_rows, dst, num_nodes):
    messages = state[src_rows]
    out = np.zeros((num_nodes, messages.shape[1]))
    np.add.at(out, dst, messages)
    return out
