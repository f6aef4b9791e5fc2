"""Fixture: every raw dense product the determinism rule flags."""

import numpy as np


def project(state, weight, heads):
    out = state.data @ weight
    out @= weight
    mixed = np.matmul(state.data, weight)
    logits = np.dot(out, heads)
    return np.einsum("nh,h->n", logits, heads) + mixed
