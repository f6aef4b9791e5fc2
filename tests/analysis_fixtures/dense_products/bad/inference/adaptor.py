"""Fixture: a raw product in the inference layer is flagged too."""

import numpy


def messages(rows, weight):
    return numpy.dot(rows, weight)
