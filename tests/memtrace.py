"""One way to measure the memory of a training step's graph with tracemalloc.

`graph_and_backward_peak(forward)` runs `forward()`, which returns a scalar
loss Tensor, then the loss's backward. It returns two byte counts, both
relative to the start of the forward:

- graph: bytes still allocated when the forward has returned, i.e. what the
  graph keeps for its backward;
- peak: the highest allocation during the backward.
"""
import tracemalloc


def graph_and_backward_peak(forward):
    tracemalloc.start()
    try:
        loss = forward()
        graph = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return graph, peak
