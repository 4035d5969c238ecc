"""Ways to measure the memory of a training step with tracemalloc.

`graph_and_backward_peak(forward)` runs `forward()`, which returns a scalar
loss Tensor, then the loss's backward. It returns two byte counts, both
relative to the start of the forward:

- graph: bytes still allocated when the forward has returned, i.e. what the
  graph keeps for its backward;
- peak: the highest allocation during the backward.

`step_peak(step)` runs `step()` and returns the highest allocation during
it, relative to its start. tracemalloc traces every thread, so the peak of a
step that runs in two threads is the peak of their sum.
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


def step_peak(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
