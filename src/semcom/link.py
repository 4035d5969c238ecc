"""Sender -> channel -> receiver glue shared by training and evaluation.

The sender one-hot encodes a map and power-normalizes the planes. The channel
corrupts the normalized symbols. The receiver undoes the power scale with the
out-of-band header, then either applies the fast denoiser (inference) or feeds
the raw noisy planes to the model (training), always padding absent classes
with clean zero planes. The packed wire size depends only on the map, so a
caller that reports bits on the wire takes `codec.rle_pack(stack).bit_count`
once per map rather than once per channel draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import codec
from . import fds as fds_mod


@dataclass(frozen=True)
class LinkResult:
    stack: codec.OneHotStack       # clean sender-side stack
    received_raw: np.ndarray       # noisy symbols reshaped to planes (still scaled)
    received_planes: np.ndarray    # de-scaled planes, approximately {0, 1} + noise


def transmit_map(class_map, c_total, cfg):
    """Run one map through encode -> normalize to cfg.power -> AWGN -> de-scale."""
    stack = codec.one_hot_encode(class_map, c_total)
    frame = codec.power_normalize(stack, cfg.power)
    raw = ch.transmit(frame, cfg).reshape(stack.planes.shape)
    return LinkResult(stack, raw, codec.inverse_normalize(raw, frame.scale))


def receiver_condition(link, c_total, fds_cfg=None):
    """Conditioning stack for the diffusion model: [C_total, H, W] float32.

    With an FdsConfig the planes are denoised and binarized; without one the
    raw de-scaled noisy planes pass through (the training-time path).
    """
    if fds_cfg is not None:
        full = fds_mod.fds(link.received_planes, link.stack.present_classes, c_total, fds_cfg)
        return full.astype(np.float32)
    return codec.pad_planes(link.received_planes.astype(np.float32), link.stack.present_classes, c_total)
