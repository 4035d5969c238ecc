import numpy as np
import pytest

from semcom.channel import NOISELESS_PSNR, ChannelConfig
from semcom.fds import FdsConfig
from semcom.link import receiver_condition, transmit_map

C_TOTAL = 6


def _map():
    cmap = np.full((12, 10), 4)
    cmap[2:7, 1:6] = 1
    cmap[8:11, 5:9] = 3
    return cmap  # classes 0, 2 and 5 are absent


@pytest.mark.parametrize("power", [1.0, 2.5])
def test_noiseless_link_returns_the_planes_bitwise(power):
    link = transmit_map(_map(), C_TOTAL, ChannelConfig(psnr_db=NOISELESS_PSNR, power=power, seed=1))
    assert np.array_equal(link.received_planes, link.stack.planes)


def test_receiver_condition_with_fds_is_binary_and_padded():
    link = transmit_map(_map(), C_TOTAL, ChannelConfig(psnr_db=10.0, seed=2))
    cond = receiver_condition(link, C_TOTAL, FdsConfig())
    assert cond.dtype == np.float32 and cond.shape == (C_TOTAL, 12, 10)
    assert np.isin(cond, (0.0, 1.0)).all()
    assert not cond[[0, 2, 5]].any()


def test_receiver_condition_without_fds_passes_raw_planes():
    link = transmit_map(_map(), C_TOTAL, ChannelConfig(psnr_db=10.0, seed=3))
    cond = receiver_condition(link, C_TOTAL)
    assert cond.dtype == np.float32 and cond.shape == (C_TOTAL, 12, 10)
    assert np.array_equal(cond[[1, 3, 4]], link.received_planes.astype(np.float32))
    assert not cond[[0, 2, 5]].any()
