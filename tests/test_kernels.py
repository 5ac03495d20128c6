"""The numpy kernels on hand-made inputs."""

import numpy as np

from ffperm import _kernels


def test_lpp_scan_reports_lowest_witness():
    # craft a 2-variable table over F_2 bad in both axes; the witness must be
    # axis 0 with the lowest assignment rank
    q = 2
    tbl = np.array([0, 0, 1, 1], dtype=np.int64)  # f(0,0)=0 f(0,1)=0 ...
    # axis 0 restriction x2=0: values (0, 1) fine; x2=1: (0, 1) fine
    # axis 1 restriction x1=0: values (0, 0) bad at lo=0
    assert _kernels.lpp_scan(tbl, 2, q) == (1, 0, 0)
    tbl2 = np.array([0, 0, 0, 1], dtype=np.int64)
    # axis 0, x2=0 gives f(0,0)=0, f(1,0)=0: witness (0, 0, 0)
    assert _kernels.lpp_scan(tbl2, 2, q) == (0, 0, 0)
