"""Number formats compared by the paper: posit(N,ES), IEEE binary
(binary64 and friends), and log-space over binary64."""

from .real import Real
from .posit import FLUSH, NAR, SATURATE, ZERO, PositEnv, paper_configs
from .ieee import BINARY32, BINARY64, IEEEEnv
from .logspace import LogSpace, log_mul, lse2, lse2_naive, lse_n, lse_sequential
from .lns import LNS_ZERO, LNSEnv, lns64_for_range
from .posit_datapath import PositDatapath

__all__ = [
    "Real",
    "PositEnv",
    "paper_configs",
    "SATURATE",
    "FLUSH",
    "ZERO",
    "NAR",
    "IEEEEnv",
    "BINARY64",
    "BINARY32",
    "LogSpace",
    "lse2",
    "lse2_naive",
    "lse_n",
    "lse_sequential",
    "log_mul",
    "LNSEnv",
    "LNS_ZERO",
    "lns64_for_range",
    "PositDatapath",
]
