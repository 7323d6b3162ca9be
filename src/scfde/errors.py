"""Runtime failure types raised by the receiver chain.

Precondition violations (bad sizes, unsupported orders, invalid configs)
raise plain ``ValueError``; the classes here mark per-frame decode failures
that a Monte-Carlo driver is expected to catch and count.
"""


class ReceiverError(RuntimeError):
    """Base class for per-frame decode failures."""


class DegenerateBinError(ReceiverError):
    """All antennas estimate a zero channel at one frequency bin.

    The MRC denominator sum_r |h(p,r)|^2 vanished at bin ``bin_index``,
    so the per-bin combine is undefined there.
    """

    def __init__(self, bin_index: int):
        super().__init__(f"zero MRC denominator at frequency bin {bin_index}")
        self.bin_index = bin_index


class PilotLossError(ReceiverError):
    """The sample at the pilot position is exactly zero.

    Signals a catastrophic estimate: the global complex scale cannot be
    resolved from an annihilated pilot.
    """
