"""Near-pilotless SC-FDE receiver library and Monte-Carlo BER harness.

Import each public name from its module, e.g. ``scfde.blind_rx.decode_frame``.
"""

__version__ = "0.1.0"
