"""Simulated inter-site network.

* :mod:`~repro.net.serialization` — canonical tagged binary codec.
* :mod:`~repro.net.message` — envelopes and per-link statistics.
* :mod:`~repro.net.network` — synchronous router with traffic accounting,
  a latency/bandwidth clock and partition fault injection.
"""
