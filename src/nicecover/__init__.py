"""Exact constructive analysis on the unit interval.

Everything here computes with unbounded-integer rationals; there is no
floating point anywhere. The layers, bottom up:

- :mod:`nicecover.rational`: exact rational carrier, parsing, rendering.
- :mod:`nicecover.crn`: computable reals as approximation programs paired
  with precision regulators, plus arithmetic and regulator validation.
- :mod:`nicecover.machine`: a tiny counter machine with exact step
  accounting and a dovetailing enumerator.
- :mod:`nicecover.analysis`: waiting sequences that tie machine runs to
  real values, the step-certified halting probe, and bisection search.
- :mod:`nicecover.cover`: open interval covers of [0,1], exact Lebesgue
  numbers, epsilon-nets, and checkable finite-subcover certificates.
- :mod:`nicecover.cli`: the ``nicecover`` command.
"""

__version__ = "0.3.0"
