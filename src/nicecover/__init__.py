"""Exact constructive analysis on the unit interval.

Everything here computes with unbounded-integer rationals; there is no
floating point anywhere. The layers, bottom up:

- :mod:`nicecover.errors`: the exception types; it imports no other layer.
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

``crn``, ``machine``, ``analysis``, ``cover`` and ``expressions`` are
registered through ``importlib.util.LazyLoader``: a layer runs when one of
its names is first read, so a command runs only the layers it uses, and
``import nicecover.cover`` still runs that layer at once.  No command
imports ``dataclasses``: ``rational.record`` makes every layer's value classes.
"""

import importlib.util
import sys

__version__ = "0.3.0"

for _name in ("crn", "machine", "analysis", "cover", "expressions"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module
