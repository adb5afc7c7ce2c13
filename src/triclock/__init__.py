"""Phase-difference dynamics of three impact-coupled identical clocks.

The map ``F(x, y) = (x, y) + eps * (f(x, y), f(y, x))`` on the closed
square ``[0, 2*pi]**2`` and the tools that check it.  Import each name from
its own module: :mod:`triclock.core` (the maps), :mod:`triclock.events`
(the exact event-driven N-clock simulator, the map's oracle),
:mod:`triclock.analysis`, :mod:`triclock.basin`, :mod:`triclock.render`
and :mod:`triclock.cli`.  The package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
