"""The base of cfkit's immutable value classes.

A value class names its fields in ``__match_args__`` and sets each once in
its own ``__init__``, after its checks, through ``object.__setattr__``.
Most declare their fields as their slots, ``__slots__ = __match_args__ =
(...)``.  Two keep more: ``KSequence`` has a private slot for its even
simple terms, set wherever one is built, and ``PathCounts`` keeps its two
fields in private slots behind properties, beside k's simple terms and
their last two continuants, the invariant pair (n, m).  A field slot that
:func:`cfkit.paths.path_counts` leaves empty is filled on its first read.
What the forward and reverse maps build on every call (``PathCounts``,
``RationalInvariant`` and the unchecked ``KSequence`` of
``contfrac._k_sequence``, built from checked terms) is set outside
``__init__``, through ``Cls.field.__set__``, the setter of the slot's
member descriptor: it skips the refusing ``__setattr__`` below and the
by-name lookup, at about half the cost.  The base supplies what a frozen
dataclass would generate: ``repr`` in the dataclass format, ``==`` between
instances of one class and ``hash``, both over the field tuple, refusal of
assignment and deletion, pickling and copying through ``__init__``, and
``_replace``.  All of them read the fields by name, so properties serve
them as slots do.  Unlike the dataclass decorator, it imports nothing and
generates no code when a class is defined, which keeps ``import cfkit``
(and so each ``cfkit`` command) from paying for ``inspect``, ``ast`` and
``dis``.
"""

from __future__ import annotations


class _Value:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return type(self)(**dict(zip(self.__match_args__, self._astuple()), **changes))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()
