"""Buffered scalar draws from a ``PCG64`` generator, bit-exact with numpy.

A Metropolis step of the incremental annealer draws a few scalars: three
``integers(n)`` (server, move kind, video) and, for an uphill move, one
``random()``.  Each ``Generator`` call pays numpy's per-call dispatch,
several times the cost of the draw itself.  A :class:`DrawStream` pulls
raw 64-bit words from the generator's ``PCG64`` bit generator in blocks
(``random_raw``) and serves both draws from them in plain Python, with
numpy's algorithms reproduced bit for bit:

* ``integers(n)`` for ``1 < n < 2**32`` is numpy's 32-bit Lemire
  rejection sampler on ``next_uint32``; ``n == 2**32`` is one bare
  ``next_uint32`` and ``n == 1`` draws nothing.  PCG64's ``next_uint32``
  hands out a 64-bit word low half first and keeps the high half as a
  carry (``has_uint32`` / ``uinteger`` in the bit generator's state).
  Any other ``n`` (``n > 2**32``, ``n < 1`` or not a Python ``int``)
  syncs the generator and delegates to it.
* ``random()`` is ``(next64 >> 11) * 2**-53``; it leaves the carry alone.

Blocks overshoot, so the bit generator runs ahead of the draws served.
:meth:`DrawStream.sync` puts it back exactly where unbuffered calls would
have left it: rewind to the state the fetches started from, advance by the
words consumed, then restore the carry.  :func:`buffered_draws` syncs on
exit, also when its body raises, and passes any generator whose bit
generator is not ``PCG64`` through unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

__all__ = ["DrawStream", "buffered_draws"]

_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32
#: numpy's ``next_double`` scale, ``1 / 2**53``.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: Words fetched per ``random_raw`` call, read at each fetch.  A
#: serving-plane polish (a 64-step walk and 320 Metropolis steps, under two
#: words each) fits in one block.
_BLOCK = 1024


class DrawStream:
    """``integers(n)`` and ``random()`` of a ``PCG64`` generator, buffered.

    Call :meth:`sync` before anything else touches the generator; until
    then its state is ahead of the draws served.
    """

    __slots__ = (
        "_rng",
        "_bit_generator",
        "_anchor",
        "_fetched",
        "_words",
        "_has32",
        "_carry",
    )

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = getattr(rng, "bit_generator", None)
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "DrawStream needs a Generator over PCG64, got bit generator "
                f"{type(bit_generator).__name__}"
            )
        self._rng = rng
        self._bit_generator = bit_generator
        self._restart(bit_generator.state)

    def _restart(self, state: dict) -> None:
        """Serve the next draws from *state*, the bit generator's own."""
        self._anchor = state
        self._fetched = 0
        #: Unconsumed words of the last block, next word last.
        self._words: list[int] = []
        self._has32 = bool(state["has_uint32"])
        self._carry = int(state["uinteger"])

    def _refill(self) -> int:
        """Fetch one block; return its first word and keep the rest."""
        words = self._bit_generator.random_raw(_BLOCK).tolist()
        words.reverse()
        self._fetched += len(words)
        self._words = words
        return words.pop()

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._carry
        words = self._words
        word = words.pop() if words else self._refill()
        self._has32 = True
        self._carry = word >> 32
        return word & _MASK32

    def integers(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, as ``Generator.integers(n)``."""
        if type(n) is not int or not 1 < n <= _TWO32:
            # n == 1 draws nothing; any other n is the Generator's to serve.
            return 0 if n == 1 and type(n) is int else self._delegate(n)
        # _next32, inlined: three of these run per Metropolis step.
        if self._has32:
            self._has32 = False
            draw = self._carry
        else:
            words = self._words
            word = words.pop() if words else self._refill()
            self._has32 = True
            self._carry = word >> 32
            draw = word & _MASK32
        if n == _TWO32:
            return draw
        product = draw * n
        leftover = product & _MASK32
        if leftover < n:
            threshold = (_TWO32 - n) % n
            while leftover < threshold:
                product = self._next32() * n
                leftover = product & _MASK32
        return product >> 32

    def random(self) -> float:
        """A uniform float in ``[0, 1)``, as ``Generator.random()``."""
        words = self._words
        word = words.pop() if words else self._refill()
        return (word >> 11) * _DOUBLE_UNIT

    def _delegate(self, n):
        self.sync()
        try:
            return self._rng.integers(n)
        finally:
            self._restart(self._bit_generator.state)

    def sync(self) -> None:
        """Leave the generator where unbuffered draws would have left it."""
        bit_generator = self._bit_generator
        consumed = self._fetched - len(self._words)
        bit_generator.state = self._anchor
        # advance() also clears the carry; it is restored below.
        bit_generator.advance(consumed)
        state = bit_generator.state
        state["has_uint32"] = int(self._has32)
        state["uinteger"] = self._carry
        bit_generator.state = state
        self._restart(state)


@contextmanager
def buffered_draws(
    rng: np.random.Generator,
) -> Iterator["DrawStream | np.random.Generator"]:
    """Yield a :class:`DrawStream` over *rng*, synced back on exit.

    A generator whose bit generator is not ``PCG64`` (or an object that is
    no ``Generator``) is yielded unchanged.
    """
    if type(getattr(rng, "bit_generator", None)) is not np.random.PCG64:
        yield rng
        return
    stream = DrawStream(rng)
    try:
        yield stream
    finally:
        stream.sync()
