"""The annealer's buffered draw stream against numpy's ``Generator``.

:class:`~repro.annealing.draws.DrawStream` must serve ``integers(n)`` and
``random()`` bit for bit as the ``Generator`` would, for every ``n`` and
every interleaving, and leave the generator's state exactly where the
unbuffered calls would have left it, also when a run raises midway.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import draws as draws_module
from repro.annealing.draws import DrawStream, buffered_draws

#: One draw (no draw at all), the uniform 32-bit range's edges, the
#: rejection-heavy 2**31 + 5 (about half the draws are rejected), and
#: the delegated n > 2**32.
BOUNDS = (1, 2, 3, 7, 100, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 7, 2**40)
#: Fetch sizes patched into the module: blocks smaller than the draws of a
#: plan reach every refill edge; 1,024 is the one in use.
BLOCKS = (1, 2, 3, 16, 1024)


@pytest.fixture
def set_block(monkeypatch):
    def set_block(block):
        monkeypatch.setattr(draws_module, "_BLOCK", block)

    return set_block


def random_plan(seed, length=600):
    """An interleaving of ``random()`` (None) and ``integers(n)`` calls."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.3:
            plan.append(None)
        elif kind < 0.6:
            plan.append(BOUNDS[int(rng.integers(len(BOUNDS)))])
        else:
            plan.append(int(rng.integers(1, 50)))
    return plan


def play(plan, source):
    return [
        source.random() if n is None else int(source.integers(n)) for n in plan
    ]


def fresh_pair(seed, carry):
    """Two equal generators; with *carry*, one ``next_uint32`` drawn so
    the state holds PCG64's pending high half."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if carry:
        for rng in pair:
            rng.integers(5)
        assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


class TestAgainstNumpy:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("carry", [False, True])
    def test_random_interleavings(self, block, carry, set_block):
        set_block(block)
        for seed in range(6):
            plan = random_plan(100 * block + seed)
            reference, rng = fresh_pair(seed, carry)
            expected = play(plan, reference)
            with buffered_draws(rng) as draws:
                assert isinstance(draws, DrawStream)
                assert play(plan, draws) == expected
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("n", BOUNDS)
    def test_each_bound_alone(self, n, set_block):
        set_block(7)
        reference, rng = fresh_pair(n % 97, carry=False)
        expected = [int(reference.integers(n)) for _ in range(300)]
        with buffered_draws(rng) as draws:
            assert [draws.integers(n) for _ in range(300)] == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_one_draws_nothing(self, set_block):
        set_block(4)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with buffered_draws(rng) as draws:
            assert [draws.integers(1) for _ in range(10)] == [0] * 10
        assert rng.bit_generator.state == before

    def test_types_match_the_generator(self):
        rng = np.random.default_rng(4)
        draws = DrawStream(rng)
        assert type(draws.integers(10)) is int
        assert type(draws.random()) is float

    def test_stream_continues_after_sync(self, set_block):
        set_block(3)
        reference, rng = fresh_pair(5, carry=True)
        plan = random_plan(5)
        expected = play(plan, reference)
        draws = DrawStream(rng)
        got = []
        for i, n in enumerate(plan):
            got.extend(play([n], draws))
            if i % 50 == 0:
                draws.sync()
        draws.sync()
        assert got == expected
        assert rng.bit_generator.state == reference.bit_generator.state


class TestExceptions:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_state_synced_when_the_body_raises(self, block, set_block):
        set_block(block)
        plan = random_plan(block)
        reference, rng = fresh_pair(block, carry=False)
        expected = play(plan[:250], reference)
        with pytest.raises(RuntimeError, match="midway"):
            with buffered_draws(rng) as draws:
                assert play(plan[:250], draws) == expected
                raise RuntimeError("midway")
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_invalid_bound_raises_like_numpy(self, set_block):
        set_block(2)
        reference, rng = fresh_pair(6, carry=True)
        draws = DrawStream(rng)
        for n in (0, -3):
            with pytest.raises(ValueError):
                reference.integers(n)
            with pytest.raises(ValueError):
                draws.integers(n)
        # The stream stays in step after the failed calls.
        plan = random_plan(6, 100)
        assert play(plan, draws) == play(plan, reference)
        draws.sync()
        assert rng.bit_generator.state == reference.bit_generator.state


class TestPassThrough:
    def test_other_bit_generators_are_used_as_given(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with buffered_draws(rng) as draws:
            assert draws is rng
        duck = object()
        with buffered_draws(duck) as draws:
            assert draws is duck

    def test_stream_needs_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            DrawStream(np.random.Generator(np.random.Philox(0)))
