"""Tests for events, conditions (AllOf/AnyOf) and failure handling."""

import pytest

from repro.sim import Environment
from repro.sim.events import ConditionValue, Event


def test_event_lifecycle_flags():
    env = Environment()
    event = env.event()
    assert not event.triggered and not event.processed
    event.succeed(7)
    assert event.triggered and not event.processed
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == 7


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_value_unavailable_before_trigger():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(ValueError):
        env.event().fail("not an exception")


def test_failed_event_throws_into_waiting_process():
    env = Environment()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except KeyError as exc:
            caught.append(exc)

    event = env.event()
    env.process(waiter(env, event))
    event.fail(KeyError("missing"))
    env.run()
    assert len(caught) == 1


def test_unhandled_failed_event_crashes_the_run():
    env = Environment()
    event = env.event()
    event.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError):
        env.run()


def test_defused_failed_event_does_not_crash():
    env = Environment()
    event = env.event()
    event.fail(ValueError("handled out of band"))
    event.defused()
    env.run()  # must not raise


def test_all_of_collects_every_value_in_order():
    env = Environment()
    seen = []

    def proc(env):
        t1 = env.timeout(2, value="slow")
        t2 = env.timeout(1, value="fast")
        result = yield env.all_of([t1, t2])
        seen.append((result.values(), env.now))

    env.process(proc(env))
    env.run()
    values, when = seen[0]
    assert values == ["slow", "fast"]  # original order, not firing order
    assert when == 2.0


def test_any_of_fires_on_first_event():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.any_of([env.timeout(5, value="a"), env.timeout(1, value="b")])
        seen.append((result.values(), env.now))

    env.process(proc(env))
    env.run(until=10)
    assert seen == [(["b"], 1.0)]


def test_and_operator_builds_all_of():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.timeout(1, value=1) & env.timeout(2, value=2)
        seen.append(sorted(result.values()))

    env.process(proc(env))
    env.run()
    assert seen == [[1, 2]]


def test_or_operator_builds_any_of():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.timeout(1, value=1) | env.timeout(9, value=9)
        seen.append(result.values())

    env.process(proc(env))
    env.run(until=20)
    assert seen == [[1]]


def test_empty_all_of_succeeds_immediately():
    env = Environment()
    seen = []

    def proc(env):
        result = yield env.all_of([])
        seen.append(result.values())

    env.process(proc(env))
    env.run()
    assert seen == [[]]


def test_condition_with_failing_constituent_fails():
    env = Environment()
    caught = []

    def proc(env):
        bad = env.event()
        good = env.timeout(5)
        bad.fail(ValueError("constituent"))
        try:
            yield env.all_of([bad, good])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["constituent"]


def test_condition_value_mapping_interface():
    env = Environment()
    collected = {}

    def proc(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(2, value="y")
        result = yield env.all_of([t1, t2])
        collected["contains"] = t1 in result
        collected["getitem"] = result[t1]
        collected["todict"] = result.todict()
        collected["items"] = result.items()

    env.process(proc(env))
    env.run()
    assert collected["contains"] is True
    assert collected["getitem"] == "x"
    assert list(collected["todict"].values()) == ["x", "y"]
    assert len(collected["items"]) == 2


def test_condition_value_getitem_missing_event_raises():
    value = ConditionValue()
    env = Environment()
    with pytest.raises(KeyError):
        _ = value[env.event()]


def test_mixing_environments_in_condition_rejected():
    env1 = Environment()
    env2 = Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.event(), env2.event()])


def test_condition_over_already_processed_events():
    env = Environment()
    seen = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        yield env.timeout(3)
        result = yield env.all_of([t1, env.timeout(1, value="b")])
        seen.append((result.values(), env.now))

    env.process(proc(env))
    env.run()
    assert seen == [(["a", "b"], 4.0)]


class TestSlotsContract:
    """The event hierarchy is the simulator's allocation hot spot: the
    kernel classes must stay ``__dict__``-free, while subclasses that
    declare ad-hoc attributes (the resource events) still get one."""

    def test_kernel_events_have_no_dict(self):
        def empty(env):
            yield env.timeout(0)

        env = Environment()
        process = env.process(empty(env))
        for obj in (
            env.event(),
            env.timeout(1),
            env.all_of([]),
            env.any_of([]),
        ):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert not hasattr(process, "__dict__")

    def test_timeout_still_fully_initialized(self):
        env = Environment()
        timeout = env.timeout(2.5, value="v")
        assert timeout.delay == 2.5
        assert timeout.triggered
        assert not timeout.processed
        env.run()
        assert timeout.value == "v"
