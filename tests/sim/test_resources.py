"""Unit tests for Resource and Store."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_immediately_when_free(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def body():
            req = res.request()
            yield req
            log.append(sim.now)
            res.release(req)

        sim.process(body())
        sim.run()
        assert log == [0]
        assert res.count == 0

    def test_mutual_exclusion_serialises(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(i):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(10)
            res.release(req)
            spans.append((i, start, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def worker(i):
            req = res.request()
            yield req
            starts.append((i, sim.now))
            yield sim.timeout(10)
            res.release(req)

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        assert starts == [(0, 0), (1, 0), (2, 10), (3, 10)]

    def test_priority_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5)
            res.release(req)

        def waiter(name, prio, delay):
            yield sim.timeout(delay)
            req = res.request(priority=prio)
            yield req
            order.append(name)
            res.release(req)

        sim.process(holder())
        sim.process(waiter("low", 10, 1))
        sim.process(waiter("high", 0, 2))
        sim.run()
        assert order == ["high", "low"]

    def test_context_manager_releases(self, sim):
        res = Resource(sim, capacity=1)

        def body():
            with res.request() as req:
                yield req
                yield sim.timeout(1)

        sim.process(body())
        sim.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_release_unheld_raises(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        assert res.queue_length == 1
        second.cancel()
        assert res.queue_length == 0
        res.release(first)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        got = []

        def producer():
            yield store.put("a")
            yield store.put("b")

        def consumer():
            x = yield store.get()
            got.append(x)
            y = yield store.get()
            got.append(y)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            x = yield store.get()
            got.append((sim.now, x))

        def producer():
            yield sim.timeout(9)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(9, "late")]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put(1)
            events.append(("put1", sim.now))
            yield store.put(2)
            events.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert events == [("put1", 0), ("put2", 5)]

    def test_len(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        sim.run()
        assert len(store) == 2

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


# -- heap wait queue vs. the sorted-list reference ------------------------------

class _SortedListRequest(Event):
    """Verbatim copy of the sorted-list ``Request`` the heap queue
    replaced: every request re-sorts the whole wait list."""

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource, priority=0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self.key = (priority, next(resource._ticket))
        resource._waiting.append(self)
        resource._waiting.sort(key=lambda r: r.key)
        resource._grant()

    def cancel(self):
        if self in self.resource._waiting:
            self.resource._waiting.remove(self)
        elif self in self.resource.users:
            raise SimulationError("cancel() on a granted request; use release()")


class _SortedListResource:
    """Verbatim copy of the sorted-list ``Resource`` (grant = pop(0))."""

    def __init__(self, sim, capacity=1):
        self.sim = sim
        self.capacity = capacity
        self.users = []
        self._waiting = []
        self._ticket = itertools.count()

    @property
    def queue_length(self):
        return len(self._waiting)

    def request(self, priority=0):
        return _SortedListRequest(self, priority=priority)

    def release(self, request):
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that is not held") from None
        self._grant()

    def _grant(self):
        while self._waiting and len(self.users) < self.capacity:
            req = self._waiting.pop(0)
            self.users.append(req)
            req.succeed(req)


# Requests outnumber releases so the queue builds up deep enough for
# cancels to hit inner heap nodes, not just the root or a leaf.
_request = st.tuples(st.just("request"), st.integers(-3, 3))
_wait_ops = st.lists(
    st.one_of(
        _request, _request, _request,
        st.tuples(st.just("release"), st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
    ),
    min_size=20,
    max_size=80,
)


def _replay(res, ops):
    """Apply ``ops`` to ``res``; return the grant order and the queue
    length after every step.  Requests are named by their issue index so
    the two implementations' logs compare directly."""
    reqs, grants, lengths = [], [], []
    for op, arg in ops:
        if op == "request":
            reqs.append(res.request(priority=arg))
        elif op == "release" and res.users:
            res.release(res.users[arg % len(res.users)])
        elif op == "cancel" and reqs:
            req = reqs[arg % len(reqs)]
            if req not in res.users:
                req.cancel()
        # A step grants at most one request, so this is the grant order.
        grants += [i for i, r in enumerate(reqs) if r.triggered and i not in grants]
        lengths.append(res.queue_length)
    return grants, lengths


def _drain(res, held, waiting):
    """Release the holder repeatedly; return the waiters' grant order."""
    order = []
    while True:
        res.release(held)
        if not res.users:
            return order
        held = res.users[0]
        order.append(waiting.index(held))


class TestHeapWaitQueue:
    @given(ops=_wait_ops, capacity=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_same_grants_as_sorted_list(self, ops, capacity):
        heap = Resource(Simulator(), capacity=capacity)
        ref = _SortedListResource(Simulator(), capacity=capacity)
        assert _replay(heap, ops) == _replay(ref, ops)

    @pytest.mark.parametrize("cls", [Resource, _SortedListResource])
    def test_priority_then_fifo_order(self, cls):
        res = cls(Simulator(), capacity=1)
        held = res.request(0)
        waiting = [res.request(p) for p in (2, 0, 1, 0, 2, -1)]
        assert _drain(res, held, waiting) == [5, 1, 3, 2, 0, 4]

    @pytest.mark.parametrize("cls", [Resource, _SortedListResource])
    def test_cancel_after_heapify(self, cls):
        """Cancelling from the middle of the heap and at its root
        re-heapifies: the rest are still granted in key order."""
        res = cls(Simulator(), capacity=1)
        held = res.request(0)
        waiting = [res.request(p) for p in (3, 1, 4, 1, 5, 0, 2, 6)]
        waiting[1].cancel()   # (1, 2): an inner heap node
        waiting[5].cancel()   # (0, 6): the heap root
        assert res.queue_length == 6
        assert _drain(res, held, waiting) == [3, 6, 0, 2, 4, 7]
        assert res.queue_length == 0

    def test_cancel_granted_raises(self):
        res = Resource(Simulator(), capacity=1)
        req = res.request()
        with pytest.raises(SimulationError):
            req.cancel()
