"""Reference CAD kernels the numpy product kernels are pinned against.

The product placer (:func:`repro.cad.place._anneal`) and router
(:meth:`repro.cad.route.Router._net_cost_vector`) keep their state in
numpy arrays.  The per-net / per-node python formulations below are the
original kernels, kept verbatim: the parity tests compare the product
kernels against them move for move and node for node, and the CAD
microbenchmarks and E13d time them as the reference arm.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set
from unittest import mock

from repro.cad.place import Placement, _net_terminals, place
from repro.cad.route import Router
from repro.device import Coord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cad.instrument import CadInstrumentation

__all__ = ["ScalarRouter", "_anneal_scalar", "reference_kernels",
           "reference_place"]


def _anneal_scalar(
    placement: Placement,
    sites: List[Coord],
    seed: int,
    instrument: Optional["CadInstrumentation"] = None,
) -> None:
    """The reference annealer: per-net python max/min move pricing.

    Kept verbatim as the behavioral pin for the numpy annealer — the
    parity tests compare every accepted move and final coordinate
    against this implementation.
    """
    rng = random.Random(seed)
    design = placement.design
    coords = placement.coords
    nets = _net_terminals(design)
    nets_of_ble: Dict[str, List[int]] = {b.name: [] for b in design.bles}
    for i, terms in enumerate(nets):
        for t in terms:
            nets_of_ble[t].append(i)

    def net_cost(i: int) -> float:
        xs = [coords[t].x for t in nets[i]]
        ys = [coords[t].y for t in nets[i]]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    site_to_ble: Dict[Coord, Optional[str]] = {s: None for s in sites}
    for name, c in coords.items():
        site_to_ble[c] = name
    names = [b.name for b in design.bles]
    cost = sum(net_cost(i) for i in range(len(nets)))
    temp = max(1.0, cost * 0.2)
    moves_per_temp = max(16, 8 * len(names))
    step = 0
    while temp > 0.05:
        step_t0 = instrument.now() if instrument is not None else 0.0
        accepted = 0
        evaluated = 0
        for _ in range(moves_per_temp):
            a = rng.choice(names)
            target = rng.choice(sites)
            ca = coords[a]
            if target == ca:
                continue
            evaluated += 1
            b = site_to_ble[target]
            affected = set(nets_of_ble[a])
            if b is not None:
                affected |= set(nets_of_ble[b])
            before = sum(net_cost(i) for i in affected)
            coords[a] = target
            site_to_ble[target] = a
            if b is not None:
                coords[b] = ca
                site_to_ble[ca] = b
            else:
                site_to_ble[ca] = None
            after = sum(net_cost(i) for i in affected)
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                cost += delta
                accepted += 1
            else:  # revert
                coords[a] = ca
                site_to_ble[ca] = a
                if b is not None:
                    coords[b] = target
                    site_to_ble[target] = b
                else:
                    site_to_ble[target] = None
        if instrument is not None:
            instrument.anneal_step(
                step=step, temperature=temp, moves=evaluated,
                accepted=accepted, cost=cost,
                wall_seconds=instrument.now() - step_t0,
            )
        step += 1
        temp *= 0.8
        if accepted == 0:
            break


class ScalarRouter(Router):
    """A :class:`Router` whose node prices come one by one from the
    reference per-node cost function instead of the numpy expression."""

    def _node_cost(self, node: int, net_nodes: Set[int],
                   net_name: Optional[str] = None) -> float:
        """The reference per-node cost."""
        owner = self.reserved.get(node)
        if owner is not None and owner != net_name:
            return float("inf")
        occ = self.occupancy[node]
        if node in net_nodes:
            occ -= 1
        over = max(0, occ)  # sharing beyond capacity 1
        base = self.LONG_BASE_COST if self.graph.is_long(node) else 1.0
        return base * (1.0 + self.history[node]) * (1.0 + self._pressure * over)

    def _net_cost_vector(self, net_name: Optional[str]) -> List[float]:
        # Priced against an empty net tree, as the product vector is.
        return [self._node_cost(nid, set(), net_name)
                for nid in range(len(self.graph))]


def reference_place(*args, **kwargs) -> Placement:
    """:func:`repro.cad.place` with the reference annealer patched in."""
    with mock.patch("repro.cad.place._anneal", _anneal_scalar):
        return place(*args, **kwargs)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run :func:`repro.cad.compile_netlist` on the reference annealer
    and the reference router for the duration of the block."""
    with mock.patch("repro.cad.place._anneal", _anneal_scalar), \
            mock.patch("repro.cad.flow.Router", ScalarRouter):
        yield
