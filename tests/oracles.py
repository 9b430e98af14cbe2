"""Independent brute-force oracles the implementation is checked against.

Deliberately naive O(n^2) re-derivations written straight from the routing
rules, sharing no code with hybsim.topology.
"""

import math

DIRECT = "DIRECT"
ISOLATED = "ISOLATED"


def brute_force_rows(points, bs, m_halfwidth, n_extent, k, radio_range,
                     alive=None):
    """Recompute every neighbour row by exhaustive pairwise scan.

    ``points`` maps node id -> (x, y); ``bs`` is an (x, y) pair. Returns
    id -> tuple of neighbour ids, or the DIRECT / ISOLATED marker strings.
    """
    alive = set(points) if alive is None else set(alive)
    rows = {}
    for u in alive:
        ux, uy = points[u]
        du = math.hypot(ux - bs[0], uy - bs[1])
        cands = []
        for v in alive:
            if v == u:
                continue
            vx, vy = points[v]
            if abs(vx - ux) > m_halfwidth:
                continue
            if n_extent is not None and abs(vy - uy) > n_extent:
                continue
            dv = math.hypot(vx - bs[0], vy - bs[1])
            if not dv < du:
                continue
            if math.hypot(vx - ux, vy - uy) > radio_range:
                continue
            cands.append((dv, v))
        cands.sort()
        if cands:
            rows[u] = tuple(v for _, v in cands[:k])
        elif du <= radio_range:
            rows[u] = DIRECT
        else:
            rows[u] = ISOLATED
    return rows


def record_charges(engine):
    """Record every charge ``engine`` makes from now on, node by node.

    Wraps ``charge`` on the engine instance and returns node id -> list of
    amounts in charge order; the base station, which is never charged,
    has no list.
    """
    ledger = {node: [] for node in engine.nodes}
    charge = engine.charge

    def recording(node, amount):
        charge(node, amount)
        if node in ledger:
            ledger[node].append(amount)
    engine.charge = recording
    return ledger


def record_deliveries(engine):
    """Record every packet ``engine`` delivers from now on.

    Wraps ``deliver`` on the engine instance and returns a list of
    ``(event_id, path)`` pairs in delivery order, each path a copy of the
    packet's ``visited`` list when it was delivered.
    """
    delivered = []
    deliver = engine.deliver

    def recording(pkt, last_tx):
        delivered.append((pkt.event_id, list(pkt.visited)))
        deliver(pkt, last_tx)
    engine.deliver = recording
    return delivered


def replay_energy_ledger(initial, charges):
    """Replay a node's charge list against a zero-clamped battery."""
    residual = initial
    for amount in charges:
        residual = max(0.0, residual - amount)
    return residual


def brute_force_interfered(frames, trans, receiver, audible):
    """Whether ``trans`` is jammed at ``receiver``, from every frame sent.

    A receiver is jammed when some other frame that was not cancelled
    overlaps ``trans`` in time and was sent by the receiver or is audible
    at it. ``frames`` is every frame begun so far (objects with ``tx``,
    ``start``, ``end`` and ``cancelled``); ``audible(tx, at)`` is the link
    predicate between two node ids or the base station.
    """
    for g in frames:
        if g is trans or g.cancelled:
            continue
        if g.start >= trans.end or g.end <= trans.start:
            continue
        if g.tx == receiver or audible(g.tx, receiver):
            return True
    return False


def eager_run(engine, events):
    """Run ``engine`` with every sensing callback scheduled up front.

    The simulator's first run loop: after ``configure``, each event in
    ``events`` (``(time, event_id, where)`` triples) is matched by
    exhaustive scan to the nodes within sensing radius, in ascending id
    order, and each gets a sense jitter and a scheduled callback; only
    then does the heap drain. Returns the event log text.
    """
    engine.protocol.configure()
    radius = engine.sc.sensing_radius
    for t, event_id, where in events:
        for n in sorted(engine.nodes):
            if engine.locs.entries[n].dist(where) <= radius:
                engine.schedule(t + engine.jitter(1e-3),
                                lambda n=n, event_id=event_id:
                                engine.protocol.on_sense(n, event_id))
    engine.drain()
    return engine.log_buffer.getvalue()
