"""A network node: MAC + routing protocol + application hooks."""

from repro.net.mac import CsmaMac
from repro.net.packet import DataPacket

#: Link-layer broadcast "address" used in protocol code for readability.
BROADCAST = None


class Node:
    """One mobile host.

    Wiring: the application calls :meth:`send_data`; the routing protocol
    decides next hops and uses ``self.mac``; decoded frames flow back
    through the routing protocol, which calls :meth:`deliver` for packets
    addressed to this node.

    Fault seams (used by :mod:`repro.faults`): :meth:`crash` powers the
    node off, :meth:`reboot` brings it back with a **fresh** protocol
    instance built by ``routing_factory`` — modelling total loss of
    volatile state, including the destination sequence counter.
    """

    def __init__(self, sim, node_id, channel, mac_config=None, metrics=None):
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.metrics = metrics
        self.mac = CsmaMac(sim, node_id, channel, mac_config, metrics)
        self.routing = None
        self.deliver_fn = None  # set by the application layer
        self.alive = True
        # Rebuilds the routing protocol after a reboot: fn(node) -> protocol.
        # Set by the scenario/test harness; reboot without one is an error.
        self.routing_factory = None
        # Optional observer fn(node_id, packet) before any delivery; the
        # invariant monitor uses it to catch deliveries to crashed nodes.
        self.deliver_hook = None
        channel.attach(self)

    def install_routing(self, protocol):
        """Attach a routing protocol instance and wire MAC callbacks."""
        self.routing = protocol
        self.mac.receive_fn = protocol.on_packet

    def start(self):
        """Begin protocol operation (proactive protocols start beaconing)."""
        if self.routing is not None:
            self.routing.start()

    def crash(self):
        """Power off: lose the radio, all timers, and all routing state.

        Frames on the air toward this node are lost, even if it reboots
        before they complete; the old protocol instance is stopped and
        detached so late timer fires cannot transmit or mutate anything
        observable.
        """
        if not self.alive:
            return
        self.alive = False
        self.mac.shutdown()
        if self.routing is not None:
            self.routing.stop()

    def reboot(self):
        """Power back on with factory-fresh protocol state.

        The paper's reboot model: loss of state resets the sequence
        counter to zero; the fresh protocol instance takes a new
        boot-time timestamp, which is what keeps LDR's labels monotone
        across reboots without AODV's reboot-hold procedure.
        """
        if self.alive:
            return
        if self.routing_factory is None:
            raise RuntimeError(
                "Node %r cannot reboot: no routing_factory installed"
                % self.node_id
            )
        self.alive = True
        self.mac.reset()
        self.install_routing(self.routing_factory(self))
        self.start()

    def send_data(self, dst, size_bytes=512, flow_id=0, seq=0):
        """Application entry point: create and route a data packet.

        Returns ``None`` while the node is crashed: a powered-off host
        originates nothing, so offered load (and with it delivery ratio)
        only ever counts packets that actually entered the network.
        """
        if not self.alive:
            return None
        packet = DataPacket(
            src=self.node_id,
            dst=dst,
            size_bytes=size_bytes,
            flow_id=flow_id,
            seq=seq,
            created_at=self.sim.now,
        )
        if self.metrics is not None:
            self.metrics.on_data_originated(self.node_id, packet)
        self.routing.send_data(packet)
        return packet

    def deliver(self, packet):
        """Called by the routing layer for packets addressed to this node."""
        if self.deliver_hook is not None:
            self.deliver_hook(self.node_id, packet)
        if self.metrics is not None:
            self.metrics.on_data_delivered(self.node_id, packet)
        if self.deliver_fn is not None:
            self.deliver_fn(packet)

    def position(self):
        """Current (x, y) in metres."""
        return self.channel.mobility.position(self.node_id, self.sim.now)

    def __repr__(self):
        return "Node({})".format(self.node_id)
