"""Build and run one simulation scenario.

A scenario = terrain + mobility + MAC + one routing protocol on every node
+ CBR traffic + metrics.  :func:`run_scenario` returns a
:class:`~repro.metrics.report.RunReport` whose ``as_dict()`` carries all
the paper's metrics for that single trial.
"""

from repro.core import LdrConfig, LdrProtocol
from repro.faults import FaultInjector, FaultPlan, InvariantMonitor
from repro.metrics import MetricsCollector, RunReport
from repro.mobility import RandomWaypoint, StaticPlacement
from repro.net import GridIndex, MacConfig, Node, WirelessChannel
from repro.net.packet import reset_packet_uids
from repro.obs import TraceRecorder
from repro.protocols import (
    AodvConfig,
    AodvProtocol,
    DsrConfig,
    DsrProtocol,
    DualConfig,
    DualProtocol,
    NsrConfig,
    NsrProtocol,
    OlsrConfig,
    OlsrProtocol,
    OracleConfig,
    OracleProtocol,
    RoamConfig,
    RoamProtocol,
    ToraConfig,
    ToraProtocol,
)
from repro.routing import LoopChecker
from repro.sim import CalendarScheduler, Simulator
from repro.traffic import TrafficGenerator
from repro.traffic.cbr import reset_flow_ids


def _dsr_draft7_config():
    """The QualNet DSR (draft 7) variant used for Figure 6.

    Draft 7 tightened route-cache handling; modelled here as a much shorter
    cache lifetime plus one extra salvage attempt — "slightly better, but
    still the same downward trend with increasing mobility" (Section 4).
    """
    return DsrConfig(cache_lifetime=30.0, max_salvage_count=5)


#: Config classes a :class:`ScenarioConfig` may carry in ``protocol_config``
#: or ``mac_config``; serialization records the class name so
#: :meth:`ScenarioConfig.from_dict` can rebuild the exact variant (e.g. the
#: draft-7 DSR config behind the ``dsr7`` protocol name).
CONFIG_CLASSES = {
    cls.__name__: cls
    for cls in (
        LdrConfig,
        AodvConfig,
        DsrConfig,
        DualConfig,
        NsrConfig,
        OlsrConfig,
        OracleConfig,
        RoamConfig,
        ToraConfig,
        MacConfig,
    )
}


class ConfigSerializationError(TypeError):
    """A ScenarioConfig cannot be turned into plain JSON-able data.

    Raised for live objects (custom mobility models, callables) that have
    no stable textual form; such configs still run in-process but cannot be
    cached or dispatched to worker processes by value.
    """


def _nested_to_dict(obj, field):
    """Serialize a protocol/MAC config object to ``{"type", "fields"}``."""
    if obj is None:
        return None
    cls_name = type(obj).__name__
    if cls_name not in CONFIG_CLASSES:
        raise ConfigSerializationError(
            "%s=%r is not a registered config class (known: %s)"
            % (field, obj, sorted(CONFIG_CLASSES))
        )
    fields = {}
    for key, value in sorted(vars(obj).items()):
        if not isinstance(value, (bool, int, float, str, type(None))):
            raise ConfigSerializationError(
                "%s.%s=%r is not a JSON scalar; this config cannot be "
                "serialized for caching/worker dispatch" % (field, key, value)
            )
        fields[key] = value
    return {"type": cls_name, "fields": fields}


def _nested_from_dict(data, field):
    if data is None:
        return None
    cls = CONFIG_CLASSES.get(data.get("type"))
    if cls is None:
        raise ValueError(
            "unknown %s type %r (known: %s)"
            % (field, data.get("type"), sorted(CONFIG_CLASSES))
        )
    return cls(**data["fields"])


PROTOCOLS = {
    "ldr": (LdrProtocol, LdrConfig),
    "aodv": (AodvProtocol, AodvConfig),
    "dsr": (DsrProtocol, DsrConfig),
    "dsr7": (DsrProtocol, _dsr_draft7_config),
    "olsr": (OlsrProtocol, OlsrConfig),
    "dual": (DualProtocol, DualConfig),
    "tora": (ToraProtocol, ToraConfig),
    "roam": (RoamProtocol, RoamConfig),
    "nsr": (NsrProtocol, NsrConfig),
    "oracle": (OracleProtocol, OracleConfig),
}


class ScenarioConfig:
    """Everything needed to reproduce one run."""

    def __init__(
        self,
        protocol="ldr",
        num_nodes=50,
        width=1500.0,
        height=300.0,
        num_flows=10,
        rate=4.0,
        packet_size=512,
        mean_flow_length=100.0,
        duration=900.0,
        pause_time=0.0,
        min_speed=1.0,
        max_speed=20.0,
        transmission_range=275.0,
        gray_zone=0.0,
        seed=1,
        protocol_config=None,
        mac_config=None,
        mobility=None,
        loop_check=False,
        warmup=5.0,
        fault_plan=None,
        invariant_check=False,
        trace=False,
        placements=None,
        flows=None,
    ):
        if protocol not in PROTOCOLS:
            raise ValueError(
                "unknown protocol %r (choose from %s)"
                % (protocol, sorted(PROTOCOLS))
            )
        self.protocol = protocol
        self.num_nodes = num_nodes
        self.width = width
        self.height = height
        self.num_flows = num_flows
        self.rate = rate
        self.packet_size = packet_size
        self.mean_flow_length = mean_flow_length
        self.duration = duration
        self.pause_time = pause_time
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.transmission_range = transmission_range
        self.gray_zone = gray_zone
        self.seed = seed
        self.protocol_config = protocol_config
        self.mac_config = mac_config
        self.mobility = mobility
        self.loop_check = loop_check
        self.warmup = warmup
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise TypeError(
                "fault_plan must be a repro.faults.FaultPlan (or None), "
                "got %r" % (fault_plan,)
            )
        self.fault_plan = fault_plan
        self.invariant_check = invariant_check
        # Opt-in event tracing (repro.obs).  Passive: the recorder draws
        # no randomness and schedules nothing, so metric rows are
        # identical with tracing on or off; campaign workers use it to
        # emit per-trial trace artifacts.
        self.trace = bool(trace)
        # Pinned topologies and schedules (repro.verify counterexamples):
        # ``placements`` fixes every node's position (no mobility draws at
        # all) and ``flows`` replaces the random CBR workload with an
        # explicit, serializable schedule — both are part of the trial's
        # cache identity, like the fault plan.
        self.placements = self._check_placements(placements, num_nodes)
        if placements is not None and mobility is not None:
            raise ValueError(
                "placements and a custom mobility object are mutually "
                "exclusive; pick one way to pin positions"
            )
        self.flows = self._check_flows(flows, num_nodes)

    @staticmethod
    def _check_placements(placements, num_nodes):
        if placements is None:
            return None
        normalized = []
        for entry in placements:
            x, y = entry
            normalized.append((float(x), float(y)))
        if len(normalized) != num_nodes:
            raise ValueError(
                "placements pins %d node(s) but num_nodes=%d"
                % (len(normalized), num_nodes)
            )
        return normalized

    @staticmethod
    def _check_flows(flows, num_nodes):
        if flows is None:
            return None
        normalized = []
        for entry in flows:
            src, dst, start, end = entry
            src, dst = int(src), int(dst)
            start, end = float(start), float(end)
            for node in (src, dst):
                if not 0 <= node < num_nodes:
                    raise ValueError(
                        "flow endpoint %d outside 0..%d"
                        % (node, num_nodes - 1)
                    )
            if src == dst:
                raise ValueError("flow %d -> %d sends to itself" % (src, dst))
            if not 0 <= start < end:
                raise ValueError(
                    "flow %d -> %d has an empty window [%g, %g)"
                    % (src, dst, start, end)
                )
            normalized.append((src, dst, start, end))
        return normalized

    #: Fields with plain scalar values, in declaration order.  ``to_dict``
    #: serializes these verbatim; the three object-valued fields
    #: (``protocol_config``, ``mac_config``, ``mobility``) are special-cased.
    SCALAR_FIELDS = (
        "protocol",
        "num_nodes",
        "width",
        "height",
        "num_flows",
        "rate",
        "packet_size",
        "mean_flow_length",
        "duration",
        "pause_time",
        "min_speed",
        "max_speed",
        "transmission_range",
        "gray_zone",
        "seed",
        "loop_check",
        "warmup",
        "invariant_check",
        # Tracing never changes rows (the recorder is passive), but it
        # stays part of the serialized identity so a cached row records
        # exactly how it was produced.
        "trace",
    )

    def replaced(self, **overrides):
        import copy

        clone = copy.copy(self)
        for key, value in overrides.items():
            if not hasattr(clone, key):
                raise AttributeError("unknown ScenarioConfig field %r" % key)
            setattr(clone, key, value)
        return clone

    def to_dict(self):
        """A stable, JSON-able description of this config.

        The round trip ``ScenarioConfig.from_dict(cfg.to_dict())`` rebuilds
        an equivalent config, so cache keys and worker dispatch never
        depend on pickle internals.  Raises
        :class:`ConfigSerializationError` when the config carries live
        objects (a custom ``mobility`` model, callables inside a protocol
        config) that have no stable textual form.
        """
        if self.mobility is not None:
            raise ConfigSerializationError(
                "a ScenarioConfig with a custom mobility object cannot be "
                "serialized; describe placement via pause_time/seed instead"
            )
        data = {key: getattr(self, key) for key in self.SCALAR_FIELDS}
        data["protocol_config"] = _nested_to_dict(
            self.protocol_config, "protocol_config"
        )
        data["mac_config"] = _nested_to_dict(self.mac_config, "mac_config")
        # The fault plan is part of the trial's identity: two trials that
        # differ only in their plan must hash to different cache keys.
        data["fault_plan"] = (
            None if self.fault_plan is None else self.fault_plan.to_dict()
        )
        # Pinned topology/workload (counterexample scenarios) are identity
        # too: the same seed over a different schedule is a different trial.
        data["placements"] = (
            None if self.placements is None
            else [list(p) for p in self.placements]
        )
        data["flows"] = (
            None if self.flows is None else [list(f) for f in self.flows]
        )
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a config serialized by :meth:`to_dict`."""
        data = dict(data)
        protocol_config = _nested_from_dict(
            data.pop("protocol_config", None), "protocol_config"
        )
        mac_config = _nested_from_dict(data.pop("mac_config", None), "mac_config")
        fault_plan = data.pop("fault_plan", None)
        if fault_plan is not None:
            fault_plan = FaultPlan.from_dict(fault_plan)
        placements = data.pop("placements", None)
        flows = data.pop("flows", None)
        unknown = set(data) - set(cls.SCALAR_FIELDS)
        if unknown:
            raise ValueError(
                "unknown ScenarioConfig fields %s" % sorted(unknown)
            )
        return cls(
            protocol_config=protocol_config, mac_config=mac_config,
            fault_plan=fault_plan, placements=placements, flows=flows,
            **data
        )


class Scenario:
    """A built (but not yet run) simulation.

    ``scheduler`` and ``index`` are the kernel classes the trial runs on.
    Only differential tests and the kernel bench pass the references
    (:class:`~repro.sim.events.EventScheduler`,
    :class:`~repro.net.spatial.ScanIndex`); rows and traces are
    byte-identical either way, so neither is part of the config.
    """

    def __init__(self, config, *, scheduler=CalendarScheduler,
                 index=GridIndex):
        self.config = config
        # Packet uids and flow ids restart per scenario so identifiers
        # (and with them trace files) are a pure function of the trial,
        # not of how many trials this process ran before.
        reset_packet_uids()
        reset_flow_ids()
        self.sim = Simulator(seed=config.seed, scheduler=scheduler)
        self.metrics = MetricsCollector(self.sim)

        if config.placements is not None:
            # Pinned topology: positions come straight from the config, no
            # mobility-stream draws at all (counterexample scenarios need
            # link geometry to be exact, not sampled).
            self.mobility = StaticPlacement(
                dict(enumerate(config.placements))
            )
        elif config.mobility is not None:
            self.mobility = config.mobility
        elif config.pause_time >= config.duration:
            # Fully paused = static placement drawn from the same stream.
            rng = self.sim.stream("mobility")
            self.mobility = StaticPlacement({
                i: (rng.uniform(0, config.width), rng.uniform(0, config.height))
                for i in range(config.num_nodes)
            })
        else:
            self.mobility = RandomWaypoint(
                config.num_nodes, config.width, config.height,
                min_speed=config.min_speed, max_speed=config.max_speed,
                pause_time=config.pause_time, duration=config.duration,
                rng=self.sim.stream("mobility"),
            )

        self.channel = WirelessChannel(
            self.sim, self.mobility,
            transmission_range=config.transmission_range,
            gray_zone=config.gray_zone,
            index=index,
        )
        protocol_cls, default_config = PROTOCOLS[config.protocol]
        proto_config = config.protocol_config
        if proto_config is None:
            proto_config = default_config()

        def routing_factory(node):
            return protocol_cls(
                self.sim, node, config=proto_config, metrics=self.metrics
            )

        self.nodes = {}
        self.protocols = {}
        for node_id in self.mobility.node_ids():
            node = Node(self.sim, node_id, self.channel,
                        mac_config=config.mac_config, metrics=self.metrics)
            node.routing_factory = routing_factory
            protocol = routing_factory(node)
            node.install_routing(protocol)
            self.nodes[node_id] = node
            self.protocols[node_id] = protocol

        # An explicit invariant_check, or any fault plan, installs the
        # fault-aware monitor; it subsumes the plain loop checker (both
        # claim the table_change_hook, so only one can be wired).
        self.monitor = None
        self.loop_checker = None
        if config.invariant_check or config.fault_plan is not None:
            bound = (config.fault_plan.reconvergence_bound
                     if config.fault_plan is not None else None)
            self.monitor = InvariantMonitor(
                self.sim, self.protocols,
                nodes=self.nodes, channel=self.channel,
                metrics=self.metrics,
                check_ordering=(config.protocol == "ldr"),
                reconvergence_bound=bound,
                demand_fn=self._active_demands,
            ).install()
        elif config.loop_check:
            self.loop_checker = LoopChecker(
                list(self.protocols.values()),
                check_ordering=(config.protocol == "ldr"),
            ).install()

        self.injector = None
        if config.fault_plan is not None:
            self.injector = FaultInjector(
                self.sim, self.nodes, self.channel, config.fault_plan,
                protocols=self.protocols, monitor=self.monitor,
            ).install()

        # Opt-in observability: the recorder installs last so its hooks
        # chain in front of (and preserve) the monitor's / checker's, and
        # so injector reboots re-instrument fresh protocol instances.
        self.trace = None
        if config.trace:
            self.trace = TraceRecorder(self.sim).install(self)

        for node in self.nodes.values():
            node.start()

        self.traffic = TrafficGenerator(
            self.sim, self.nodes, config.num_flows, rate=config.rate,
            packet_size=config.packet_size,
            mean_flow_length=config.mean_flow_length,
            duration=config.duration, warmup=config.warmup,
            flow_spec=config.flows,
        )

    def _active_demands(self):
        """The (src, dst) pairs of currently active CBR flows."""
        return [(f.src, f.dst) for f in self.traffic.flows if f.active]

    def run(self):
        """Run to completion and return the :class:`RunReport`."""
        profiler = self.sim.profiler
        profiler.count("scenario.runs")
        with profiler.timed("scenario.run"):
            self.sim.run(until=self.config.duration)
        # Fig. 7: record each traffic destination's own sequence number.
        for dst in self.traffic.destinations_used():
            protocol = self.protocols[dst]
            if protocol is None:
                continue  # destination is down at end of run
            if hasattr(protocol, "own_sequence_value"):
                self.metrics.observe_final_seqno(
                    dst, protocol.own_sequence_value()
                )
        # End-of-run audit sweep; the monitor streams its counts into the
        # collector (a plain loop checker raises instead).
        if self.monitor is not None:
            self.monitor.check_all(self.traffic.destinations_used())
        return RunReport(self.metrics, profile=profiler)


def build_scenario(config):
    """Construct a :class:`Scenario` without running it."""
    return Scenario(config)


def run_scenario(config):
    """Build and run; returns the :class:`RunReport`."""
    return Scenario(config).run()
