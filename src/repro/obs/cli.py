"""The ``repro trace`` command: inspect, replay, and diff trace files.

Subcommands
-----------
summary   event counts by kind, drop reasons, and header provenance
show      print (filtered) events from a trace
routes    replay the route-change timeline toward one destination,
          showing the ``(sn, fd, d)`` triplets LDR's update conditions
          (NDC/FDC/SDC) gate on
diff      compare two traces event by event; exits 1 naming the first
          diverging event — e.g. LDR vs AODV on the same churn plan to
          pinpoint where AODV's table departs from LDR's, or the same
          trial before and after a change to find its first effect
"""

from repro.obs.events import first_divergence
from repro.obs.reader import TraceError, read_trace


def register_parser(parser):
    """Attach the trace subcommands to an argparse parser."""
    sub = parser.add_subparsers(dest="trace_command", required=True)

    p = sub.add_parser("summary", help="event counts and provenance")
    p.add_argument("trace", help="trace file (JSONL)")

    p = sub.add_parser("show", help="print (filtered) events")
    p.add_argument("trace", help="trace file (JSONL)")
    _add_filter_args(p)
    p.add_argument("--limit", type=int, default=50,
                   help="print at most N events (default 50; 0 = all)")

    p = sub.add_parser(
        "routes", help="route-change timeline for one destination")
    p.add_argument("trace", help="trace file (JSONL)")
    p.add_argument("--dst", type=int, required=True,
                   help="destination node id to replay")
    p.add_argument("--node", type=int, default=None,
                   help="only this node's table changes")

    p = sub.add_parser("diff", help="first divergence between two traces")
    p.add_argument("trace_a", help="left trace file")
    p.add_argument("trace_b", help="right trace file")
    p.add_argument("--kind", default="route",
                   help="event kind to compare (default 'route'; "
                        "'all' compares every event)")
    p.add_argument("--context", type=int, default=2,
                   help="matching events to show before the divergence")
    return parser


def _add_filter_args(parser):
    parser.add_argument("--kind", default=None,
                        help="only events of this kind (tx/deliver/drop/"
                             "route/fault/violation)")
    parser.add_argument("--node", type=int, default=None)
    parser.add_argument("--dst", type=int, default=None,
                        help="only events whose data targets this "
                             "destination")
    parser.add_argument("--after", type=float, default=None)
    parser.add_argument("--before", type=float, default=None)


def run(args, out):
    """Dispatch one parsed trace subcommand; returns an exit code."""
    try:
        return _DISPATCH[args.trace_command](args, out)
    except TraceError as err:
        print("error: %s" % err, file=out)
        return 2
    except OSError as err:
        print("error: cannot read trace: %s" % err, file=out)
        return 2


def _matches(event, kind=None, node=None, dst=None, after=None, before=None):
    if kind is not None and event.kind != kind:
        return False
    if node is not None and event.node != node:
        return False
    if dst is not None and event.data.get("dst") != dst:
        return False
    if after is not None and event.time < after:
        return False
    if before is not None and event.time > before:
        return False
    return True


def _describe_header(header):
    config = header.get("config") or {}
    bits = ["schema=%s" % header.get("schema")]
    if "seed" in header:
        bits.append("seed=%s" % header["seed"])
    for key in ("protocol", "num_nodes", "duration"):
        if key in config:
            bits.append("%s=%s" % (key, config[key]))
    if config.get("fault_plan"):
        bits.append("faulted")
    return " ".join(bits)


def cmd_summary(args, out):
    header, events = read_trace(args.trace)
    print("trace   : %s" % args.trace, file=out)
    print("header  : %s" % _describe_header(header), file=out)
    print("events  : %d" % len(events), file=out)
    kinds = {}
    reasons = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.kind == "drop" and "reason" in event.data:
            reason = event.data["reason"]
            reasons[reason] = reasons.get(reason, 0) + 1
    for kind in sorted(kinds):
        print("  {:<9} {}".format(kind, kinds[kind]), file=out)
    if reasons:
        print("  drop reasons: " + ", ".join(
            "%s=%d" % (r, reasons[r]) for r in sorted(reasons)), file=out)
    return 0


def cmd_show(args, out):
    _, events = read_trace(args.trace)
    shown = 0
    matched = 0
    for event in events:
        if not _matches(event, kind=args.kind, node=args.node, dst=args.dst,
                        after=args.after, before=args.before):
            continue
        matched += 1
        if args.limit and shown >= args.limit:
            continue
        print(repr(event), file=out)
        shown += 1
    if matched > shown:
        print("... %d more (raise --limit)" % (matched - shown), file=out)
    return 0


def _format_metric(metric):
    if metric is None:
        return "-"
    try:
        sn, fd, d = metric
    except (TypeError, ValueError):
        return str(metric)
    if isinstance(sn, list):
        sn = "(%s)" % ",".join(str(part) for part in sn)
    return "sn=%s fd=%s d=%s" % (sn, fd, d)


def cmd_routes(args, out):
    header, events = read_trace(args.trace)
    print("route timeline toward %d  [%s]"
          % (args.dst, _describe_header(header)), file=out)
    count = 0
    for event in events:
        if event.kind != "route" or event.data.get("dst") != args.dst:
            continue
        if args.node is not None and event.node != args.node:
            continue
        count += 1
        print("  t={:<12.6f} node={:<4} -> {:<6} {}".format(
            event.time, event.node,
            str(event.data.get("successor")),
            _format_metric(event.data.get("metric")),
        ), file=out)
    if count == 0:
        print("  (no route events toward %d)" % args.dst, file=out)
    return 0


def cmd_diff(args, out):
    _, events_a = read_trace(args.trace_a)
    _, events_b = read_trace(args.trace_b)
    kind = None if args.kind == "all" else args.kind
    side_a = [e for e in events_a if kind is None or e.kind == kind]
    side_b = [e for e in events_b if kind is None or e.kind == kind]
    what = "events" if kind is None else "%s events" % kind

    divergence = first_divergence(side_a, side_b)
    if divergence is None:
        print("identical: %d %s on both sides" % (len(side_a), what),
              file=out)
        return 0
    index, event_a, event_b = divergence
    print("traces diverge at %s #%d" % (what, index), file=out)
    for earlier in side_a[max(0, index - max(0, args.context)):index]:
        print("  = %r" % earlier, file=out)
    for tag, event, side, path in (("a", event_a, side_a, args.trace_a),
                                   ("b", event_b, side_b, args.trace_b)):
        if event is not None:
            print("  %s %r" % (tag, event), file=out)
        else:
            print("  %s (end of trace: %s has only %d %s)"
                  % (tag, path, len(side), what), file=out)
    return 1


_DISPATCH = {
    "summary": cmd_summary,
    "show": cmd_show,
    "routes": cmd_routes,
    "diff": cmd_diff,
}
