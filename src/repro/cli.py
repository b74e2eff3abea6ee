"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` one command's options: the parser is their one
description.  An option more than one command takes is declared once,
in :data:`SHARED_OPTIONS`.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.analysis import normalized_curve
from repro.analysis.breakeven import breakeven_for_app, format_breakeven
from repro.analysis.frequency_profile import suite_frequency_profile
from repro.analysis.reporting import format_table
from repro.analysis.startup_curves import log_grid
from repro.core import ALL_CONFIGS, CoDesignedVM
from repro.core.config import resolve_config
from repro.isa.x86lite import AssemblerError, assemble
from repro.obs.logutil import LOG_LEVELS, configure_logging
from repro.timing import simulate_startup
from repro.timing.sampler import crossover_cycles
from repro.workloads import generate_workload, winstone_app, \
    winstone_suite

log = logging.getLogger("repro.cli")

#: Every option more than one command takes, declared once: group ->
#: ``(flags, add_argument keywords)`` rows.  :func:`_add_shared` adds a
#: group to one command and takes that command's own defaults by dest.
SHARED_OPTIONS = {
    "vm": [
        (("--config",), dict(default="soft",
                             help="machine configuration: ref, soft, be, "
                                  "fe, interp or a Table 2 name "
                                  "(default %(default)s)")),
        (("--hot-threshold",), dict(type=int, default=None,
                                    help="block executions before SBT "
                                         "optimizes it (default "
                                         "%(default)s: the "
                                         "configuration's)")),
        (("--max-instructions",), dict(type=int, default=10_000_000,
                                       help="stop the run after this "
                                            "many instructions (default "
                                            "%(default)s)")),
    ],
    "seed": [(("--seed",), dict(type=int, default=0))],
    "client": [
        (("--timeout",), dict(type=float, default=2.0,
                              help="per-request timeout in seconds "
                                   "(default %(default)s)")),
        (("--retries",), dict(type=int, default=1,
                              help="retry budget per request (default "
                                   "%(default)s)")),
    ],
    "cluster": [(("--cluster",), dict(
        required=True, help="cluster spec: 'shard0=h:p,h:p;shard1=...' "
                            "or @spec.json (a single server is "
                            "'shard0=host:port')"))],
    "store": [(("--cache-dir",), dict(
        default=".repro-cache",
        help="repository directory (default: %(default)s)"))],
    "queue": [(("--max-queue-depth",), dict(
        type=int, default=None,
        help="server-side admission bound: shed store ops (retryable "
             "'overloaded' with a retry_after hint) past this many "
             "concurrent dispatches (default: unlimited; "
             "docs/overload.md)"))],
}


def _add_shared(parser: argparse.ArgumentParser, *groups: str,
                **defaults) -> None:
    """Add the option ``groups`` to one command, with ``defaults`` (by
    dest) replacing the shared ones.  Every call makes its own
    ``Action``s, so one command's default never leaks into another's."""
    for group in groups:
        for flags, kwargs in SHARED_OPTIONS[group]:
            dest = flags[0][2:].replace("-", "_")
            parser.add_argument(*flags, **{
                **kwargs, "default": defaults.get(dest,
                                                  kwargs.get("default"))})


def _config_by_name(name: str):
    try:
        return resolve_config(name)
    except ValueError as error:
        raise SystemExit(str(error))


def _program_source(name_or_path: str) -> str:
    """Resolve a seed-workload name or an assembly file path to source."""
    from repro.workloads.programs import PROGRAMS
    if name_or_path in PROGRAMS:
        return PROGRAMS[name_or_path]
    try:
        with open(name_or_path) as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(
            f"{name_or_path!r} is neither a seed workload "
            f"({sorted(PROGRAMS)}) nor a readable file: {error}")


def _boot(args: argparse.Namespace, program: str,
          trace: bool = False) -> CoDesignedVM:
    """A VM of ``--config`` / ``--hot-threshold`` with ``program`` (a
    seed-workload name or an assembly file) loaded; source that does not
    assemble is a clean exit that names the line."""
    try:
        image = assemble(_program_source(program))
    except AssemblerError as error:
        raise SystemExit(f"{program}: {error}")
    config = _config_by_name(args.config).with_(trace=trace)
    vm = CoDesignedVM(config, hot_threshold=args.hot_threshold)
    vm.load(image)
    return vm


def _print_run(report) -> int:
    """The program's output, then the run summary; the exit code."""
    for item in report.output:
        print(item)
    print()
    print(report.summary())
    return report.exit_code or 0


def cmd_run(args: argparse.Namespace) -> int:
    vm = _boot(args, args.program)
    return _print_run(vm.run(max_instructions=args.max_instructions))


def cmd_startup(args: argparse.Namespace) -> int:
    try:
        app = winstone_app(args.app)
    except KeyError as error:
        raise SystemExit(error.args[0])
    workload = generate_workload(app, dyn_instrs=args.instrs,
                                 seed=args.seed)
    configs = ALL_CONFIGS()
    results = {name: simulate_startup(config, workload)
               for name, config in configs.items()}
    grid = log_grid(1e4, max(r.total_cycles
                             for r in results.values()), per_decade=2)
    names = list(configs)
    rows = [[f"{cycles:.0e}"]
            + [normalized_curve(results[name], app.ipc_ref,
                                [cycles])[0] for name in names]
            for cycles in grid]
    print(format_table(["cycles"] + names, rows,
                       title=f"{app.name}: normalized aggregate IPC "
                             f"(memory startup, {args.instrs:,} instrs)"))
    reference = results["Ref: superscalar"]
    print("\nbreakeven vs reference:")
    for name in names[1:]:
        point = crossover_cycles(results[name].series,
                                 reference.series, start=1e4)
        print(f"  {name:18s} {format_breakeven(point)}")
    return 0


def cmd_breakeven(args: argparse.Namespace) -> int:
    configs = ALL_CONFIGS()
    vm_names = ["VM.soft", "VM.be", "VM.fe"]
    rows = []
    for app in winstone_suite():
        row = breakeven_for_app(app, [configs[name] for name in vm_names],
                                configs["Ref: superscalar"],
                                dyn_instrs=args.instrs, seed=args.seed)
        rows.append([row.app] + [format_breakeven(row.cycles_by_config[
            name]) for name in vm_names])
    print(format_table(["benchmark"] + vm_names, rows,
                       title="breakeven points (Fig. 9)"))
    return 0


def _traced_run(args: argparse.Namespace) -> CoDesignedVM:
    """Boot and run one workload with tracing enabled."""
    vm = _boot(args, args.workload, trace=True)
    vm.run(max_instructions=args.max_instructions)
    return vm


def cmd_trace(args: argparse.Namespace) -> int:
    vm = _traced_run(args)
    from repro.obs.export import serialize_trace, validate_trace
    doc = vm.export_trace(metadata={"workload": args.workload})
    problems = validate_trace(doc)
    if problems:
        for problem in problems:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    text = serialize_trace(doc)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(doc['traceEvents'])} event(s) to {args.out} "
              f"({vm.ledger.total:.0f} simulated cycles attributed); "
              f"load it at https://ui.perfetto.dev")
    else:
        print(text, end="")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.workload:
        vm = _traced_run(args)
        print(vm.ledger.format())
        top = vm.ledger.top_blocks("bbt_translation", limit=args.top)
        if top:
            print(f"\ntop {len(top)} block(s) by BBT translation "
                  f"overhead:")
            for addr, cycles in top:
                print(f"  {addr:#010x}  {cycles:12.0f} cycles")
        return 0
    workloads = [generate_workload(app, dyn_instrs=args.instrs,
                                   seed=args.seed)
                 for app in winstone_suite()]
    profile = suite_frequency_profile(workloads)
    rows = [[f"{bucket:,}+", static / 1000, 100 * fraction]
            for bucket, static, fraction
            in zip(profile.buckets, profile.static_instrs,
                   profile.dynamic_fractions())]
    print(format_table(
        ["exec count", "static instrs (K)", "dynamic %"], rows,
        title="execution frequency profile (Fig. 3)"))
    print(f"\nstatic above 8000-exec threshold: "
          f"{profile.static_above(8000) / 1000:.1f}K")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import VerifierReport, sanitizer, verify_directory
    from repro.workloads.programs import PROGRAMS

    names = [args.program] if args.program else \
        list(PROGRAMS) if args.workload == "all" else [args.workload]
    total = VerifierReport()
    per_workload = {}
    for name in names:
        vm = _boot(args, name)
        with sanitizer.collecting() as collected:
            vm.run(max_instructions=args.max_instructions)
            # final sweep over the steady-state caches: catches chaining
            # and redirection states that install-time checks predate
            if vm.runtime is not None:
                collected.merge(verify_directory(vm.runtime.directory))
        total.merge(collected)
        per_workload[name] = collected

    if args.json:
        payload = total.to_dict()
        payload["workloads"] = {name: report.to_dict()
                                for name, report in per_workload.items()}
        print(json.dumps(payload, indent=2))
    else:
        for name, report in per_workload.items():
            status = "ok" if report.ok else \
                f"{len(report.violations)} violation(s)"
            print(f"{name}: {report.translations_checked} translation(s) "
                  f"verified, {status}")
        print()
        print(total.format())
    return 0 if total.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cacheserver import CacheServer
    if args.socket and args.port:
        raise SystemExit("choose one of --socket and --port")
    server = CacheServer(args.cache_dir, socket_path=args.socket,
                         host=args.host, port=args.port,
                         max_conns=args.max_conns,
                         max_queue_depth=args.max_queue_depth,
                         shed_retry_after=args.shed_retry_after,
                         shard_id=args.shard_id, role=args.role)
    address = server.start()
    print(f"serving translation cache {args.cache_dir} on {address}",
          flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):  # pragma: no cover - signal path
        log.info("received signal %d; draining", signum)
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - not main
            pass                       # thread (e.g. embedded): no
            #                            signal-driven drain available
    try:
        stop.wait(args.max_seconds)
    except KeyboardInterrupt:   # pragma: no cover - handler not bound
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        clean = server.drain(grace=args.drain_grace)
        stats = server.stats.to_dict()
        print(f"served {sum(stats['requests'].values())} request(s) "
              f"over {stats['connections']} connection(s) "
              f"({stats['conns_rejected']} rejected); "
              f"{stats['records_served']} record(s) served, "
              f"{stats['records_received']} received "
              f"({stats['objects_deduped']} deduped); drain "
              f"{'clean' if clean else 'cut idle connection(s)'}")
        for op, entry in sorted(stats["latency"].items()):
            print(f"  {op:<9s} n={entry['count']:<5d} "
                  f"p50={_fmt_ms(entry['p50'])} "
                  f"p95={_fmt_ms(entry['p95'])} "
                  f"p99={_fmt_ms(entry['p99'])}")
    return 0


def _fmt_ms(value) -> str:
    """Format a latency percentile that may be None (an op counted but
    never timed — e.g. every request failed before the observe).  The
    JSON surface keeps the null; the human surface prints '-'."""
    return "-" if value is None else f"{value:.3f}ms"


def _csv_list(text, cast=str):
    return [cast(item) for item in str(text).split(",") if item]


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (FleetReport, FleetScenario, expand_grid,
                             export_fleet_trace, run_sweep,
                             serialize_report, validate_report)

    if args.action == "report":
        if not args.input:
            raise SystemExit("fleet report requires a report JSON file")
        try:
            with open(args.input) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot read fleet report {args.input}: "
                             f"{error}")
        print(FleetReport(doc).format())
        problems = validate_report(doc)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1 if problems else 0

    fixed = {name: getattr(args, name) for name in (
        "config", "warm", "workload", "seed", "workers", "hot_threshold",
        "max_instructions", "shards", "replicas", "request_budget",
        "max_queue_depth", "collect")}
    try:
        if args.action == "run":
            scenarios = [FleetScenario(
                n=int(args.n) if args.n else 8,
                boot_policy=args.boot_policy or "all_at_once",
                image_policy=args.image_policy or "one", **fixed)]
        else:   # sweep
            axes = {
                "n": _csv_list(args.n, int) if args.n else [8, 64],
                "boot_policy": _csv_list(args.boot_policy)
                if args.boot_policy
                else ["all_at_once", "one_then_others"],
                "image_policy": _csv_list(args.image_policy)
                if args.image_policy else ["one", "one_per_vm"],
            }
            scenarios = expand_grid(axes, **fixed)
    except ValueError as error:
        raise SystemExit(str(error))

    def progress(result):
        print(f"booted {result.scenario.label()}: "
              f"arch_ok={result.arch_ok}", flush=True)

    results = run_sweep(scenarios, progress=progress)
    report = FleetReport.from_results(results)
    print()
    print(report.format())

    out = args.out
    if out is None and args.action == "sweep":
        out = "results/fleet_boot.json"
    if out:
        from pathlib import Path
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(serialize_report(report.to_dict()))
        print(f"\nfleet report written to {out}")
    if args.trace_out:
        from repro.obs.export import dump_trace
        dump_trace(export_fleet_trace(results[0]), args.trace_out)
        print(f"fleet trace written to {args.trace_out} "
              f"(load at https://ui.perfetto.dev)")

    problems = validate_report(report.to_dict())
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems or not all(r.arch_ok for r in results):
        return 1
    return 0


def _cluster_spec(text: str, what: str = "--cluster spec"):
    """Parse a ``--cluster`` / ``--server`` value: a spec string
    (``shard0=host:port,host:port;shard1=...``), ``@file.json``
    holding a spec document, or one server's address (the 1x1
    cluster).  An unreadable or unusable one is a clean exit, not a
    failure mid-request."""
    from repro.persist import parse_address
    from repro.persist.remote import as_spec
    try:
        if text.startswith("@"):
            with open(text[1:]) as handle:
                spec = as_spec(json.load(handle))
        else:
            spec = as_spec(text)
        for address in spec.addresses():
            parse_address(address)
    except (OSError, ValueError) as error:
        raise SystemExit(f"bad {what}: {error}")
    return spec


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import anti_entropy
    from repro.persist import RemoteRepository
    spec = _cluster_spec(args.cluster)

    if args.action == "repair":
        report = anti_entropy(spec, timeout=args.timeout,
                              retries=args.retries)
        print(report.format())
        return 0 if report.ok else 1

    # health: per-group, per-endpoint breaker + server health answers
    client = RemoteRepository(spec, timeout=args.timeout,
                              retries=args.retries)
    try:
        view = client.health_view()
    finally:
        client.close()
    failures = 0
    for group in sorted(view):
        live = sum(1 for entry in view[group] if entry["health"])
        total = len(view[group])
        status = "ok" if live else "DOWN"
        print(f"{status:4s} {group}: {live}/{total} replica(s) live "
              f"(write quorum {client.groups[group].quorum})")
        for entry in view[group]:
            health = entry["health"]
            if health is None:
                state = "unreachable"
            else:
                lease = health.get("lease") or {}
                state = (f"{health.get('role', '?')}, "
                         f"{health.get('objects', 0)} object(s)")
                if health.get("draining"):
                    state += ", draining"
                if lease.get("held"):
                    state += (", lease held"
                              + (" (expired)" if lease.get("expired")
                                 else ""))
            breaker = f"breaker {entry.get('breaker', 'closed')}"
            if entry.get("consecutive_failures"):
                breaker += (f" ({entry['consecutive_failures']} "
                            f"consecutive failure(s))")
            print(f"       {entry['address']:<24s} {state} [{breaker}]")
        failures += not live
    return 1 if failures else 0


def _format_monitor(snapshot: dict) -> str:
    """Human view of one collector snapshot: targets, indicators,
    verdicts, anomalies."""
    lines = [f"scrape #{snapshot['scrapes']}"]
    for key, target in snapshot["targets"].items():
        if target["up"]:
            state = (f"up    {target.get('role') or '?':<8s} "
                     f"{target.get('objects', 0)} object(s)")
            if target.get("draining"):
                state += ", draining"
        else:
            state = "DOWN"
        address = target.get("address", "")
        lines.append(f"  {key:<20s} {state}"
                     f"{'  @ ' + address if address else ''}")
    lines.append("indicators:")
    for name, value in snapshot["indicators"].items():
        shown = "-" if value is None else f"{value:.4g}"
        lines.append(f"  {name:<22s} {shown}")
    lines.append("slo:")
    for verdict in snapshot["slo"]:
        value = verdict["value"]
        shown = "-" if value is None else f"{value:.4g}"
        lines.append(
            f"  {verdict['status'].upper():<5s} {verdict['name']:<22s} "
            f"value={shown} warn>{verdict['warn']:g} "
            f"fail>{verdict['fail']:g} burn={verdict['burn']:g}")
    if snapshot["anomalies"]:
        lines.append("anomalies:")
        lines.extend(f"  {problem}"
                     for problem in snapshot["anomalies"])
    else:
        lines.append("anomalies: none")
    return "\n".join(lines)


def cmd_monitor(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.collector import ClusterCollector
    from repro.obs.slo import load_slo_file, worst_status
    spec = _cluster_spec(args.cluster)
    slos = None
    if args.slo:
        try:
            slos = load_slo_file(args.slo.lstrip("@"))
        except (OSError, ValueError) as error:
            raise SystemExit(f"bad --slo file: {error}")

    collector = ClusterCollector(spec, timeout=args.timeout,
                                 retries=args.retries, slos=slos)
    exit_code = 0
    snapshot = None
    try:
        index = 0
        while True:
            if index:
                _time.sleep(args.interval)
            collector.scrape()
            snapshot = collector.snapshot(canonical=False)
            if args.json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                print(_format_monitor(snapshot))
            exit_code = 1 if worst_status(snapshot["slo"]) == "fail" \
                else 0
            index += 1
            if not args.watch:
                break               # one scrape unless --watch
            if args.iterations and index >= args.iterations:
                break
    except KeyboardInterrupt:       # pragma: no cover - interactive
        pass
    finally:
        collector.close()
    if args.out and snapshot is not None:
        from pathlib import Path
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"monitor snapshot written to {args.out}")
    return exit_code


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.persist import RemoteRepository, TranslationRepository
    remote = None
    if args.action in ("push", "pull"):
        if not args.server:
            raise SystemExit(f"cache {args.action} requires --server "
                             "(unix:<path>, host:port or a cluster "
                             "spec)")
        remote = RemoteRepository(_cluster_spec(args.server, "--server"),
                                  local=args.cache_dir,
                                  timeout=args.timeout,
                                  retries=args.retries)
        repo = remote
    else:
        repo = TranslationRepository(args.cache_dir)

    if args.action == "stats":
        print(repo.stats().format())
        return 0

    if args.action == "gc":
        report = repo.gc(args.budget)
        print(report.format())
        return 0

    if args.action == "fsck":
        report = repo.fsck(repair=args.repair)
        print(report.format())
        # check-only mode signals damage through the exit code so CI
        # can gate on it; a repairing pass that settled everything is 0
        if args.repair:
            return 0 if repo.fsck(repair=False).ok else 1
        return 0 if report.ok else 1

    if not args.program:
        raise SystemExit(f"cache {args.action} requires a program "
                         "(seed workload name or assembly file)")
    vm = _boot(args, args.program)
    destination = args.server if remote is not None else args.cache_dir

    if args.action in ("save", "push"):
        # cold run to populate the code caches, then snapshot them
        report = vm.run(max_instructions=args.max_instructions)
        written = vm.save_translations(repo)
        print(report.summary())
        print(f"\nsaved {written} new translation record(s) "
              f"to {destination}")
        _print_degradation(remote)
        return report.exit_code or 0

    # load/pull: warm-start from the repository/server, then run
    load_report = vm.warm_start(repo)
    print(load_report.format())
    _print_degradation(remote)
    print()
    return _print_run(vm.run(max_instructions=args.max_instructions))


def _print_degradation(remote) -> None:
    """One line when a shared-cache request had to degrade."""
    if remote is None:
        return
    stats = remote.remote_stats
    if stats.fallbacks or stats.retries:
        print(f"shared cache: {stats.requests} request(s), "
              f"{stats.retries} retrie(s), {stats.fallbacks} "
              f"fallback(s) to local/cold "
              f"(breaker opened {stats.breaker_opens}x)")


def cmd_configs(_args: argparse.Namespace) -> int:
    rows = []
    for name, config in ALL_CONFIGS().items():
        costs = config.costs
        rows.append([name, config.initial_emulation,
                     config.hot_threshold if config.is_vm else "-",
                     costs.bbt_cycles_per_instr or "-",
                     config.hotspot_detector])
    print(format_table(
        ["configuration", "cold code", "hot threshold",
         "BBT cyc/instr", "hot detection"], rows,
        title="machine configurations (Table 2)"))
    return 0


PROGRAM_HELP = "seed workload name or assembly file"


def build_parser() -> argparse.ArgumentParser:
    from repro.lint.cli import add_lint_arguments, run_lint
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Co-designed VM startup-time study "
                    "(Hu & Smith, ISCA 2006)")
    parser.add_argument("--log-level", default=None, choices=LOG_LEVELS,
                        help="logging threshold for the repro.* loggers "
                             "(default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, *groups, **defaults):
        """One subcommand: its parser, shared option groups, handler."""
        cmd = sub.add_parser(name, help=text)
        _add_shared(cmd, *groups, **defaults)
        cmd.set_defaults(func=func)
        return cmd

    run = command("run", cmd_run, "run an x86lite program", "vm")
    run.add_argument("program", help=PROGRAM_HELP)

    startup = command("startup", cmd_startup,
                      "startup curves for one application", "seed")
    startup.add_argument("--app", default="Word")
    startup.add_argument("--instrs", type=int, default=500_000_000)

    breakeven = command("breakeven", cmd_breakeven,
                        "Fig. 9 per-app breakeven table", "seed")
    breakeven.add_argument("--instrs", type=int, default=500_000_000)

    profile = command("profile", cmd_profile,
                      "Fig. 3 frequency profile, or per-workload cycle "
                      "attribution", "vm", "seed")
    profile.add_argument("workload", nargs="?", default=None,
                         help=PROGRAM_HELP + "; when given, run it "
                              "traced and print the "
                              "ledger's Eq. 1 phase breakdown instead "
                              "of the Fig. 3 table")
    profile.add_argument("--top", type=int, default=10,
                         help="top-N blocks by BBT translation overhead "
                              "(default 10)")
    profile.add_argument("--instrs", type=int, default=100_000_000)

    trace = command("trace", cmd_trace, "run a workload traced; export "
                    "Perfetto trace_event JSON", "vm")
    trace.add_argument("workload", help=PROGRAM_HELP)
    trace.add_argument("--out", default=None,
                       help="write the trace JSON here "
                            "(default: stdout)")

    command("configs", cmd_configs, "list configurations")

    verify = command("verify", cmd_verify, "statically verify emitted "
                     "translations for a workload", "vm",
                     hot_threshold=20)
    verify.add_argument("--workload", default="all",
                        help="seed program name, or 'all'")
    verify.add_argument("--program", default=None,
                        help="verify an assembly source file instead")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable violation report")

    serve = command("serve", cmd_serve, "serve a translation repository "
                    "to other VM instances", "store", "queue")
    serve.add_argument("--socket", default=None,
                       help="listen on a Unix socket at this path")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: ephemeral; ignored "
                            "with --socket)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="exit after this many seconds "
                            "(smoke tests; default: run until "
                            "SIGTERM/SIGINT)")
    serve.add_argument("--max-conns", type=int, default=None,
                       help="reject connections beyond this many "
                            "concurrent clients with a retryable "
                            "'busy' error (default: unlimited)")
    serve.add_argument("--shed-retry-after", type=float, default=0.05,
                       help="base client backoff hint (seconds) "
                            "attached to shed responses, scaled by "
                            "queue excess (default 0.05)")
    serve.add_argument("--shard-id", default="",
                       help="cluster shard group this server belongs "
                            "to (reported by the health op)")
    serve.add_argument("--role", default="primary",
                       choices=["primary", "replica"],
                       help="replica role within the shard group "
                            "(reported by the health op)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       help="seconds to let in-flight requests finish "
                            "during shutdown before idle connections "
                            "are cut (default 5.0)")

    fleet = command("fleet", cmd_fleet, "mass-boot scenario harness: "
                    "herds of VMs against one shared cache server",
                    "vm", "seed", "queue", hot_threshold=20,
                    max_instructions=2_000_000)
    fleet.add_argument("action", choices=["run", "sweep", "report"],
                       help="run: boot one fleet scenario; sweep: "
                            "expand a parameter grid and boot every "
                            "scenario; report: validate and print a "
                            "saved fleet report JSON")
    fleet.add_argument("input", nargs="?", default=None,
                       help="report: the fleet report JSON file")
    fleet.add_argument("--n", default=None,
                       help="fleet size (run: one int, default 8; "
                            "sweep: comma list, default 8,64)")
    fleet.add_argument("--boot-policy", default=None,
                       help="all_at_once | one_then_others (sweep: "
                            "comma list; default both)")
    fleet.add_argument("--image-policy", default=None,
                       help="one | one_per_vm (sweep: comma list; "
                            "default both)")
    fleet.add_argument("--workload", default="fibonacci",
                       help="seed workload every instance boots")
    fleet.add_argument("--warm", action="store_true",
                       help="pre-populate the server repository "
                            "before the herd boots")
    fleet.add_argument("--shards", type=int, default=1,
                       help="cluster shard groups to host (default 1: "
                            "the classic single cache server)")
    fleet.add_argument("--replicas", type=int, default=1,
                       help="replicas per shard group (default 1)")
    fleet.add_argument("--collect", action="store_true",
                       help="attach the telemetry collector to the "
                            "hosted server(s): embed SLO verdicts in "
                            "the report and server span lanes + flow "
                            "arrows in the merged trace")
    fleet.add_argument("--request-budget", type=float, default=8.0,
                       help="per-request deadline budget (seconds) "
                            "each instance's client spends across "
                            "retries and failovers (docs/overload.md)")
    fleet.add_argument("--workers", type=int, default=8,
                       help="boot processes the herd is forked onto "
                            "(default 8)")
    fleet.add_argument("--out", default=None,
                       help="write the report JSON here (sweep "
                            "default: results/fleet_boot.json)")
    fleet.add_argument("--trace-out", default=None,
                       help="write the first fleet's merged Perfetto "
                            "trace here")

    cluster = command("cluster", cmd_cluster, "sharded translation-cache "
                      "cluster: health and anti-entropy repair",
                      "cluster", "client")
    cluster.add_argument("action", choices=["health", "repair"],
                         help="health: per-replica liveness/breaker/"
                              "lease view via the wire health op; "
                              "repair: one anti-entropy pass (diff "
                              "replica manifests, re-replicate the "
                              "gaps)")

    monitor = command("monitor", cmd_monitor, "central telemetry "
                      "collector: scrape replicas, merge metrics, "
                      "evaluate SLO verdicts", "cluster", "client")
    monitor.add_argument("--watch", action="store_true",
                         help="scrape repeatedly every --interval "
                              "seconds (default: one scrape)")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="seconds between --watch scrapes "
                              "(default 2.0)")
    monitor.add_argument("--iterations", type=int, default=0,
                         help="stop --watch after this many scrapes "
                              "(default 0: until interrupted)")
    monitor.add_argument("--slo", default=None,
                         help="JSON file of SLO rule objects "
                              "(@file.json or plain path; default: "
                              "the built-in rules)")
    monitor.add_argument("--json", action="store_true",
                         help="print the full operator snapshot as "
                              "JSON instead of the table")
    monitor.add_argument("--out", default=None,
                         help="also write the last snapshot JSON here")

    cache = command("cache", cmd_cache, "persistent translation "
                    "repository (save/load/push/pull/stats/gc)",
                    "store", "vm", "client", retries=3)
    cache.add_argument("action",
                       choices=["save", "load", "push", "pull",
                                "stats", "gc", "fsck"],
                       help="save: cold run + snapshot translations; "
                            "load: warm-start from the repository and "
                            "run; push/pull: the same through a shared "
                            "cache server (--server), degrading to the "
                            "local repository on any failure; stats: "
                            "repository summary; gc: evict "
                            "LRU records down to a size budget; fsck: "
                            "check (and with --repair, fix) the store")
    cache.add_argument("program", nargs="?", default=None,
                       help=PROGRAM_HELP + " (required for save/load)")
    cache.add_argument("--server", default=None,
                       help="shared cache for push/pull: one server "
                            "(unix:<path> or host:port) or a cluster "
                            "spec (see cluster --cluster)")
    cache.add_argument("--budget", type=int, default=64 * 1024 * 1024,
                       help="gc size budget in bytes (default 64 MiB)")
    cache.add_argument("--repair", action="store_true",
                       help="fsck: quarantine corrupt objects and "
                            "repair the index/manifests in place")

    add_lint_arguments(command("lint", run_lint, "run reprolint, the "
                               "project-invariant static analyzer"))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    log.debug("command %r dispatched", args.command)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
