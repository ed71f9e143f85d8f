"""An interactive SQL shell for the reproduction server.

Usage::

    python -m repro.cli                        # interactive
    python -m repro.cli -f script.sql          # run a script and exit
    python -m repro.cli stats -f script.sql    # run a script, dump
                                               # observability data (JSON)
    python -m repro.cli serve --port 7478      # serve concurrent clients
    python -m repro.cli connect --port 7478    # remote shell over TCP
    python -m repro.cli lint --strict src      # invariant linter
                                               # (docs/static_analysis.md)

Besides SQL, the shell accepts backslash commands:

``\\install grtree|rtree|btree|gist|hblade``  register a DataBlade
``\\sbspace NAME``                     create a smart-blob space (Step 5)
``\\clock``                            show the simulated current time
``\\clock +N`` / ``\\clock set TEXT``  advance / set the clock
``\\messages [CLASS]``                 dump collected trace messages
``\\faults``                           armed failpoints + the catalog
``\\catalog``                          list tables, indices, AMs, opclasses
``\\prefer on|off``                    toggle the virtual-index directive
``\\quit``                             leave

and these spellings of admin statements, which print what the SQL does:

``\\trace CLASS LEVEL``                ``SET TRACE CLASS <CLASS> LEVEL <LEVEL>``
``\\stats [json]``                     ``SHOW STATS [JSON]``
``\\spans [json] [limit N] [conn N]``  ``SHOW SPANS [JSON] [WHERE
                                     CONNECTION = N] [LIMIT N]``
``\\workload [json]``                  ``SHOW WORKLOAD [JSON]``
``\\events [json] [N]``                ``SHOW EVENTS [JSON] [LIMIT N]``
"""

from __future__ import annotations

import argparse
import secrets
import sys
from typing import Any, List, Optional

from repro.faults import FaultInjected
from repro.server import DatabaseServer, ServerError
from repro.server.admin import render
from repro.server.errors import SqlError
from repro.temporal.chronon import Granularity


#: Shell spellings of admin statements: command -> (the statement it
#: runs, its shell usage).
_ALIASES = {
    "stats": ("SHOW STATS", "[json]"),
    "spans": ("SHOW SPANS", "[json] [limit N] [conn N]"),
    "workload": ("SHOW WORKLOAD", "[json]"),
    "events": ("SHOW EVENTS", "[json] [N]"),
    "trace": ("SET TRACE CLASS", "CLASS LEVEL"),
}


class Shell:
    PROMPT = "repro> "

    def __init__(self, granularity: Granularity = Granularity.DAY) -> None:
        self.server = DatabaseServer(granularity=granularity)
        self.session = self.server.create_session()
        self._installed: set[str] = set()

    # ------------------------------------------------------------------

    def run_line(self, line: str, out=sys.stdout) -> None:
        line = line.strip()
        if not line:
            return
        if line.startswith("\\"):
            self._meta(line, out)
            return
        try:
            result = self.server.execute(line, self.session)
        except (ServerError, FaultInjected) as exc:
            # FaultInjected is an ordinary statement failure (the engine
            # rolled back); SimulatedCrash stays fatal on purpose.
            print(f"error: {exc}", file=out)
            return
        self._render(result, out)

    def _render(self, result: Any, out) -> None:
        if isinstance(result, list):
            if not result:
                print("(no rows)", file=out)
                return
            columns = list(result[0].keys())
            rendered = [
                {c: self._cell(row[c]) for c in columns} for row in result
            ]
            widths = {
                c: max(len(c), *(len(r[c]) for r in rendered)) for c in columns
            }
            print(" | ".join(c.ljust(widths[c]) for c in columns), file=out)
            print("-+-".join("-" * widths[c] for c in columns), file=out)
            for row in rendered:
                print(
                    " | ".join(row[c].ljust(widths[c]) for c in columns),
                    file=out,
                )
            print(f"({len(result)} row(s))", file=out)
        else:
            print(result, file=out)

    def _cell(self, value: Any) -> str:
        from repro.temporal.extent import TimeExtent

        if isinstance(value, TimeExtent):
            return value.to_text(self.server.clock.granularity)
        return str(value)

    # ------------------------------------------------------------------

    def _meta(self, line: str, out) -> None:
        parts = line[1:].split()
        command, args = parts[0].lower(), parts[1:]
        if command in ("q", "quit", "exit"):
            raise EOFError
        if command == "install":
            self._install(args[0].lower() if args else "", out)
        elif command == "sbspace":
            name = args[0] if args else "sbspace1"
            self.server.create_sbspace(name)
            print(f"sbspace {name} created", file=out)
        elif command == "clock":
            self._clock(args, out)
        elif command in _ALIASES:
            self._admin(command, args, out)
        elif command == "messages":
            for message in self.server.trace.messages(args[0] if args else None):
                print(str(message), file=out)
        elif command == "faults":
            self._faults(out)
        elif command == "catalog":
            self._catalog(out)
        elif command == "prefer":
            self.server.prefer_virtual_index = bool(args) and args[0] == "on"
            print(
                f"prefer_virtual_index = {self.server.prefer_virtual_index}",
                file=out,
            )
        elif command == "help":
            print(__doc__, file=out)
        else:
            print(f"unknown command \\{command} (try \\help)", file=out)

    def _admin(self, command: str, args: List[str], out) -> None:
        """An admin statement in its shell spelling, run through
        ``server.execute`` so it prints exactly what the SQL prints."""
        statement, usage = _ALIASES[command]
        words = [word for word in args if word.lower() != "json"]
        if len(words) < len(args):
            statement += " JSON"
        if command == "spans":
            words = [
                "WHERE CONNECTION =" if w.lower() == "conn" else w for w in words
            ]
        elif command == "events" and words:
            words.insert(0, "LIMIT")
        elif command == "trace":
            words.insert(1, "LEVEL")
        statement = " ".join([statement, *words])
        try:
            result = self.server.execute(statement, self.session)
        except SqlError as exc:
            print(f"error: {exc}\nusage: \\{command} {usage}", file=out)
            return
        self._render(result, out)

    def _install(self, blade: str, out) -> None:
        if blade in self._installed:
            print(f"{blade} already installed", file=out)
            return
        if blade == "grtree":
            from repro.datablade import register_grtree_blade

            register_grtree_blade(self.server)
        elif blade == "rtree":
            from repro.rblade import register_rtree_blade

            register_rtree_blade(self.server)
        elif blade == "btree":
            from repro.bblade import register_btree_blade

            register_btree_blade(self.server)
        elif blade == "gist":
            from repro.gist import register_gist_blade

            register_gist_blade(self.server)
        elif blade == "hblade":
            from repro.hblade import register_hybrid_blade

            register_hybrid_blade(self.server)
        else:
            print("blades: grtree, rtree, btree, gist, hblade", file=out)
            return
        self._installed.add(blade)
        print(f"DataBlade {blade} registered", file=out)

    def _faults(self, out) -> None:
        from repro.faults import CATALOG

        registry = self.server.faults
        if registry is None:
            print("no failpoints armed", file=out)
        else:
            # Disarmed points keep their hit counters (marked "off").
            for line in registry.report_lines():
                print(line, file=out)
        print("catalog:", file=out)
        for name in sorted(CATALOG):
            print(f"  {name:<20} {CATALOG[name]}", file=out)

    def _clock(self, args: List[str], out) -> None:
        clock = self.server.clock
        if not args:
            print(f"now = {clock.now} ({clock.format()})", file=out)
        elif args[0].startswith("+"):
            clock.advance(int(args[0][1:]))
            print(f"now = {clock.now} ({clock.format()})", file=out)
        elif args[0] == "set" and len(args) > 1:
            clock.set_text(args[1])
            print(f"now = {clock.now} ({clock.format()})", file=out)
        else:
            print("usage: \\clock | \\clock +N | \\clock set DATE", file=out)

    def _catalog(self, out) -> None:
        catalog = self.server.catalog
        print("tables     :", ", ".join(catalog.table_names()) or "-", file=out)
        print("indices    :", ", ".join(catalog.index_names()) or "-", file=out)
        print(
            "access methods:",
            ", ".join(catalog.access_methods.names()) or "-",
            file=out,
        )
        print(
            "opclasses  :", ", ".join(catalog.opclasses.names()) or "-",
            file=out,
        )
        print("types      :", ", ".join(catalog.types.names()), file=out)

    # ------------------------------------------------------------------

    def interact(self) -> None:
        print("repro SQL shell -- \\help for commands, \\quit to leave")
        while True:
            try:
                line = input(self.PROMPT)
            except (EOFError, KeyboardInterrupt):
                print()
                return
            try:
                self.run_line(line)
            except EOFError:
                return

    def run_script(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            buffer: List[str] = []
            for raw in handle:
                line = raw.rstrip("\n")
                if line.strip().startswith("--"):
                    continue
                if line.strip().startswith("\\"):
                    self.run_line(line)
                    continue
                buffer.append(line)
                if line.rstrip().endswith(";"):
                    self.run_line(" ".join(buffer))
                    buffer = []
            if any(part.strip() for part in buffer):
                self.run_line(" ".join(buffer))


def _granularity(name: str) -> Granularity:
    return Granularity.DAY if name == "day" else Granularity.MONTH


def stats_main(argv: List[str], out=None) -> int:
    """The ``stats`` subcommand: run a workload, dump observability data.

    The ``onstat`` analogue for scripts and CI: the JSON output is the
    same data ``SHOW STATS JSON`` returns inside SQL.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli stats",
        description="run a SQL script and dump the observability registry",
    )
    parser.add_argument("-f", "--file", help="SQL script to run first")
    parser.add_argument(
        "--format",
        choices=["json", "text"],
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="include/print span trees instead of just the registry",
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition and exit",
    )
    parser.add_argument(
        "--granularity", choices=["day", "month"], default="day"
    )
    options = parser.parse_args(argv)
    if out is None:
        out = sys.stdout
    shell = Shell(_granularity(options.granularity))
    if options.spans:
        # Span trees are kept for traced statements: run the script as
        # one trace.
        shell.session.trace_id = secrets.token_hex(16)
    if options.file:
        shell.run_script(options.file)
    obs = shell.server.obs
    if options.prometheus:
        print(obs.prometheus(), file=out, end="")
    elif options.format == "json":
        payload = obs.to_dict()
        if not options.spans:
            payload.pop("spans", None)
        print(render(payload), file=out)
    else:
        print(obs.report(), file=out)
        if options.spans:
            print(obs.spans.format_trees(), file=out)
    return 0


def serve_main(argv: List[str], out=None) -> int:
    """The ``serve`` subcommand: run the concurrent serving layer.

    Boots a :class:`DatabaseServer`, optionally installs DataBlades and
    creates sbspaces, then serves TCP clients until interrupted.
    """
    from repro.net import NetServer

    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="serve the repro engine to concurrent TCP clients",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7478)
    parser.add_argument(
        "--workers", type=int, default=4, help="worker pool size"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission-control queue bound (overflow => SERVER_BUSY)",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=2.0,
        help="seconds a statement may wait for a conflicting lock",
    )
    parser.add_argument(
        "--install",
        action="append",
        default=[],
        choices=["grtree", "rtree", "btree", "gist", "hblade"],
        help="register a DataBlade at boot (repeatable)",
    )
    parser.add_argument(
        "--sbspace",
        action="append",
        default=[],
        metavar="NAME",
        help="create a smart-blob space at boot (repeatable)",
    )
    parser.add_argument("-f", "--file", help="SQL script to run at boot")
    parser.add_argument(
        "--event-log",
        metavar="PATH",
        help="append structured events (slow queries, errors) as JSONL",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        metavar="MS",
        help="log statements at or above this many milliseconds",
    )
    parser.add_argument(
        "--granularity", choices=["day", "month"], default="day"
    )
    parser.add_argument(
        "--simulated-io-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="simulated per-statement storage latency, slept under the "
        "engine lock (benchmarking aid for in-memory deployments)",
    )
    parser.add_argument(
        "--replica-of",
        metavar="HOST:PORT",
        help="run as a read replica of the primary at HOST:PORT "
        "(subscribes to its WAL stream; writes are rejected here)",
    )
    parser.add_argument(
        "--replica-name",
        metavar="NAME",
        help="name this replica reports to the primary "
        "(default: replica-<port>)",
    )
    parser.add_argument(
        "--no-replication",
        action="store_true",
        help="do not enable WAL shipping on a primary (replicas "
        "cannot subscribe; saves the logical-logging overhead)",
    )
    options = parser.parse_args(argv)
    if out is None:
        out = sys.stdout
    shell = Shell(_granularity(options.granularity))
    # A primary logs the full logical history from the first statement
    # (replicas bootstrap by replaying it from LSN 0), so shipping goes
    # on before any boot-time scripts run.  Replicas receive their state
    # from the stream instead of logging their own.
    if options.replica_of is None and not options.no_replication:
        shell.server.enable_wal_shipping()
    if options.simulated_io_ms:
        shell.server.simulated_io_s = options.simulated_io_ms / 1000.0
    if options.event_log:
        shell.server.obs.events.path = options.event_log
    if options.slow_query_ms is not None:
        shell.server.obs.events.slow_query_threshold_ms = options.slow_query_ms
    for name in options.sbspace:
        shell.server.create_sbspace(name)
    for blade in options.install:
        shell._install(blade, out)
    if options.file and options.replica_of is None:
        shell.run_script(options.file)
    server = NetServer(
        shell.server,
        host=options.host,
        port=options.port,
        workers=options.workers,
        queue_depth=options.queue_depth,
        lock_timeout=options.lock_timeout,
    ).start()
    link = None
    if options.replica_of:
        from repro.repl import ReplicaLink

        try:
            primary_host, primary_port = options.replica_of.rsplit(":", 1)
            primary_port = int(primary_port)
        except ValueError:
            print(f"error: --replica-of wants HOST:PORT, got "
                  f"{options.replica_of!r}", file=out)
            server.shutdown()
            return 2
        name = options.replica_name or f"replica-{server.port}"
        link = ReplicaLink(
            shell.server, primary_host, primary_port, name=name
        ).start()
        print(
            f"repro replica {name} serving on {server.host}:{server.port}, "
            f"streaming from {primary_host}:{primary_port}; Ctrl-C to stop",
            file=out,
        )
    else:
        print(
            f"repro serving on {server.host}:{server.port} "
            f"({server.workers} workers, queue {server.queue_depth}); "
            f"Ctrl-C to stop",
            file=out,
        )
    try:
        server.serve_forever()
    finally:
        if link is not None:
            link.stop()
        server.shutdown()
        print("server stopped", file=out)
    return 0


def connect_main(argv: List[str], out=None) -> int:
    """The ``connect`` subcommand: a remote SQL shell over the driver."""
    from repro.net import ReproClient, ReproClientError

    parser = argparse.ArgumentParser(
        prog="repro.cli connect",
        description="interactive SQL shell against a served repro engine",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7478)
    parser.add_argument("-e", "--execute", help="run one statement and exit")
    parser.add_argument("-f", "--file", help="run a SQL script and exit")
    options = parser.parse_args(argv)
    if out is None:
        out = sys.stdout
    client = ReproClient(options.host, options.port)
    try:
        client.connect()
    except ReproClientError as exc:
        print(f"error: {exc}", file=out)
        return 1

    def run(statement: str) -> None:
        statement = statement.strip().rstrip(";")
        if not statement:
            return
        try:
            _render_plain(client.execute(statement), out)
        except ReproClientError as exc:
            print(f"error: {exc}", file=out)

    with client:
        if options.execute:
            run(options.execute)
            return 0
        if options.file:
            with open(options.file, "r", encoding="utf-8") as handle:
                for statement in DatabaseServer._split_statements(handle.read()):
                    run(statement)
            return 0
        print(
            f"connected to {options.host}:{options.port} "
            f"(connection {client.connection_id}); \\quit to leave",
            file=out,
        )
        while True:
            try:
                line = input(f"repro@{options.port}> ")
            except (EOFError, KeyboardInterrupt):
                print(file=out)
                return 0
            if line.strip().lower() in ("\\q", "\\quit", "\\exit"):
                return 0
            run(line)
    return 0


def _render_plain(result: Any, out) -> None:
    """Render a wire-decoded result (all cells already text-safe)."""
    if isinstance(result, list):
        if not result:
            print("(no rows)", file=out)
            return
        columns = list(result[0].keys())
        rendered = [{c: str(row[c]) for c in columns} for row in result]
        widths = {
            c: max(len(c), *(len(r[c]) for r in rendered)) for c in columns
        }
        print(" | ".join(c.ljust(widths[c]) for c in columns), file=out)
        print("-+-".join("-" * widths[c] for c in columns), file=out)
        for row in rendered:
            print(
                " | ".join(row[c].ljust(widths[c]) for c in columns), file=out
            )
        print(f"({len(result)} row(s))", file=out)
    else:
        print(result, file=out)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "connect":
        return connect_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(description="repro SQL shell")
    parser.add_argument("-f", "--file", help="run a SQL script and exit")
    parser.add_argument(
        "--granularity",
        choices=["day", "month"],
        default="day",
        help="chronon granularity of the server clock",
    )
    options = parser.parse_args(argv)
    shell = Shell(_granularity(options.granularity))
    if options.file:
        shell.run_script(options.file)
        return 0
    shell.interact()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
