"""``repro-registry`` command line interface.

Subcommands::

    repro-registry serve [--host H] [--port P] [--no-seed] [--max-queue N]
    repro-registry list --url URL
    repro-registry publish <name> <file.xml> --url URL
    repro-registry fetch <ref> --url URL [-o out.xml]
    repro-registry preselect <platform-ref> <program.c> --url URL
    repro-registry diff <old-ref> <new-ref> --url URL
    repro-registry metrics --url URL

``serve`` runs the asyncio server in the foreground (seeded with the
shipped catalog unless ``--no-seed``); every other subcommand is a thin
:class:`~repro.service.client.RegistryClient` call against ``--url``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.errors import ReproError

__all__ = ["main", "build_arg_parser"]

_DEFAULT_URL = "http://127.0.0.1:8787"


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-registry",
        description="Platform registry service: PDL store + remote selection API",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the registry server (foreground)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--no-seed",
        action="store_true",
        help="do not pre-publish the shipped descriptor catalog",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="max queued+in-flight requests before 429 (default 64)",
    )
    serve.add_argument(
        "--threads", type=int, default=4, help="store worker threads (default 4)"
    )

    def client_parser(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--url", default=_DEFAULT_URL, help="registry base URL")
        return p

    client_parser("list", "list stored platforms (tags and digests)")

    publish = client_parser("publish", "publish a descriptor file under a tag")
    publish.add_argument("name", help="tag to publish under")
    publish.add_argument("file", help="PDL XML file")

    fetch = client_parser("fetch", "fetch a stored descriptor")
    fetch.add_argument("ref", help="tag, digest, or digest prefix")
    fetch.add_argument("-o", "--output", help="write XML here instead of stdout")

    preselect = client_parser(
        "preselect", "run Cascabel variant pre-selection remotely"
    )
    preselect.add_argument("platform", help="target platform ref")
    preselect.add_argument("program", help="annotated C/C++ translation unit")
    preselect.add_argument(
        "--expert-variants",
        action="store_true",
        help="also register the builtin expert variants (CUBLAS/SPE)",
    )
    preselect.add_argument(
        "--no-require-fallback",
        action="store_true",
        help="do not demand a sequential fallback per interface",
    )

    diff = client_parser("diff", "structural diff of two stored versions")
    diff.add_argument("old")
    diff.add_argument("new")

    client_parser("metrics", "print the service metrics snapshot")
    return parser


def _serve(args) -> int:
    # imported lazily so client subcommands stay cheap
    from repro.service.server import RegistryServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        executor_threads=args.threads,
    )
    server = RegistryServer(config=config, seed_catalog=not args.no_seed)

    async def run() -> None:
        await server.start()
        print(
            f"repro-registry serving on {server.base_url}"
            f" ({len(server.store.tags())} platforms seeded)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("registry stopped", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.command == "serve":
        return _serve(args)

    from repro.service.client import RegistryClient

    client = RegistryClient(args.url)
    try:
        if args.command == "list":
            for entry in client.platforms():
                print(f"{entry['digest'][:12]}  {entry['name']}")
            return 0

        if args.command == "publish":
            with open(args.file, "r", encoding="utf-8") as handle:
                result = client.publish(args.name, handle.read())
            state = "new version" if result["created"] else "already stored"
            moved = ", tag moved" if result["moved"] else ""
            print(f"{result['digest'][:12]}  {result['name']} ({state}{moved})")
            return 0

        if args.command == "fetch":
            record = client.fetch(args.ref)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(record["xml"])
                print(f"wrote {record['digest'][:12]} to {args.output}")
            else:
                print(record["xml"], end="")
            return 0

        if args.command == "preselect":
            with open(args.program, "r", encoding="utf-8") as handle:
                source = handle.read()
            result = client.preselect(
                args.platform,
                source,
                expert_variants=args.expert_variants,
                require_fallback=not args.no_require_fallback,
            )
            report = result["report"]
            origin = "cache" if result["cached"] else "computed"
            print(
                f"selection for {report['platform']!r}"
                f" [{report['digest'][:12]}] ({origin}):"
            )
            for interface, variants in report["selected"].items():
                names = ", ".join(
                    f"{v['name']}({'/'.join(v['targets'])})" for v in variants
                )
                print(f"  {interface}: {names}")
            for name, reason in report["pruned"].items():
                print(f"  pruned {name}: {reason}")
            return 0

        if args.command == "diff":
            payload = client.diff(args.old, args.new)
            if payload["identical"]:
                print("no differences")
            for change in payload["changes"]:
                detail = f": {change['detail']}" if change["detail"] else ""
                print(f"[{change['kind']}] {change['subject']}{detail}")
            return 0

        if args.command == "metrics":
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
