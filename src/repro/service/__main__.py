"""CLI for the evaluation service: ``python -m repro.service ...``.

Three subcommands:

* ``serve`` — run an :class:`~repro.service.server.EvalServer` in the
  foreground (Ctrl-C to stop; ``--stats-every`` prints live stats);
* ``ping`` — health-check a running server and print its stats;
* ``loadtest`` — run the synthetic coalescing-vs-solo load harness
  against in-process servers and print its summary (``--out FILE``
  also writes the JSON payload); with ``--chaos``, run the
  fault-injection harness instead (exit 1 unless every response was
  exact-or-typed).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..engine.plan import ExecPlan
from .server import EvalServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Arithmetic-as-a-service over the repro execution "
                    "plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the evaluation server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421)
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="microbatch hold window (default: 2ms)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="flush-on-full group size (1 disables "
                            "coalescing)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission bound before 429s")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the .repro-cache request dedupe")
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--serial", action="store_true",
                       help="run kernels through the scalar baseline "
                            "plan")
    serve.add_argument("--stats-every", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print live stats at this interval")

    ping = sub.add_parser("ping", help="health-check a running server")
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, default=8421)
    ping.add_argument("--stats", action="store_true",
                      help="also print the server's /v1/stats payload")

    load = sub.add_parser("loadtest",
                          help="run the coalescing load harness "
                               "(in-process servers)")
    load.add_argument("--scale", type=float, default=1.0,
                      help="traffic scale factor (clients x requests)")
    load.add_argument("--format", default="binary64")
    load.add_argument("--shape", type=int, nargs=3, default=(8, 8, 96),
                      metavar=("H", "M", "T"))
    load.add_argument("--window-ms", type=float, default=5.0)
    load.add_argument("--max-batch", type=int, default=64)
    load.add_argument("--chaos", action="store_true",
                      help="run the fault-injection chaos harness "
                           "instead of the coalescing comparison; "
                           "exits 1 if any response was neither the "
                           "exact fault-free values nor a typed error")
    load.add_argument("--chaos-seed", type=int, default=1234,
                      help="fault-plan seed (same seed, same schedule)")
    load.add_argument("--out", default="-",
                      help="file to write the JSON payload to (default "
                           "'-': print the summary only)")
    return parser


def _write_payload(payload: dict, out: str) -> None:
    if out != "-":
        with open(out, "w") as f:
            json.dump(payload, f, indent=1)
        print(f"wrote {out}")


async def _serve(server: EvalServer, args) -> int:
    await server.start()
    print(f"serving on {server.address} "
          f"(window {args.window_ms}ms, max_batch {args.max_batch})")

    async def stats_loop():
        while True:
            await asyncio.sleep(args.stats_every)
            s = server.stats()
            print(f"requests={s['requests']} errors={s['errors']} "
                  f"p50={s['latency_ms']['p50']:.2f}ms "
                  f"p99={s['latency_ms']['p99']:.2f}ms "
                  f"coalescing={s['coalescing']['factor']:.2f}")

    ticker = (asyncio.get_running_loop().create_task(stats_loop())
              if args.stats_every > 0 else None)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if ticker is not None:
            ticker.cancel()
        await server.stop()
    return 0


async def _ping(args) -> int:
    from .client import ServiceClient
    # Patient connect budget (~15s of backoff): `serve & ping` in a CI
    # step works without a sleep-poll loop around the ping.
    async with ServiceClient(args.host, args.port, timeout_s=10.0,
                             connect_retries=30, backoff_s=0.1,
                             backoff_max_s=1.0) as client:
        health = await client.healthz()
        print(json.dumps(health))
        if args.stats:
            print(json.dumps(await client.stats(), indent=1))
    return 0 if health.get("ok") else 1


def _chaos(args) -> int:
    from .loadgen import run_chaos
    h, m, t = args.shape
    scale = max(args.scale, 0.125)
    payload = asyncio.run(run_chaos(
        clients=max(4, int(round(8 * scale))),
        requests_per_client=max(3, int(round(6 * scale))),
        format=args.format, h=h, m=m, t=t,
        window_s=args.window_ms / 1e3, max_batch=args.max_batch,
        chaos_seed=args.chaos_seed))
    report = payload["results"]["chaos"]
    print(f"chaos: {report['requests']} requests -> "
          f"{report['ok']} ok, "
          f"{sum(report['typed_errors'].values())} typed errors "
          f"{report['typed_errors']}, "
          f"{report['mismatches']} mismatches, "
          f"{sum(report['untyped_errors'].values())} untyped")
    print(f"injected: {report['injected']} "
          f"(dropped {report['dropped_connections']} connections, "
          f"shed {report['shed']})")
    _write_payload(payload, args.out)
    if not report["invariant_ok"]:
        print("chaos invariant VIOLATED: some response was neither the "
              "exact fault-free values nor a typed error",
              file=sys.stderr)
        return 1
    print("chaos invariant held: every response was exact-or-typed")
    return 0


def _loadtest(args) -> int:
    from .loadgen import compare_coalescing
    if args.chaos:
        return _chaos(args)
    h, m, t = args.shape
    payload = compare_coalescing(scale=args.scale, format=args.format,
                                 h=h, m=m, t=t,
                                 window_s=args.window_ms / 1e3,
                                 max_batch=args.max_batch)
    headline = payload["results"]["forward_coalescing"]
    print(f"solo:      {headline['solo']['throughput_rps']:9.1f} req/s "
          f"(p50 {headline['solo']['p50_ms']:.2f}ms, "
          f"p99 {headline['solo']['p99_ms']:.2f}ms)")
    print(f"coalesced: "
          f"{headline['coalesced']['throughput_rps']:9.1f} req/s "
          f"(p50 {headline['coalesced']['p50_ms']:.2f}ms, "
          f"p99 {headline['coalesced']['p99_ms']:.2f}ms, "
          f"factor {headline['coalesced']['coalescing_factor']:.1f})")
    print(f"speedup:   {headline['speedup']:.2f}x")
    _write_payload(payload, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        plan = ExecPlan.serial() if args.serial else ExecPlan()
        try:
            server = EvalServer(
                args.host, args.port, window_s=args.window_ms / 1e3,
                max_batch=args.max_batch, max_queue=args.max_queue,
                plan=plan, cache="off" if args.no_cache else "auto",
                cache_dir=args.cache_dir)
        except ValueError as exc:
            parser.error(str(exc))
        try:
            return asyncio.run(_serve(server, args))
        except KeyboardInterrupt:
            return 0
    if args.command == "ping":
        from .api import ServiceError
        try:
            return asyncio.run(_ping(args))
        except (ServiceError, OSError, asyncio.TimeoutError) as exc:
            print(f"ping failed: {exc}", file=sys.stderr)
            return 1
    return _loadtest(args)


if __name__ == "__main__":
    sys.exit(main())
