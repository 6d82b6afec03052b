"""Server process of the serving workloads.

Started by the load process as ``python3 -m perfbench.server_main
'<ServiceConfig fields as JSON>'``; builds ``MembershipGateway.from_config`` behind a
``MembershipServer``, prints ``{"port": N}`` on stdout, then obeys one
JSON command per stdin line, answering each with one JSON line:

* ``{"cmd": "speed_on"}`` starts taking machine-speed yardstick samples
  (:class:`~perfbench.speed.Sampler`) on the server's event loop, as the
  server also does from the moment it listens;
* ``{"cmd": "speed_off"}`` stops and answers with the samples;
* ``{"cmd": "trace_on"}`` installs the span wrappers of
  :data:`~perfbench.tracing.SERVER_LAYERS` into this process;
* ``{"cmd": "trace_off", "path": p}`` removes them, writes the raw spans
  to ``p`` and answers with the per-layer summary and this process's CPU
  time over the traced window;
* ``{"cmd": "quit"}`` (or end of stdin) stops the server and exits.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time


async def _serve(config: dict) -> None:
    from perfbench.speed import Sampler
    from perfbench.tracing import SERVER_LAYERS, Tracer, install
    from repro.service.config import ServiceConfig
    from repro.service.gateway import MembershipGateway
    from repro.service.server import MembershipServer

    service = ServiceConfig(**config)
    gateway = MembershipGateway.from_config(service)
    server = MembershipServer(gateway, pipeline_depth=service.pipeline_depth)
    _, port = await server.start()
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line)
        loop.call_soon_threadsafe(commands.put_nowait, None)

    threading.Thread(target=read_stdin, daemon=True).start()
    # Samples from here to the first speed_off cover the set-up.
    sampler = Sampler()
    print(json.dumps({"port": port}), flush=True)
    tracer = installation = None
    cpu_start = 0.0
    try:
        while True:
            line = await commands.get()
            command = json.loads(line) if line else {"cmd": "quit"}
            cmd = command["cmd"]
            if cmd == "quit":
                break
            if cmd == "speed_on":
                sampler = Sampler()
                reply = {"ok": True}
            elif cmd == "speed_off":
                reply = {"ok": True, "samples": await sampler.stop()}
            elif cmd == "trace_on":
                tracer = Tracer()
                installation = install(tracer, SERVER_LAYERS)
                cpu_start = time.process_time()
                reply: dict = {"ok": True}
            elif cmd == "trace_off":
                cpu_ns = int((time.process_time() - cpu_start) * 1e9)
                installation.remove()
                tracer.write(command["path"])
                reply = {"ok": True, "cpu_ns": cpu_ns, **tracer.summary()}
            else:
                reply = {"ok": False, "error": f"unknown command {cmd!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        await server.aclose()
        gateway.close()


def main() -> None:
    asyncio.run(_serve(json.loads(sys.argv[1])))


if __name__ == "__main__":
    main()
