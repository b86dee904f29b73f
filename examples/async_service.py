#!/usr/bin/env python3
"""The asyncio front end of the execution service, end to end.

Fans ``--repeat`` copies of one edge-detection compile request through
:class:`repro.AsyncExecutionService` and collects the awaitable tickets
with a single ``asyncio.gather``.  The service core is the same one
``repro submit`` drives, so the copies share one compile: the output
shows, per ticket, which request it was deduplicated from (or batched
with).  ``--shards N`` runs the same program against the multi-process
fleet.

Run:  python examples/async_service.py --repeat 8
"""

import argparse
import asyncio

from repro import AsyncExecutionService, ServiceConfig, ServiceRequest
from repro.gpusim import TESLA_C870, XEON_WORKSTATION
from repro.templates import find_edges_graph


async def gather(request: ServiceRequest, repeat: int, shards: int):
    async with AsyncExecutionService(ServiceConfig(), shards=shards) as svc:
        tickets = await svc.submit_all([request] * repeat)
        responses = await asyncio.wait_for(asyncio.gather(*tickets), 300)
        return tickets, responses, svc.core.metrics_snapshot()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=8,
                        help="concurrent copies of the request")
    parser.add_argument("--size", type=int, default=512,
                        help="square image side in pixels")
    parser.add_argument("--shards", type=int, default=0,
                        help="worker processes (0 = one in-process service)")
    args = parser.parse_args()

    request = ServiceRequest(
        template=find_edges_graph(args.size, args.size, 16, 4),
        device=TESLA_C870,
        host=XEON_WORKSTATION,
        label="edge",
    )
    tickets, responses, snapshot = asyncio.run(
        gather(request, args.repeat, args.shards)
    )
    print(f"gathered {len(responses)} awaitable tickets via asyncio.gather:")
    for ticket, resp in zip(tickets, responses):
        if resp.deduped_from is not None:
            share = f"deduped from request {resp.deduped_from}"
        elif resp.batched:
            share = "batched with " + ", ".join(map(str, resp.batched_with))
        else:
            share = resp.planner_used or (resp.error or "")[:48]
        print(f"  ticket {ticket.id:>3} {resp.status.value:9s} "
              f"wait={resp.wait_seconds * 1e3:7.2f}ms "
              f"svc={resp.service_seconds * 1e3:7.2f}ms  {share}")
    counters = snapshot.get("counters", {})
    print(f"compiles: {counters.get('service.compiles', 0)}, "
          f"dedupe hits: {counters.get('service.dedupe_hits', 0)}, "
          f"batches: {counters.get('service.batches', 0)}")
    return 0 if all(r.ok for r in responses) else 1


if __name__ == "__main__":
    raise SystemExit(main())
