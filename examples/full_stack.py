#!/usr/bin/env python3
"""Full-stack scenario: everything working together, functionally.

No cost-model shortcuts here — actual requests flow through actual
components:

1. the Docker wrapper boots an NGINX image as an X-Container whose
   X-LibOS spawns the entrypoint directly;
2. a functional HTTP server serves pages out of that X-LibOS's RamFS
   over the virtual network to a wrk-style client;
3. a PHP+MiniDB pair renders dynamic pages in the Dedicated and Merged
   (same-container loopback) deployments of Figure 7, showing the
   simulated-time gap the paper's Fig 6c measures.

Run: ``python examples/full_stack.py``
"""

from repro.core import DockerImage, DockerWrapper
from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, HypercallMmu
from repro.guest.socket import VirtualNetwork
from repro.perf.clock import SimClock
from repro.workloads.http import HttpClient, StaticHttpServer
from repro.workloads.php_mysql_app import (
    build_dedicated_deployment,
    build_merged_deployment,
)


def serve_static_site() -> None:
    print("=" * 64)
    print("1. image -> X-Container -> HTTP served over the virtual net")
    wrapper = DockerWrapper(fast_toolstack=True)
    kernel = GuestKernel(
        KernelConfig.xlibos(),
        wrapper.costs,
        wrapper.clock,
        mmu=HypercallMmu(wrapper.costs, wrapper.clock),
    )
    container, timing = wrapper.spawn(
        DockerImage("nginx", "/usr/sbin/nginx"), services=kernel
    )
    # The bootloader spawns the entrypoint process directly (§4.5).
    kernel.spawn("/usr/sbin/nginx")
    print(f"   spawned {container.name} in {timing.total_ms:.0f} ms "
          f"(boot {timing.boot_ms:.0f} ms)")
    network = VirtualNetwork(clock=container.clock)
    server = StaticHttpServer(kernel, network, ("10.0.0.1", 80))
    server.publish("/index.html", b"<h1>served from an X-Container</h1>")
    client_kernel = GuestKernel(clock=container.clock)
    client = HttpClient(client_kernel, network, server.handle_one)
    for path in ("/index.html", "/index.html", "/missing.html"):
        status, body = client.get(("10.0.0.1", 80), path)
        print(f"   GET {path:14s} -> {status} ({len(body)} bytes)")
    print(f"   server stats: {server.stats.requests} requests, "
          f"{server.stats.errors} errors, "
          f"{server.stats.bytes_served} bytes")


def dynamic_pages() -> None:
    print("=" * 64)
    print("2. PHP + MiniDB: Dedicated vs Dedicated&Merged (Fig 7)")
    pages = 25
    dedicated_clock = SimClock()
    php_d, mysql_d = build_dedicated_deployment(dedicated_clock)
    for _ in range(pages):
        php_d.render_page()
    merged_clock = SimClock()
    php_m, mysql_m = build_merged_deployment(merged_clock)
    for _ in range(pages):
        php_m.render_page()
    d_us = dedicated_clock.now_us / pages
    m_us = merged_clock.now_us / pages
    print(f"   dedicated: {d_us:8.1f} us/page "
          f"({mysql_d.queries_served} queries over the virtual network)")
    print(f"   merged   : {m_us:8.1f} us/page "
          f"({mysql_m.queries_served} queries over loopback)")
    print(f"   merging PHP+MySQL into one container: "
          f"{d_us / m_us:.2f}x cheaper per page "
          "(the §5.5 Dedicated&Merged effect)")


if __name__ == "__main__":
    serve_static_site()
    dynamic_pages()
