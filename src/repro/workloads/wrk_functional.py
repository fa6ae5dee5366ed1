"""A functional wrk: drives the real HTTP stack and reports a latency
histogram measured in *simulated* time.

Complements the closed-loop clients of :mod:`repro.workloads.clients`
(which price a profile analytically): here every request actually
flows — connect, parse, RamFS read, respond — and the per-request
latency is the simulated time the whole path consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.guest.kernel import GuestKernel
from repro.guest.netstack import NetDevice
from repro.guest.socket import VirtualNetwork
from repro.perf.clock import SimClock
from repro.perf.stats import RunStats
from repro.workloads.http import HttpClient, StaticHttpServer


@dataclass
class WrkRunReport:
    requests: int
    errors: int
    duration_ms: float
    throughput_rps: float
    latency_us: RunStats


class FunctionalWrk:
    """Synchronous closed-loop driver over the functional HTTP stack."""

    def __init__(
        self,
        server_device: NetDevice = NetDevice.BRIDGE,
        page_bytes: int = 4096,
        path: str = "/index.html",
        clock: SimClock | None = None,
        telemetry=None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.network = VirtualNetwork(clock=self.clock)
        server_kernel = GuestKernel(clock=self.clock,
                                    net_device=server_device)
        self.server = StaticHttpServer(server_kernel, self.network)
        self.server.publish(path, b"x" * page_bytes)
        self.path = path
        client_kernel = GuestKernel(clock=self.clock)
        self.client = HttpClient(
            client_kernel, self.network, self.server.handle_one
        )
        #: Optional :class:`repro.obs.Registry` with a span recorder;
        #: when set, :meth:`run` records a per-request latency histogram
        #: and an ``http.request`` span per request, and the server's and
        #: server kernel netstack's counters are bound lazily.
        self.telemetry = telemetry
        if telemetry is not None:
            from repro.obs import wire

            wire.wire_http_server(telemetry, self.server)
            wire.wire_netstack(telemetry, server_kernel.netstack)

    def run(self, requests: int = 100) -> WrkRunReport:
        if requests < 1:
            raise ValueError(f"requests must be >= 1: {requests}")
        latencies = RunStats("us")
        latency_hist = None
        if self.telemetry is not None:
            latency_hist = self.telemetry.histogram(
                "net_http_request_latency_ns",
                help="simulated end-to-end HTTP request latency",
            )
        errors = 0
        start_ns = self.clock.now_ns
        for _ in range(requests):
            before = self.clock.now_ns
            if self.telemetry is not None:
                with self.telemetry.span("http.request", path=self.path):
                    status, _body = self.client.get(
                        ("10.0.0.1", 80), self.path
                    )
            else:
                status, _body = self.client.get(("10.0.0.1", 80), self.path)
            if status != 200:
                errors += 1
            latency = self.clock.now_ns - before
            latencies.add(latency / 1e3)
            if latency_hist is not None:
                latency_hist.observe(latency)
        duration_ns = self.clock.now_ns - start_ns
        return WrkRunReport(
            requests=requests,
            errors=errors,
            duration_ms=duration_ns / 1e6,
            throughput_rps=requests / (duration_ns / 1e9),
            latency_us=latencies,
        )
