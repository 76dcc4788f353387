// Traffic redirection experiments:
// Fig 21/22: iptables redirection costs two extra kernel passes + context
//            switches per segment; raw eBPF loses Nagle so 16-byte writes
//            at 4 kRPS context-switch per write — the in-proxy Nagle
//            aggregator restores batching.
// Fig 29/30: Netperf-style sweep of eBPF vs iptables redirection across
//            packet sizes: throughput +1.3x-2.3x (larger gain for larger
//            packets), latency -55%-66%.
#include <cstdio>

#include "bench/harness.h"
#include "proxy/cost_model.h"
#include "proxy/nagle.h"

namespace canal::bench {
namespace {

void fig21_fig22() {
  // 16-byte app writes at 4 kRPS (the paper's small-packet pathology).
  constexpr double kWriteRps = 4000.0;
  constexpr std::uint64_t kWriteBytes = 16;
  constexpr double kSeconds = 1.0;
  const proxy::ProxyCostModel costs;

  auto run_case = [&](bool use_nagle) {
    sim::EventLoop loop;
    std::uint64_t segments = 0;
    proxy::NagleBuffer nagle(loop, costs.mss_bytes, sim::milliseconds(1),
                             [&](std::uint64_t, std::uint32_t) {
                               ++segments;
                             });
    const auto writes = static_cast<std::uint64_t>(kWriteRps * kSeconds);
    for (std::uint64_t i = 0; i < writes; ++i) {
      loop.post_at(
          static_cast<sim::Duration>(i) *
              static_cast<sim::Duration>(sim::kSecond / kWriteRps),
          [&] {
            if (use_nagle) {
              nagle.write(kWriteBytes);
            } else {
              ++segments;  // every write is its own segment
            }
          });
    }
    loop.run();
    return segments;
  };

  const std::uint64_t raw_segments = run_case(false);
  const std::uint64_t nagle_segments = run_case(true);

  Table table("Fig 22: context switches for 16B writes at 4kRPS");
  table.header({"redirection", "segments/s", "ctx switches/s",
                "redirect cpu"});
  auto row = [&](const char* name, proxy::RedirectMode mode,
                 std::uint64_t segments) {
    // One context switch per segment crossing into the proxy.
    const double cost_us = sim::to_microseconds(costs.redirect_cost(
        mode, static_cast<std::uint64_t>(kWriteRps * kWriteBytes), segments));
    table.row({name, fmt("%.0f", static_cast<double>(segments)),
               fmt("%.0f", static_cast<double>(segments)),
               fmt("%.0f us/s", cost_us)});
  };
  row("iptables (kernel Nagle)", proxy::RedirectMode::kIptables,
      nagle_segments);
  row("eBPF raw (no Nagle)", proxy::RedirectMode::kEbpf, raw_segments);
  row("eBPF + in-proxy Nagle", proxy::RedirectMode::kEbpf, nagle_segments);
  table.print();
  std::printf(
      "  -> raw eBPF context-switches per 16B write (%.0fx more); the "
      "aggregator restores kernel-Nagle batching\n",
      static_cast<double>(raw_segments) /
          static_cast<double>(nagle_segments));
}

void fig29_fig30() {
  const proxy::ProxyCostModel costs;
  Table table("Fig 29/30: eBPF vs iptables redirection by packet size");
  table.header({"payload", "iptables cpu", "ebpf cpu", "throughput gain",
                "latency cut"});
  for (const std::uint64_t bytes : {64u, 500u, 1500u, 4096u, 16384u}) {
    const std::uint64_t segments = bytes / costs.mss_bytes + 1;
    const double iptables_us = sim::to_microseconds(
        costs.redirect_cost(proxy::RedirectMode::kIptables, bytes, segments));
    double ebpf_us = sim::to_microseconds(
        costs.redirect_cost(proxy::RedirectMode::kEbpf, bytes, segments));
    // Sub-MSS payloads must be aggregated in the proxy before eBPF
    // redirection (§4.1.2); each buffered write costs a small copy. The
    // kernel path gets Nagle for free — this is why the paper's gain is
    // smaller for small packets.
    if (bytes < costs.mss_bytes) {
      const double writes_per_segment =
          static_cast<double>(costs.mss_bytes) / static_cast<double>(bytes);
      ebpf_us += writes_per_segment * 0.5;
    }
    // Work both paths pay regardless of redirection: the app's own kernel
    // egress + the proxy's forward + the copy of each segment.
    const double common_us = sim::to_microseconds(
        static_cast<sim::Duration>(segments) *
            (2 * costs.kernel_pass + costs.l4_forward) +
        costs.memcpy_cost(bytes));
    const double throughput_gain =
        (iptables_us + common_us) / (ebpf_us + common_us);
    // Serialized path delay: redirection plus one unavoidable kernel pass.
    const double kernel_us = sim::to_microseconds(
        static_cast<sim::Duration>(segments) * costs.kernel_pass);
    const double latency_cut =
        1.0 - (ebpf_us + kernel_us) / (iptables_us + kernel_us);
    table.row({fmt("%.0f B", static_cast<double>(bytes)),
               fmt("%.1f us", iptables_us + common_us),
               fmt("%.1f us", ebpf_us + common_us), fmt_x(throughput_gain),
               fmt_pct(latency_cut)});
  }
  table.print();
  std::printf(
      "  paper: throughput 1.3x (small) to ~2.3x (large packets); latency "
      "-55%%-66%%\n");
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig21_fig22();
  canal::bench::fig29_fig30();
  return 0;
}
