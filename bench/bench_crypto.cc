// Crypto offloading experiments:
// Fig 12:    on-node proxy CPU saving from crypto offload (local AVX-512
//            vs remote key server; paper: 43%-70% and 62%-70%).
// Fig 23:    asymmetric-op completion time: local accel ~1 ms, remote key
//            server ~1.7 ms (stable), software ~2 ms.
// Fig 25:    AVX-512 batch pathology: throughput/latency degrade below 8
//            concurrent new connections.
// Fig 27/28: HTTPS short-flow throughput (+1.6x-1.8x) and latency
//            (-53%-60%) with offloading as the proxy saturates.
#include <cstdio>

#include "bench/harness.h"
#include "crypto/accelerator.h"
#include "crypto/keyserver.h"

namespace canal::bench {
namespace {

enum class OffloadMode { kNone, kLocalAccel, kRemoteKeyServer };

const char* mode_name(OffloadMode mode) {
  switch (mode) {
    case OffloadMode::kNone: return "no offloading";
    case OffloadMode::kLocalAccel: return "local AVX-512";
    case OffloadMode::kRemoteKeyServer: return "remote key server";
  }
  return "?";
}

/// HTTPS short-flow load through one 2-core on-node proxy with the chosen
/// asymmetric-crypto path. Returns {P90 latency us, proxy CPU cores used,
/// completed requests}.
struct CryptoRun {
  double p90_us = 0;
  double proxy_cores = 0;
  std::uint64_t completed = 0;
};

CryptoRun run_https_load(OffloadMode mode, double rps, double seconds,
                         std::size_t cores = 2,
                         double resumption_fraction = 0.0) {
  sim::EventLoop loop;
  sim::CpuSet proxy_cpu(loop, cores);
  crypto::CryptoCostModel model;
  crypto::AsymmetricAccelerator local_soft(loop, proxy_cpu,
                                           crypto::AccelMode::kSoftware,
                                           model);
  crypto::AsymmetricAccelerator local_accel(loop, proxy_cpu,
                                            crypto::AccelMode::kBatched,
                                            model);
  crypto::KeyServer key_server(loop, static_cast<net::AzId>(0), 16,
                               sim::Rng(11), model);
  key_server.establish_channel("bench");
  key_server.store_private_key("spiffe://t/bench", 0x5EED);
  sim::CpuSet client_fallback(loop, 1);
  crypto::KeyServerClient::Config client_config;
  client_config.requester_id = "bench";
  client_config.model = model;
  crypto::KeyServerClient client(loop, client_fallback, client_config,
                                 sim::Rng(12));
  client.attach_server(&key_server);

  // Keep the key server's batches warm, as production consolidation does.
  sim::PeriodicTimer background(loop, sim::microseconds(200), [&] {
    key_server.handle_sign("bench", "spiffe://t/bench", "bg",
                           [](auto) {});
  });
  if (mode == OffloadMode::kRemoteKeyServer) background.start();

  CryptoRun result;
  sim::Histogram latency;
  std::uint64_t flow_counter = 0;
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  const auto count = static_cast<std::uint64_t>(rps * seconds);
  for (std::uint64_t i = 0; i < count; ++i) {
    loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
      const sim::TimePoint start = loop.now();
      const bool resumed =
          resumption_fraction > 0.0 &&
          (static_cast<double>(flow_counter++ % 100) <
           resumption_fraction * 100.0);
      // Each HTTPS short flow: one asymmetric handshake + ~1.2ms of TLS
      // session setup, symmetric record crypto, L4 proxying and teardown.
      auto finish = [&, start, deadline = static_cast<sim::TimePoint>(
                                    seconds *
                                    static_cast<double>(sim::kSecond))] {
        proxy_cpu.execute(
            sim::microseconds(1200) + model.symmetric_cost(4096),
            [&, start, deadline] {
              // Only flows completing within the measurement window count
              // toward throughput (goodput under overload).
              if (loop.now() <= deadline) {
                latency.record(sim::to_microseconds(loop.now() - start));
                ++result.completed;
              }
            });
      };
      if (resumed) {
        // TLS session resumption: no asymmetric work at all.
        finish();
        return;
      }
      switch (mode) {
        case OffloadMode::kNone:
          local_soft.submit(finish);
          break;
        case OffloadMode::kLocalAccel:
          local_accel.submit(finish);
          break;
        case OffloadMode::kRemoteKeyServer:
          client.sign("spiffe://t/bench", "hs", [finish](auto) { finish(); });
          break;
      }
    });
  }
  loop.run_until(static_cast<sim::Duration>(seconds * 1.5 *
                                            static_cast<double>(sim::kSecond)));
  background.stop();
  loop.run();
  result.p90_us = latency.percentile(90);
  result.proxy_cores = proxy_cpu.total_busy_core_seconds() / (seconds * 1.5);
  return result;
}

void fig12() {
  Table table("Fig 12: on-node proxy CPU saving from crypto offloading");
  table.header({"handshake rps", "no offload", "local accel", "remote ks",
                "local saving", "remote saving"});
  for (const double rps : {200.0, 400.0, 600.0}) {
    const auto none = run_https_load(OffloadMode::kNone, rps, 3.0);
    const auto local = run_https_load(OffloadMode::kLocalAccel, rps, 3.0);
    const auto remote = run_https_load(OffloadMode::kRemoteKeyServer, rps, 3.0);
    table.row({fmt("%.0f", rps), fmt("%.2f cores", none.proxy_cores),
               fmt("%.2f cores", local.proxy_cores),
               fmt("%.2f cores", remote.proxy_cores),
               fmt_pct(1.0 - local.proxy_cores / none.proxy_cores),
               fmt_pct(1.0 - remote.proxy_cores / none.proxy_cores)});
  }
  table.print();
  std::printf("  paper: local 43%%-70%%, remote 62%%-70%% CPU reduction\n");
}

void fig23() {
  Table table("Fig 23: asymmetric-crypto completion time by offload mode");
  table.header({"handshake rps", "software", "local accel", "remote ks"});
  for (const double rps : {100.0, 500.0, 2000.0}) {
    auto completion = [&](OffloadMode mode) -> double {
      sim::EventLoop loop;
      sim::CpuSet cpu(loop, 8);
      crypto::CryptoCostModel model;
      crypto::AsymmetricAccelerator accel(
          loop, cpu,
          mode == OffloadMode::kNone ? crypto::AccelMode::kSoftware
                                     : crypto::AccelMode::kBatched,
          model);
      crypto::KeyServer ks(loop, static_cast<net::AzId>(0), 16, sim::Rng(13),
                           model);
      ks.establish_channel("b");
      ks.store_private_key("id", 7);
      sim::CpuSet fallback(loop, 1);
      crypto::KeyServerClient::Config cc;
      cc.requester_id = "b";
      cc.model = model;
      crypto::KeyServerClient client(loop, fallback, cc, sim::Rng(14));
      client.attach_server(&ks);
      // Key server sees aggregate load from many tenants: keep it warm.
      sim::PeriodicTimer background(loop, sim::microseconds(150), [&] {
        ks.handle_sign("b", "id", "bg", [](auto) {});
      });
      if (mode == OffloadMode::kRemoteKeyServer) background.start();

      sim::Histogram latency;
      const auto spacing = static_cast<sim::Duration>(
          static_cast<double>(sim::kSecond) / rps);
      for (int i = 0; i < 400; ++i) {
        loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
          const sim::TimePoint start = loop.now();
          auto record = [&, start] {
            latency.record(sim::to_microseconds(loop.now() - start));
          };
          if (mode == OffloadMode::kRemoteKeyServer) {
            client.sign("id", "t", [record](auto) { record(); });
          } else {
            accel.submit(record);
          }
        });
      }
      loop.run_until(sim::seconds(5));
      background.stop();
      loop.run();
      return latency.mean() / 1000.0;  // ms
    };
    table.row({fmt("%.0f", rps), fmt_ms(completion(OffloadMode::kNone)),
               fmt_ms(completion(OffloadMode::kLocalAccel)),
               fmt_ms(completion(OffloadMode::kRemoteKeyServer))});
  }
  table.print();
  std::printf(
      "  paper: software ~2ms, local ~1ms, remote ~1.7ms and stable across "
      "load\n");
}

void fig25() {
  Table table(
      "Fig 25: AVX-512 batching vs #concurrent new connections "
      "(local offload)");
  table.header({"concurrent conns", "mean handshake", "note"});
  for (const int concurrent : {1, 2, 4, 7, 8, 16, 32}) {
    sim::EventLoop loop;
    sim::CpuSet cpu(loop, 8);
    crypto::CryptoCostModel model;
    crypto::AsymmetricAccelerator accel(loop, cpu,
                                        crypto::AccelMode::kBatched, model);
    for (int i = 0; i < concurrent; ++i) {
      accel.submit([] {});
    }
    loop.run();
    table.row({fmt("%.0f", static_cast<double>(concurrent)),
               fmt_us(accel.op_latency_us().mean()),
               concurrent < 8 ? "stalls on 1ms flush timeout"
                              : "full batches, no stall"});
  }
  table.print();
}

void fig27_fig28() {
  // Fig 27 (throughput): offered load sized to the offloaded path's
  // capacity; the software path saturates and completes fewer flows within
  // the window. Half the flows resume TLS sessions (wrk keepalive mix).
  Table fig27("Fig 27: HTTPS short-flow goodput with crypto offloading");
  fig27.header({"proxy cores", "offered rps", "no-offload done",
                "key-server done", "throughput gain"});
  for (const std::size_t cores : {1u, 2u, 4u}) {
    const double rps = 750.0 * static_cast<double>(cores);
    const auto none = run_https_load(OffloadMode::kNone, rps, 3.0, cores, 0.5);
    const auto remote = run_https_load(OffloadMode::kRemoteKeyServer, rps, 3.0,
                                       cores, 0.5);
    fig27.row({fmt("%.0f", static_cast<double>(cores)), fmt("%.0f", rps),
               fmt("%.0f", static_cast<double>(none.completed)),
               fmt("%.0f", static_cast<double>(remote.completed)),
               fmt_x(static_cast<double>(remote.completed) /
                     static_cast<double>(none.completed))});
  }
  fig27.print();
  std::printf("  paper: throughput +1.6x-1.8x with offloading\n");

  // Fig 28 (latency): near the software path's saturation the queueing
  // delay balloons; offloading cuts P90 53%-60%.
  Table fig28("Fig 28: HTTPS short-flow P90 latency with crypto offloading");
  fig28.header({"proxy cores", "offered rps", "no-offload p90",
                "key-server p90", "latency cut"});
  for (const std::size_t cores : {1u, 2u, 4u}) {
    const double rps = 330.0 * static_cast<double>(cores);
    const auto none = run_https_load(OffloadMode::kNone, rps, 3.0, cores, 0.5);
    const auto remote = run_https_load(OffloadMode::kRemoteKeyServer, rps, 3.0,
                                       cores, 0.5);
    fig28.row({fmt("%.0f", static_cast<double>(cores)), fmt("%.0f", rps),
               fmt_ms(none.p90_us / 1000.0), fmt_ms(remote.p90_us / 1000.0),
               fmt_pct(1.0 - remote.p90_us / none.p90_us)});
  }
  fig28.print();
  std::printf("  paper: latency -53%%-60%% with offloading\n");
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig12();
  canal::bench::fig23();
  canal::bench::fig25();
  canal::bench::fig27_fig28();
  return 0;
}
