// Split-serving benchmark: one workload, one seed, one result line.
//
//   splitbench --workload <edge-frame|serve-saturate|lossy-link>
//              --seed <n> --seconds <s> --trace <0|1>
//   splitbench --selftest
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a traced run and writes its spans as
// Chrome trace-event JSON under .bench_out/. Either way the last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "tensor/serialize.hpp"

using namespace splitbench;

namespace {

const auto kProcessStart = Clock::now();

/// Pool lanes, fixed so pool counts repeat across hosts and runs.
constexpr int kPoolLanes = 4;
/// Distinct input images per run.
constexpr size_t kPoolSize = 64;

struct Pending {
  std::future<sc::InferenceResult> fut;
  Sample* sample;
};

/// What settling a request checks its logits against. Without a
/// reference (the warm-up, which runs before it exists) the logits are
/// kept in the sample and checked afterwards; with one they are compared
/// as they arrive, so memory does not grow with the number of requests.
struct Verifier {
  const std::vector<std::vector<Tensor>>* ref = nullptr;
  std::mutex mu;
  /// The first served logits of each pool input, for the replay.
  std::vector<std::vector<Tensor>> first;
};

/// Span sink of a traced phase: one per client or collector thread, so
/// recording takes no lock. Null when the phase is untraced.
using SpanSink = std::vector<Span>*;

void settle(Pending& p, Verifier& v, SpanSink sink) {
  Sample& s = *p.sample;
  try {
    sc::InferenceResult r = p.fut.get();
    s.done_ns = now_ns();
    s.ok = true;
    s.wire_bytes = r.latency.wire_bytes;
    s.transfer_s = r.latency.transfer_s;
    s.undelivered = r.latency.undelivered;
    if (v.ref) {
      s.match = check_logits_equal(r.logits, (*v.ref)[s.pool]).empty();
      std::lock_guard<std::mutex> lk(v.mu);
      if (v.first[s.pool].empty()) v.first[s.pool] = std::move(r.logits);
    } else {
      s.logits = std::move(r.logits);
    }
  } catch (const std::exception&) {
    s.done_ns = now_ns();
    s.ok = false;
  }
  ++s.settles;
  if (sink) {
    // One client.request root per request (from submit() until the
    // result is in hand) with its serve.submit child.
    const int root = static_cast<int>(sink->size());
    const int64_t id = static_cast<int64_t>(sink->size() / 2);
    sink->push_back({"client.request", s.submit_ns, s.done_ns, -1, id, 0});
    sink->push_back({"serve.submit", s.submit_ns, s.submitted_ns, root, id, 0});
  }
}

/// A request not settled this long after its client started waiting for
/// it is given up on and stays unsettled, which check_settled reports.
constexpr int64_t kSettleTimeoutNs = 30'000'000'000;

/// Takes in hand every ready request of @p q, waiting (in 200 us slices,
/// so a request that overtakes the oldest is noticed promptly) until at
/// least one is.
void harvest(std::deque<Pending>& q, Verifier& v, SpanSink sink) {
  const int64_t start = now_ns();
  for (;;) {
    bool any = false;
    for (auto it = q.begin(); it != q.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        settle(*it, v, sink);
        it = q.erase(it);
        any = true;
      } else {
        ++it;
      }
    }
    if (any || q.empty()) return;
    if (now_ns() - start > kSettleTimeoutNs) {
      q.pop_front();
      return;
    }
    (void)q.front().fut.wait_for(std::chrono::microseconds(200));
  }
}

/// Moves @p from into @p to, re-basing parent indices and tagging @p tid.
void append_spans(std::vector<Span>& to, std::vector<Span>& from, size_t tid) {
  const int base = static_cast<int>(to.size());
  for (Span& s : from) {
    if (s.parent >= 0) s.parent += base;
    s.tid = static_cast<int>(tid) + 1;
    to.push_back(std::move(s));
  }
}

struct Phase {
  std::deque<Sample> samples;
  std::vector<Span> spans;  ///< traced phases only
  int64_t start_ns = 0;
};

/// Traffic shape of a phase: closed-loop clients, each keeping a window
/// of requests outstanding.
struct Load {
  size_t clients;
  size_t window;
};

Load load_of(const Workload& wl) { return {wl.clients, wl.window}; }

/// Serves requests until @p max_requests were issued or @p seconds passed,
/// then waits for every issued request to settle. A traced phase records
/// spans as requests settle.
Phase run_phase(serve::ScServer& srv, const Load& wl,
                const std::vector<Tensor>& inputs, uint64_t seed,
                uint64_t phase_id, size_t max_requests, double seconds,
                Verifier& verifier, bool traced) {
  Phase ph;
  ph.start_ns = now_ns();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const uint64_t base = seed * 0x100000001B3ull + phase_id * 0x9E37ull;

  // Closed loop: each client keeps wl.window requests outstanding.
  std::atomic<size_t> issued{0};
  std::vector<std::deque<Sample>> per(wl.clients);
  std::vector<std::vector<Span>> sinks(wl.clients);
  std::vector<std::thread> th;
  for (size_t c = 0; c < wl.clients; ++c)
    th.emplace_back([&, c] {
      Rng pick(base + c + 1);
      std::deque<Pending> q;
      for (;;) {
        while (q.size() < wl.window && Clock::now() < deadline &&
               issued.fetch_add(1) < max_requests) {
          Sample& s = per[c].emplace_back();
          s.pool = static_cast<uint32_t>(
              pick.randint(0, static_cast<int64_t>(inputs.size()) - 1));
          s.submit_ns = now_ns();
          auto f = srv.submit(inputs[s.pool], {.client_id = c});
          s.submitted_ns = now_ns();
          q.push_back({std::move(f), &s});
        }
        if (q.empty()) break;
        harvest(q, verifier, traced ? &sinks[c] : nullptr);
      }
    });
  for (auto& t : th) t.join();
  for (auto& d : per)
    for (Sample& s : d) ph.samples.push_back(std::move(s));
  for (size_t c = 0; c < wl.clients; ++c) append_spans(ph.spans, sinks[c], c);
  return ph;
}

struct PhaseStats {
  int64_t attempted = 0, completed = 0, failed = 0;
  double rps = 0.0;
  Tail lat_ms;
  double link_p50_ms = 0.0, link_mean_ms = 0.0;
  double wire_bytes_per_req = 0.0;
  double submit_us = 0.0;
  size_t windows = 0;
};

/// Requests per window. Latency and throughput are medians over
/// consecutive windows of this many requests, so a transient stall of the
/// host moves one window rather than the run's figure; 1000 makes each
/// window's p99 a true p99 with ten samples beyond it.
constexpr size_t kWindow = 1000;

PhaseStats summarize(const Phase& ph) {
  PhaseStats st;
  std::vector<const Sample*> done;
  std::vector<double> link, sub;
  int64_t wire = 0;
  for (const Sample& s : ph.samples) {
    ++st.attempted;
    sub.push_back(1e-3 * static_cast<double>(s.submitted_ns - s.submit_ns));
    if (!s.ok) {
      ++st.failed;
      continue;
    }
    ++st.completed;
    done.push_back(&s);
    link.push_back(1e3 * s.transfer_s);
    wire += s.wire_bytes;
  }
  st.link_p50_ms = median(link);
  for (double v : link) st.link_mean_ms += v / static_cast<double>(link.size());
  st.submit_us = median(sub);
  if (done.empty()) return st;
  st.wire_bytes_per_req =
      static_cast<double>(wire) / static_cast<double>(st.completed);

  // Latency windows in the order requests were sent.
  std::sort(done.begin(), done.end(), [](const Sample* a, const Sample* b) {
    return a->submit_ns < b->submit_ns;
  });
  const size_t n = done.size();
  const size_t windows = std::max<size_t>(1, n / kWindow);
  const size_t per = n < kWindow ? n : kWindow;
  std::vector<double> p50s, tails;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> lat;
    for (size_t i = w * per; i < (w + 1) * per; ++i)
      lat.push_back(1e-6 *
                    static_cast<double>(done[i]->done_ns - done[i]->submit_ns));
    const Tail t = tail_of(std::move(lat));
    p50s.push_back(t.p50);
    tails.push_back(t.tail);
    st.lat_ms.tail_pct = t.tail_pct;
  }
  st.lat_ms.p50 = median(p50s);
  st.lat_ms.tail = median(tails);
  st.lat_ms.n = per;
  st.windows = windows;

  // Throughput windows in completion order, each from the previous
  // window's last completion (the phase start for the first).
  std::vector<int64_t> t_done;
  for (const Sample* s : done) t_done.push_back(s->done_ns);
  std::sort(t_done.begin(), t_done.end());
  std::vector<double> rps;
  int64_t from = ph.start_ns;
  for (size_t w = 0; w < windows; ++w) {
    const int64_t to = t_done[(w + 1) * per - 1];
    rps.push_back(static_cast<double>(per) /
                  (1e-9 * static_cast<double>(to - from)));
    from = to;
  }
  st.rps = median(rps);
  return st;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t pool_counter(const char* name) {
  return telemetry::global().counter_value(msg_cat("runtime/pool/", name));
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::printf("trace: cannot write %s\n", path.c_str());
    return;
  }
  int64_t t0 = spans.empty() ? 0 : spans[0].start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"req\": %lld, \"span\": %zu, \"parent\": %d}}%s\n",
                 s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                 1e-3 * static_cast<double>(s.start_ns - t0),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.tid,
                 static_cast<long long>(s.req), i, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  std::fclose(f);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

void usage() {
  std::fprintf(stderr,
               "usage: splitbench --workload <edge-frame|serve-saturate|"
               "lossy-link> --seed <n> --seconds <s> --trace <0|1>\n"
               "       splitbench --selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      selftest = true;
    } else if (v && a == "--workload") {
      workload = v, ++i;
    } else if (v && a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (v && a == "--seconds") {
      seconds = std::strtod(v, nullptr), ++i;
    } else if (v && a == "--trace") {
      trace = std::strcmp(v, "0") != 0, ++i;
    } else {
      usage();
      return 2;
    }
  }
  if (selftest) {
    const Workload& wl = *find_workload("edge-frame");
    auto model = make_model(wl);
    const auto broken =
        run_self_tests(*model, make_inputs(wl, seed, 1)[0], true);
    std::printf("selftest: %s\n", broken.empty() ? "every check rejects its "
                                                   "damaged case"
                                                 : "FAILED");
    return broken.empty() ? 0 : 1;
  }
  const Workload* wlp = find_workload(workload);
  if (!wlp || !(seconds > 0.0)) {
    usage();
    return 2;
  }
  const Workload& wl = *wlp;
  runtime::set_num_threads(kPoolLanes);

  // ---------------------------------------------------------- set-up
  std::vector<std::unique_ptr<core::MtlSplitModel>> replicas;
  std::vector<core::MtlSplitModel*> ptrs;
  for (size_t r = 0; r < wl.replicas; ++r) {
    replicas.push_back(make_model(wl));
    if (r > 0) core::copy_model_state(*replicas[r], *replicas[0]);
    ptrs.push_back(replicas[r].get());
  }
  const std::vector<Tensor> inputs = make_inputs(wl, seed, kPoolSize);
  const sc::ChannelConfig link_cfg = link_config(wl, seed);
  sc::Channel link(link_cfg);
  serve::ServeConfig serve_cfg;
  serve_cfg.batching = wl.batching;
  serve_cfg.deployment = deployment_config(wl);
  serve::ScServer server(ptrs, link, sc::jetson_nano(), sc::rtx3090_server(),
                         serve_cfg);
  // Set-up ends when the first request is served: that request compiles
  // the plans. The warm-up after it (pool spin-up, the other replicas'
  // first-touch arenas, every batch shape) runs at the workload's own
  // traffic shape and counts in no figure.
  Verifier verifier;
  std::vector<Phase> warm;
  warm.push_back(
      run_phase(server, {1, 1}, inputs, seed, 0, 1, 1e9, verifier, false));
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - kProcessStart).count();
  warm.push_back(run_phase(server, load_of(wl), inputs, seed, 1, wl.warmup,
                           1e9, verifier, false));

  // The eager reference, on a separate copy of the model, outside both
  // the set-up and the timed phase.
  auto ref_model = make_model(wl);
  core::copy_model_state(*ref_model, *replicas[0]);
  std::vector<std::vector<Tensor>> ref;
  for (const Tensor& x : inputs) ref.push_back(reference_logits(*ref_model, x));
  verifier.ref = &ref;
  verifier.first.resize(inputs.size());

  // ---------------------------------------------------------- timed
  const int64_t tasks0 = pool_counter("tasks"), chunks0 = pool_counter("chunks"),
                serial0 = pool_counter("serial");
  std::vector<Phase> phases;
  phases.push_back(run_phase(server, load_of(wl), inputs, seed, 2, SIZE_MAX,
                             trace ? seconds / 2 : seconds, verifier, false));
  if (trace)  // second half with span recording on
    phases.push_back(run_phase(server, load_of(wl), inputs, seed, 3,
                               SIZE_MAX, seconds / 2, verifier, true));
  const int64_t tasks1 = pool_counter("tasks"), chunks1 = pool_counter("chunks"),
                serial1 = pool_counter("serial");
  std::vector<Span> spans;
  if (trace) spans = std::move(phases[1].spans);
  server.shutdown();
  const serve::ServeStats stats = server.stats();

  std::vector<PhaseStats> ps;
  std::vector<const Sample*> samples;
  int64_t attempted = 0, completed = 0, failed = 0;
  for (const Phase& ph : phases) {
    ps.push_back(summarize(ph));
    attempted += ps.back().attempted;
    completed += ps.back().completed;
    failed += ps.back().failed;
    for (const Sample& s : ph.samples) samples.push_back(&s);
  }

  // ---------------------------------------------------------- checks
  std::vector<std::string> errors;
  auto expect = [&](const std::string& err) {
    if (!err.empty() && errors.size() < 20) errors.push_back(err);
  };
  expect(check_settled(samples, attempted, completed, failed));
  for (const Phase& ph : warm) {
    std::vector<const Sample*> w;
    for (const Sample& s : ph.samples) w.push_back(&s);
    const PhaseStats ws = summarize(ph);
    expect(check_settled(w, ws.attempted, ws.completed, ws.failed));
  }
  // The per-result wire bytes of every request the server ever saw
  // (warm-up included) against the server's own tally.
  int64_t wire_sum = 0;
  for (const Phase& ph : warm)
    for (const Sample& s : ph.samples) wire_sum += s.wire_bytes;
  for (const Sample* s : samples) wire_sum += s->wire_bytes;
  expect(check_wire_tally(wire_sum, stats.wire_bytes));

  for (const Tensor& x : inputs) {
    const Tensor zb = ref_model->backbone().forward(x);
    expect(check_quantize_bound(zb));
    const sc::QuantizedTensor q = sc::quantize_int8(zb);
    const auto msg = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
    expect(check_codec_roundtrip(msg));
    if (&x - inputs.data() < 8) {
      expect(check_fec(msg, 256, 8, 1));
      expect(check_fec(msg, 256, 8, 2));
    }
  }
  size_t mismatched = 0;
  for (const Phase& ph : warm)
    for (const Sample& s : ph.samples)
      if (s.ok) {
        const std::string err = check_logits_equal(s.logits, ref[s.pool]);
        if (!err.empty() && mismatched++ == 0) expect("warm-up " + err);
      }
  for (const Sample* s : samples) {
    if (!s->ok) continue;
    if (!s->match && mismatched++ == 0)
      expect(msg_cat("logits: a served request of input ", s->pool,
                     " differs bitwise from the reference"));
    if (!wl.lossy)
      expect(check_clean_link_time(link_cfg, s->wire_bytes, s->transfer_s));
    if (s->undelivered != 0)
      expect(msg_cat("link: a served request reports ", s->undelivered,
                     " undelivered packets"));
  }
  {
    std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
    uint64_t gseed = seed;
    for (const GemmShape& g : conv_gemm_shapes(
             ref_model->backbone(), {wl.batch, 3, wl.image, wl.image}))
      if (seen.insert({g.m, g.n, g.k}).second)
        expect(check_gemm(g.m, g.n, g.k, ++gseed));
  }
  const auto broken = run_self_tests(*ref_model, inputs[0], false);
  for (const std::string& b : broken)
    expect("selftest " + b + ": check did not reject its damaged case");
  if (mismatched > 1)
    expect(msg_cat(mismatched, " served requests differ from the reference"));

  // ---------------------------------------------------------- report
  const PhaseStats& e2e = ps[0];
  std::printf("workload %s seed %llu: %lld requests in %.1f s, pool %d lanes\n",
              wl.name, static_cast<unsigned long long>(seed),
              static_cast<long long>(attempted), seconds, kPoolLanes);
  std::printf("server: mean batch %.2f, stolen %lld, wire %lld B (raw %lld B), "
              "retransmits %lld, fec repaired %lld\n",
              stats.mean_batch_size(), static_cast<long long>(stats.stolen),
              static_cast<long long>(stats.wire_bytes),
              static_cast<long long>(stats.wire_bytes_raw),
              static_cast<long long>(stats.retransmits),
              static_cast<long long>(stats.fec_repaired));

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"throughput_rps", e2e.rps, "req/s"},
               {"latency_p50_ms", e2e.lat_ms.p50, "ms"},
               {"latency_p99_ms", e2e.lat_ms.tail, "ms"},
               {"modelled_link_ms_p50", e2e.link_p50_ms, "ms"},
               {"wire_bytes_per_req", e2e.wire_bytes_per_req, "B"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
    std::printf("latency and throughput: medians over %zu windows of %zu "
                "requests; latency_p99_ms is each window's p%.2f\n",
                e2e.windows, e2e.lat_ms.n, e2e.lat_ms.tail_pct);
  } else {
    const PhaseStats& traced = ps[1];
    ServedSummary sv;
    sv.served_logits = &verifier.first;
    sv.p50_ms = e2e.lat_ms.p50;
    sv.mean_batch = stats.mean_batch_size();
    const double served_total =
        static_cast<double>(stats.completed + stats.failed);
    sv.stolen_per_req = static_cast<double>(stats.stolen) / served_total;
    sv.retransmits_per_msg =
        static_cast<double>(stats.retransmits) / served_total;
    sv.fec_repaired_per_msg =
        static_cast<double>(stats.fec_repaired) / served_total;
    sv.modelled_ms = 0.5 * (e2e.link_mean_ms + traced.link_mean_ms);
    sv.submit_us = e2e.submit_us;
    const double done = static_cast<double>(completed);
    sv.pool_tasks = static_cast<double>(tasks1 - tasks0) / done;
    sv.pool_chunks = static_cast<double>(chunks1 - chunks0) / done;
    sv.pool_serial = static_cast<double>(serial1 - serial0) / done;
    const auto layer_errors =
        run_layers(wl, seed, *ref_model, inputs, sv, spans, metrics);
    for (const std::string& e : layer_errors) expect(e);
    const double overhead = 100.0 * (traced.lat_ms.p50 / e2e.lat_ms.p50 - 1.0);
    std::printf("tracing overhead: p50 %.4f ms untraced vs %.4f ms traced "
                "(%+.2f%%), throughput %.1f vs %.1f req/s\n",
                e2e.lat_ms.p50, traced.lat_ms.p50, overhead, e2e.rps,
                traced.rps);
    metrics.push_back({"trace.overhead_p50_pct", overhead, "%"});
    // Served-phase self time: the request span minus its submit child.
    double submit_us = 0.0, request_us = 0.0;
    for (const Span& s : spans) {
      const double us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
      if (s.name == "serve.submit") submit_us += us;
      if (s.name == "client.request") request_us += us;
    }
    const double n = static_cast<double>(phases[1].samples.size());
    std::printf("served self time per request (us): client %.1f, "
                "serve.submit %.1f\n",
                (request_us - submit_us) / n, submit_us / n);
    metrics.push_back({"trace.self.client_us", (request_us - submit_us) / n,
                       "us"});
    write_trace(msg_cat(".bench_out/trace-", wl.name, "-seed", seed, ".json"),
                spans);
  }
  for (const Metric& m : metrics)
    std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  const bool correct = errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
