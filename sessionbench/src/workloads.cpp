#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "backup/scheme.hpp"
#include "cloud/cloud_target.hpp"
#include "core/aa_dedupe.hpp"
#include "dataset/content.hpp"
#include "dataset/generator.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sessionbench {

namespace aad = aadedupe;

namespace {

using aad::backup::SessionReport;
using aad::core::AaDedupeScheme;
using aad::dataset::Snapshot;

/// Tracing off (telemetry == nullptr), default in-memory everything.
aad::core::AaDedupeOptions scheme_options(std::size_t threads) {
  aad::core::AaDedupeOptions options;
  options.worker_threads = threads;
  return options;
}

/// Dataset `index` of the run: the initial snapshot followed by `weeks`
/// next() sessions. Index 0 uses --seed itself; the others derive from it,
/// so a run averages several generated users.
std::vector<Snapshot> make_snapshots(const Config& config, std::uint32_t weeks,
                                     std::uint32_t index = 0) {
  aad::dataset::DatasetConfig dataset;
  dataset.seed =
      index == 0 ? config.seed : aad::derive_seed(config.seed, index);
  dataset.session_bytes = config.snapshot_bytes;
  aad::dataset::DatasetGenerator generator(dataset);
  std::vector<Snapshot> snapshots;
  snapshots.push_back(generator.initial());
  for (std::uint32_t w = 0; w < weeks; ++w) {
    snapshots.push_back(generator.next(snapshots.back()));
  }
  return snapshots;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Timed backup() sessions: each session's rate, and CPU per byte.
struct BackupTally {
  std::uint64_t logical = 0;
  double cpu_s = 0.0;
  std::vector<double> MBps;  // per session: logical bytes / wall time

  void add(const SessionReport& report) {
    logical += report.dataset_bytes;
    cpu_s += report.cpu_seconds;
    MBps.push_back(static_cast<double>(report.dataset_bytes) /
                   report.dedupe_seconds / 1e6);
  }
};

struct RestoreTally {
  std::uint64_t bytes = 0;
  double wall_s = 0.0;
  /// Per-file latency of deduplicated files. Tiny files (under the size
  /// filter) are packed whole and restore in about a microsecond from a
  /// cached container; they count in bytes and wall_s only.
  std::vector<double> file_ms;
};

SessionReport checked_backup(AaDedupeScheme& scheme, const Snapshot& snapshot,
                             Outcome& out) {
  SessionReport report = scheme.backup(snapshot);
  out.check(scheme.pending_uploads().empty(),
            "session " + std::to_string(snapshot.session) +
                ": uploads journaled or failed");
  return report;
}

void checked_scrub(AaDedupeScheme& scheme, Outcome& out) {
  const AaDedupeScheme::ScrubReport report = scheme.scrub();
  out.check(report.clean() && report.files_checked > 0, "scrub not clean");
}

/// Same files, sizes, tags and chunk fingerprints (locations may differ:
/// parallel streams allocate container ids in a racy order).
bool same_digests(const aad::container::RecipeStore& a,
                  const aad::container::RecipeStore& b) {
  if (a.size() != b.size()) return false;
  for (const std::string& path : a.paths()) {
    const aad::container::FileRecipe* ra = a.find(path);
    const aad::container::FileRecipe* rb = b.find(path);
    if (rb == nullptr || ra->file_size != rb->file_size ||
        ra->tag != rb->tag || ra->entries.size() != rb->entries.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ra->entries.size(); ++i) {
      if (ra->entries[i].digest != rb->entries[i].digest ||
          ra->entries[i].location.length != rb->entries[i].location.length) {
        return false;
      }
    }
  }
  return true;
}

/// What the first chain on each dataset shipped, session by session.
/// Every later chain on that dataset, at either thread count, must ship
/// the same bytes and PUTs and produce the same chunk fingerprints. The
/// deterministic metrics (DR, PUTs per GB) come from these first chains.
class Reference {
 public:
  void check(std::uint32_t dataset, std::size_t k, bool timed,
             const SessionReport& report,
             const aad::container::RecipeStore& recipes, Outcome& out) {
    if (datasets_.size() <= dataset) datasets_.resize(dataset + 1);
    std::vector<Session>& sessions = datasets_[dataset];
    if (k == sessions.size()) {
      sessions.push_back(Session{report.transferred_bytes,
                                 report.upload_requests, recipes});
      if (timed) {
        logical += report.dataset_bytes;
        shipped += report.transferred_bytes;
        puts += report.upload_requests;
      }
      return;
    }
    const Session& first = sessions[k];
    out.check(first.shipped == report.transferred_bytes &&
                  first.puts == report.upload_requests &&
                  same_digests(first.recipes, recipes),
              "dataset " + std::to_string(dataset) + " session " +
                  std::to_string(k) +
                  " differs from its first pass (or the other thread count)");
  }

  // Totals over the timed sessions of each dataset's first chain.
  std::uint64_t logical = 0;
  std::uint64_t shipped = 0;
  std::uint64_t puts = 0;

 private:
  struct Session {
    std::uint64_t shipped = 0;
    std::uint64_t puts = 0;
    aad::container::RecipeStore recipes;
  };
  std::vector<std::vector<Session>> datasets_;
};

/// Restore every file of the scheme's latest session, timing each call,
/// and compare it with the generator's content.
void checked_restore(AaDedupeScheme& scheme, const Snapshot& snapshot,
                     RestoreTally& tally, Outcome& out) {
  aad::ByteBuffer expected;
  for (const aad::dataset::FileEntry& file : snapshot.files) {
    aad::ByteBuffer restored;
    bool ok = true;
    try {
      const aad::StopWatch watch;
      restored = scheme.restore_file(file.path);
      const double seconds = watch.seconds();
      tally.wall_s += seconds;
      tally.bytes += restored.size();
      if (file.size() >= aad::core::FileSizeFilter::kDefaultThreshold) {
        tally.file_ms.push_back(seconds * 1e3);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      aad::dataset::materialize_into(file.content, expected);
      ok = restored == expected;
    }
    out.check(ok, "restore of " + file.path + " is not byte-exact");
  }
}

struct Client {
  std::unique_ptr<aad::cloud::CloudTarget> cloud;
  std::unique_ptr<AaDedupeScheme> scheme;
};

Client make_client(std::size_t threads) {
  Client client;
  client.cloud = std::make_unique<aad::cloud::CloudTarget>();
  client.scheme = std::make_unique<AaDedupeScheme>(*client.cloud,
                                                   scheme_options(threads));
  return client;
}

/// First backups in a fresh process run slower (heap growth, lazy
/// detection), and a virtual machine may give a process its other cores
/// only under sustained load. Back the initial snapshot up at nproc
/// workers for warm_up_seconds, then once at 1, before anything is timed.
void warm_up(const Config& config) {
  const std::vector<Snapshot> snapshots = make_snapshots(config, 0);
  const aad::StopWatch watch;
  do {
    Client client = make_client(config.threads);
    (void)client.scheme->backup(snapshots.front());
  } while (watch.seconds() < config.warm_up_seconds);
  Client client = make_client(1);
  (void)client.scheme->backup(snapshots.front());
}

/// Chains of sessions at one thread count. Each chain is a fresh client
/// backing up one dataset's snapshots (chains cycle through the run's
/// datasets); sessions before `first_timed` are set-up. Chains repeat
/// until the run clock passes `until_s`, at least once per dataset and at
/// most `max_chains` times.
struct Block {
  BackupTally tally;
  std::vector<double> setup_s;  // per chain
  Client last;                  // the last chain's client
  /// With BlockPlan::keep: each dataset's first client and snapshots.
  std::vector<Client> kept;
  std::vector<std::vector<Snapshot>> kept_snapshots;
};

struct BlockPlan {
  std::size_t threads = 1;
  std::uint32_t weeks = 0;
  std::size_t first_timed = 0;
  bool sessions_are_setup = false;  // restore: the history is set-up too
  bool keep = false;
  double until_s = 0.0;
  std::uint32_t max_chains = 1000;
};

Block run_block(const Config& config, const BlockPlan& plan,
                const aad::StopWatch& run, Reference& reference,
                Outcome& out) {
  Block block;
  std::uint32_t chains = 0;
  do {
    const std::uint32_t dataset = chains % config.datasets;
    block.last = Client{};  // free the previous chain first
    // Hand freed memory back, so each chain starts like a freshly started
    // client and peak RSS does not grow with the number of chains.
    malloc_trim(0);
    const aad::StopWatch setup;
    std::vector<Snapshot> snapshots =
        make_snapshots(config, plan.weeks, dataset);
    Client client = make_client(plan.threads);
    for (std::size_t k = 0; k < snapshots.size(); ++k) {
      const bool timed = k >= plan.first_timed;
      if (k == plan.first_timed && !plan.sessions_are_setup) {
        block.setup_s.push_back(setup.seconds());
      }
      const SessionReport report =
          checked_backup(*client.scheme, snapshots[k], out);
      reference.check(dataset, k, timed, report, client.scheme->recipes(),
                      out);
      if (timed) block.tally.add(report);
    }
    if (plan.sessions_are_setup) block.setup_s.push_back(setup.seconds());
    if (plan.keep && chains < config.datasets) {
      block.kept.push_back(std::move(client));
      block.kept_snapshots.push_back(std::move(snapshots));
    } else {
      block.last = std::move(client);
    }
    ++chains;
  } while ((run.seconds() < plan.until_s || chains < config.datasets) &&
           chains < plan.max_chains);
  return block;
}

void add_end_to_end_metrics(const Block& multi, const Block& single,
                            const Reference& reference,
                            const RestoreTally& restore, Outcome& out) {
  const double logical = static_cast<double>(reference.logical);
  const double backup_MBps = median(multi.tally.MBps);
  const double ratio = logical / static_cast<double>(reference.shipped);
  out.add("backup_MBps", backup_MBps, "MB/s");
  out.add("backup_1t_MBps", median(single.tally.MBps), "MB/s");
  out.add("backup_cpu_s_per_GB",
          multi.tally.cpu_s / static_cast<double>(multi.tally.logical) * 1e9,
          "s/GB");
  out.add("dedup_efficiency_MBps", (1.0 - 1.0 / ratio) * backup_MBps,
          "MB/s");
  out.add("dedupe_ratio", ratio, "ratio");
  out.add("puts_per_GB", static_cast<double>(reference.puts) / logical * 1e9,
          "1/GB");
  out.add("restore_MBps",
          static_cast<double>(restore.bytes) / restore.wall_s / 1e6, "MB/s");
  out.add("restore_file_ms_p50", percentile(restore.file_ms, 0.50), "ms");
  out.add("restore_file_ms_p95", percentile(restore.file_ms, 0.95), "ms");
  out.add("peak_rss_MiB", peak_rss_mib(), "MiB");
  out.add("setup_s", median(multi.setup_s), "s");
  // Sample counts, printed for the reader (not in BENCHMARK.json).
  out.add("backup_sessions", static_cast<double>(multi.tally.MBps.size()),
          "count");
  out.add("backup_1t_sessions",
          static_cast<double>(single.tally.MBps.size()), "count");
  out.add("restore_files", static_cast<double>(restore.file_ms.size()),
          "count");
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "first_full" || name == "weekly" || name == "restore";
}

Outcome run_end_to_end(const Config& config) {
  Outcome out;
  warm_up(config);
  const aad::StopWatch run;
  Reference reference;

  // Three phases on the run clock: nproc backups (right after the warm-up,
  // so the cores are live), checks and timed restores, 1-thread backups.
  //   first_full: a chain is one initial() snapshot, timed.
  //   weekly:     initial() in set-up, then weekly_sessions next() timed.
  //   restore:    one chain per dataset of initial() + history_sessions
  //               next(); all of it is the restore's set-up, and those
  //               sessions give the backup metrics.
  BlockPlan plan;
  double restore_until = 0.65 * config.seconds;
  if (config.workload == "first_full") {
    plan.weeks = 0;
  } else if (config.workload == "weekly") {
    plan.weeks = config.weekly_sessions;
    plan.first_timed = 1;
  } else if (config.workload == "restore") {
    plan.weeks = config.history_sessions;
    plan.sessions_are_setup = true;
    plan.max_chains = config.datasets;
    restore_until = 0.7 * config.seconds;
  } else {
    throw std::invalid_argument("unknown workload " + config.workload);
  }
  plan.threads = config.threads;
  plan.keep = true;
  plan.until_s = 0.35 * config.seconds;
  Block multi = run_block(config, plan, run, reference, out);

  // Every dataset's first nproc client scrubs clean; then restore passes
  // over them, each from a fresh client that imports the state (cold
  // container-reader cache), restoring every file of the latest session.
  RestoreTally restore;
  std::vector<aad::ByteBuffer> states;
  for (Client& client : multi.kept) {
    checked_scrub(*client.scheme, out);
    states.push_back(client.scheme->export_state());
  }
  // Each pass starts from a trimmed heap, like a freshly started restore
  // client; otherwise whether large restore buffers reuse freed heap or
  // fault in fresh pages depends on the process's allocation history.
  std::size_t pass = 0;
  do {
    const std::size_t d = pass++ % multi.kept.size();
    malloc_trim(0);
    AaDedupeScheme client(*multi.kept[d].cloud,
                          scheme_options(config.threads));
    client.import_state(states[d]);
    checked_restore(client, multi.kept_snapshots[d].back(), restore, out);
  } while (run.seconds() < restore_until || pass < multi.kept.size());
  multi.kept.clear();
  malloc_trim(0);

  plan.threads = 1;
  plan.keep = false;
  plan.until_s = config.seconds;
  const Block single = run_block(config, plan, run, reference, out);
  checked_scrub(*single.last.scheme, out);

  add_end_to_end_metrics(multi, single, reference, restore, out);
  return out;
}

namespace {

/// Per-layer metrics from the recorder's totals, per traced pass.
class LayerMetrics {
 public:
  LayerMetrics(const SpanRecorder& recorder, double passes, Outcome& out)
      : recorder_(recorder), passes_(passes), out_(out) {}

  LayerTotal total(const char* layer) const { return recorder_.total(layer); }
  static double rate(std::uint64_t bytes, double seconds) {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
  }
  static double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  }
  void cpu(const std::string& name, const char* layer) {
    out_.add(name, total(layer).self_cpu_s / passes_, "s");
  }
  void count(const std::string& name, double value) {
    out_.add(name, value / passes_, "count");
  }
  void mbps(const std::string& name, const char* layer) {
    const LayerTotal t = total(layer);
    out_.add(name, rate(t.bytes, t.self_cpu_s), "MB/s");
  }

 private:
  const SpanRecorder& recorder_;
  double passes_;
  Outcome& out_;
};

/// Layers whose self CPU makes up a backup session in the replay.
constexpr const char* kBackupLayers[] = {
    "dataset.materialize", "chunk.wfc",       "chunk.sc",
    "chunk.cdc",           "hash.rabin96",    "hash.md5",
    "hash.sha1",           "index.lookup",    "index.insert",
    "index.checkpoint",    "core.commit",     "container.pack",
    "core.enqueue",        "core.drain",      "cloud.put",
    "meta.recipes"};

/// What one session shipped, for comparing backup() with the replay.
struct SessionImage {
  std::uint64_t transferred_bytes = 0;
  std::uint64_t puts = 0;
  std::uint64_t containers = 0;
  aad::ByteBuffer recipes;  // the session's serialized RecipeStore

  friend bool operator==(const SessionImage&, const SessionImage&) = default;
};

std::size_t container_count(const aad::cloud::CloudTarget& cloud) {
  return cloud.store().list("containers/").size();
}

/// A cache-hot sample of one category's content: the first non-tiny file
/// of that category, at most 256 KiB of it.
aad::ByteBuffer hot_sample(const Snapshot& snapshot,
                           aad::dataset::AppCategory category,
                           std::uint64_t tiny_threshold) {
  for (const aad::dataset::FileEntry& file : snapshot.files) {
    if (file.size() < tiny_threshold ||
        aad::dataset::category_of(file.kind) != category) {
      continue;
    }
    aad::ByteBuffer content = aad::dataset::materialize(file.content);
    content.resize(std::min<std::size_t>(content.size(), 256 * 1024));
    return content;
  }
  return {};
}

}  // namespace

Outcome run_traced(const Config& config) {
  Outcome out;
  SpanRecorder recorder;
  recorder.set_enabled(false);
  Config warm = config;
  warm.warm_up_seconds = 0.0;  // one session per thread count suffices
  warm_up(warm);

  const std::uint32_t weeks =
      config.workload == "first_full" ? 0
      : config.workload == "weekly"   ? config.weekly_sessions
                                      : config.history_sessions;
  // weekly's initial backup is set-up, as in the end-to-end run.
  const std::size_t first_recorded = config.workload == "weekly" ? 1 : 0;
  double session_cpu_s = 0.0, session_wall_s = 0.0;
  std::uint64_t lookups = 0, hits = 0, containers = 0;
  std::uint64_t reader_lookups = 0, reader_hits = 0;
  std::vector<Snapshot> snapshots;
  std::uint32_t passes = 0;
  const aad::core::AaDedupeOptions options = scheme_options(1);
  const aad::StopWatch run;
  do {
    snapshots = make_snapshots(config, weeks);
    // backup() and the replay each keep their own cloud; per session they
    // run back to back, alternating which goes first, so host speed drift
    // and heap state fall on both alike.
    aad::cloud::CloudTarget cloud;
    AaDedupeScheme scheme(cloud, options);
    LayerReplay replay(recorder, options);
    for (std::size_t k = 0; k < snapshots.size(); ++k) {
      const bool recorded = k >= first_recorded;
      SessionImage real, replayed;
      const auto run_real = [&] {
        const std::size_t containers_before = container_count(cloud);
        const SessionReport report = checked_backup(scheme, snapshots[k], out);
        if (recorded) {
          session_cpu_s += report.cpu_seconds;
          session_wall_s += report.dedupe_seconds;
        }
        real = SessionImage{report.transferred_bytes, report.upload_requests,
                            container_count(cloud) - containers_before,
                            scheme.recipes().serialize()};
      };
      const auto run_replay = [&] {
        recorder.set_enabled(recorded);
        const ReplaySession session = replay.backup(snapshots[k]);
        recorder.set_enabled(false);
        out.check(session.journal_empty,
                  "replayed session " + std::to_string(k) +
                      ": uploads journaled or failed");
        if (recorded) {
          lookups += session.index_lookups;
          hits += session.index_hits;
          containers += session.containers;
        }
        replayed = SessionImage{session.transferred_bytes, session.puts,
                                session.containers,
                                replay.recipes().serialize()};
      };
      if ((passes + k) % 2 == 0) {
        run_real();
        run_replay();
      } else {
        run_replay();
        run_real();
      }
      // The replay must be the same program: same recipes (digests and
      // locations), shipped bytes, PUTs and container count, hence DR.
      out.check(real == replayed, "session " + std::to_string(k) +
                                      ": traced replay diverged from backup()");
    }
    recorder.set_enabled(true);
    const ReplayRestore restored = replay.restore(snapshots.back());
    recorder.set_enabled(false);
    out.check(restored.mismatched_files == 0,
              "traced restore is not byte-exact");
    reader_lookups += restored.reader_lookups;
    reader_hits += restored.reader_hits;
    ++passes;
  } while (run.seconds() < config.seconds);

  const double n = passes;
  LayerMetrics m(recorder, n, out);
  m.cpu("dataset.materialize_cpu_s", "dataset.materialize");
  m.mbps("dataset.materialize_MBps", "dataset.materialize");

  const aad::core::DedupPolicy policy(options.policy);
  for (const auto category : {aad::dataset::AppCategory::kCompressed,
                              aad::dataset::AppCategory::kStaticUncompressed,
                              aad::dataset::AppCategory::kDynamicUncompressed}) {
    const char* chunk = chunk_layer(category);
    const char* hash = hash_layer(category);
    const aad::ByteBuffer sample =
        hot_sample(snapshots.back(), category, options.tiny_file_threshold);
    IsolatedRates isolated;
    if (!sample.empty()) {
      isolated = isolated_rates(policy, category, sample,
                                config.isolated_cpu_seconds);
    }
    const LayerTotal c = m.total(chunk);
    const LayerTotal h = m.total(hash);
    const std::string cn(chunk), hn(hash);
    m.cpu(cn + ".cpu_s", chunk);
    m.mbps(cn + ".MBps", chunk);
    m.count(cn + ".chunks", static_cast<double>(c.items));
    out.add(cn + ".isolated_MBps", isolated.chunk_MBps, "MB/s");
    out.add(cn + ".isolated_ratio",
            LayerMetrics::ratio(LayerMetrics::rate(c.bytes, c.self_cpu_s),
                                isolated.chunk_MBps),
            "ratio");
    m.cpu(hn + ".cpu_s", hash);
    m.mbps(hn + ".MBps", hash);
    out.add(hn + ".isolated_MBps", isolated.hash_MBps, "MB/s");
    out.add(hn + ".isolated_ratio",
            LayerMetrics::ratio(LayerMetrics::rate(h.bytes, h.self_cpu_s),
                                isolated.hash_MBps),
            "ratio");
  }

  m.cpu("index.lookup_cpu_s", "index.lookup");
  m.count("index.lookups", static_cast<double>(lookups));
  out.add("index.hit_rate",
          LayerMetrics::ratio(static_cast<double>(hits),
                              static_cast<double>(lookups)),
          "ratio");
  m.cpu("index.insert_cpu_s", "index.insert");
  m.count("index.inserts", static_cast<double>(m.total("index.insert").items));
  m.cpu("index.checkpoint_cpu_s", "index.checkpoint");
  out.add("index.checkpoint_bytes",
          static_cast<double>(m.total("index.checkpoint").bytes) / n, "B");
  m.cpu("meta.recipes_cpu_s", "meta.recipes");
  out.add("meta.bytes",
          static_cast<double>(m.total("meta.recipes").bytes +
                              m.total("index.checkpoint").bytes) /
              n,
          "B");
  m.cpu("core.commit_cpu_s", "core.commit");

  const LayerTotal pack = m.total("container.pack");
  m.cpu("container.pack_cpu_s", "container.pack");
  m.mbps("container.pack_MBps", "container.pack");
  m.count("container.sealed", static_cast<double>(containers));
  out.add("container.fill_ratio",
          LayerMetrics::ratio(
              static_cast<double>(pack.bytes),
              static_cast<double>(containers) *
                  static_cast<double>(options.container_capacity)),
          "ratio");
  const LayerTotal enqueue = m.total("core.enqueue");
  out.add("core.enqueue_wait_s", enqueue.self_wall_s / n, "s");
  m.count("core.upload_items", static_cast<double>(enqueue.items));

  const LayerTotal put = m.total("cloud.put");
  m.count("cloud.puts", static_cast<double>(put.items));
  m.cpu("cloud.put_cpu_s", "cloud.put");
  m.mbps("cloud.put_MBps", "cloud.put");

  m.count("cloud.gets", static_cast<double>(m.total("cloud.get").items));
  m.mbps("cloud.get_MBps", "cloud.get");
  m.cpu("container.parse_cpu_s", "container.parse");
  out.add("container.reader_hit_rate",
          LayerMetrics::ratio(static_cast<double>(reader_hits),
                              static_cast<double>(reader_lookups)),
          "ratio");
  m.cpu("restore.copy_cpu_s", "restore.copy");

  double layer_cpu_s = 0.0;
  for (const char* layer : kBackupLayers) {
    layer_cpu_s += m.total(layer).self_cpu_s;
  }
  out.add("session.cpu_s", session_cpu_s / n, "s");
  out.add("session.wall_s", session_wall_s / n, "s");
  out.add("session.unattributed_cpu_pct",
          100.0 * LayerMetrics::ratio(session_cpu_s - layer_cpu_s,
                                      session_cpu_s),
          "%");
  out.add("session.layer_cpu_s", layer_cpu_s / n, "s");

  recorder.write_jsonl(config.out_dir + "/spans-" + config.workload +
                       "-seed" + std::to_string(config.seed) + ".jsonl");
  return out;
}

}  // namespace sessionbench
