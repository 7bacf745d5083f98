// Traced replay of an AA-Dedupe backup session, layer by layer.
//
// LayerReplay re-runs AaDedupeScheme's default session path (the two-phase
// file-granularity pipeline, here on one thread) through each layer's
// public functions, wrapping every call in a SpanRecorder scope:
//
//   dataset.materialize  dataset::materialize_into
//   chunk.<wfc|sc|cdc>   Chunker::split
//   hash.<rabin96|md5|sha1>  core::fingerprint_chunks / Rabin96::hash
//   index.lookup         ChunkIndex::lookup_batch
//   core.commit          classify + per-chunk dedup decisions
//   container.pack       ContainerManager::store / flush
//   index.insert         ChunkIndex::insert
//   core.enqueue         UploadPipeline::enqueue
//   core.drain           UploadPipeline::finish
//   cloud.put            CloudTarget::upload (uploader thread)
//   meta.recipes         RecipeStore assembly, history copy, serialize
//   index.checkpoint     PartitionedIndex::checkpoint
//
// and the restore path (cloud.get, container.parse, restore.copy). The
// replay keeps its own cloud, index and container-id state, so its output
// can be compared object for object with a real 1-thread backup() of the
// same snapshots: if the recipes or shipped bytes differ, the per-layer
// numbers would describe a different program.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cloud/cloud_target.hpp"
#include "container/container_manager.hpp"
#include "container/recipe.hpp"
#include "core/aa_dedupe.hpp"
#include "core/policy.hpp"
#include "dataset/snapshot.hpp"
#include "index/partitioned_index.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace sessionbench {

/// What one replayed session produced.
struct ReplaySession {
  std::uint64_t transferred_bytes = 0;  // every object shipped
  std::uint64_t puts = 0;
  std::uint64_t containers = 0;         // sealed containers shipped
  std::uint64_t index_lookups = 0;
  std::uint64_t index_hits = 0;         // lookups the shard answered
  bool journal_empty = true;
};

/// What one replayed restore produced.
struct ReplayRestore {
  std::uint64_t mismatched_files = 0;  // not byte-exact vs materialize
  std::uint64_t reader_lookups = 0;    // container-reader cache probes
  std::uint64_t reader_hits = 0;
};

class LayerReplay {
 public:
  LayerReplay(SpanRecorder& recorder, const aadedupe::core::AaDedupeOptions&
                                          options);

  /// One backup session, mirroring AaDedupeScheme::run_session.
  ReplaySession backup(const aadedupe::dataset::Snapshot& snapshot);

  /// Restore every file of the latest session with a cold container-reader
  /// cache and compare it with the snapshot's content.
  ReplayRestore restore(const aadedupe::dataset::Snapshot& snapshot);

  [[nodiscard]] const aadedupe::container::RecipeStore& recipes() const {
    return latest_;
  }
  [[nodiscard]] aadedupe::cloud::CloudTarget& cloud() noexcept {
    return cloud_;
  }

 private:
  SpanRecorder& recorder_;
  aadedupe::core::AaDedupeOptions options_;
  aadedupe::core::DedupPolicy policy_;
  aadedupe::core::FileSizeFilter size_filter_;
  aadedupe::cloud::CloudTarget cloud_;
  aadedupe::index::PartitionedIndex index_;
  aadedupe::container::ContainerIdAllocator container_ids_;
  aadedupe::core::UploadJournal journal_;
  aadedupe::container::RecipeStore latest_;
  std::map<std::uint32_t, aadedupe::container::RecipeStore> history_;
  /// The scheme runs both front-end phases on its pool, so per-thread heap
  /// arenas see the same allocations here; one worker, as at
  /// worker_threads = 1.
  aadedupe::ThreadPool pool_{1};
};

/// Layer names of the three engines and hashes, by application category.
const char* chunk_layer(aadedupe::dataset::AppCategory category);
const char* hash_layer(aadedupe::dataset::AppCategory category);

/// Isolated twins: MB/s (per CPU second) of one category's chunker and
/// hash on a cache-hot buffer taken from `content`.
struct IsolatedRates {
  double chunk_MBps = 0.0;
  double hash_MBps = 0.0;
};
IsolatedRates isolated_rates(const aadedupe::core::DedupPolicy& policy,
                             aadedupe::dataset::AppCategory category,
                             aadedupe::ConstByteSpan content,
                             double min_cpu_seconds);

}  // namespace sessionbench
