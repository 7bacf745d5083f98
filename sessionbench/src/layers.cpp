#include "layers.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backup/keys.hpp"
#include "container/container.hpp"
#include "core/upload_pipeline.hpp"
#include "dataset/content.hpp"
#include "hash/rabin.hpp"
#include "index/checkpoint.hpp"
#include "util/stopwatch.hpp"

namespace sessionbench {

namespace aad = aadedupe;
using Scope = SpanRecorder::Scope;

namespace {
constexpr char kTinyStream[] = "tiny";
// Object keys carry the scheme name, so the replay ships under the same
// keys (and therefore the same bytes) as AaDedupeScheme.
constexpr std::string_view kSchemeName = "AA-Dedupe";
}  // namespace

const char* chunk_layer(aad::dataset::AppCategory category) {
  switch (category) {
    case aad::dataset::AppCategory::kCompressed:
      return "chunk.wfc";
    case aad::dataset::AppCategory::kStaticUncompressed:
      return "chunk.sc";
    case aad::dataset::AppCategory::kDynamicUncompressed:
      return "chunk.cdc";
  }
  return "chunk.cdc";
}

const char* hash_layer(aad::dataset::AppCategory category) {
  switch (category) {
    case aad::dataset::AppCategory::kCompressed:
      return "hash.rabin96";
    case aad::dataset::AppCategory::kStaticUncompressed:
      return "hash.md5";
    case aad::dataset::AppCategory::kDynamicUncompressed:
      return "hash.sha1";
  }
  return "hash.sha1";
}

LayerReplay::LayerReplay(SpanRecorder& recorder,
                         const aad::core::AaDedupeOptions& options)
    : recorder_(recorder),
      options_(options),
      policy_(options.policy),
      size_filter_(options.tiny_file_threshold) {
  if (options_.convergent_encryption || !options_.index_directory.empty()) {
    throw std::invalid_argument(
        "replay covers the default in-memory, unencrypted session path");
  }
}

ReplaySession LayerReplay::backup(const aad::dataset::Snapshot& snapshot) {
  ReplaySession out;
  const aad::cloud::StoreStats before = cloud_.store().stats();
  std::atomic<std::uint64_t> containers{0};
  {
    Scope session(recorder_, "session",
                  recorder_.intern("backup s" +
                                   std::to_string(snapshot.session)));
    recorder_.set_root_parent(session.id());

    // Route files to application streams (tiny files to the packing
    // stream), as run_session does.
    std::map<std::string, std::vector<const aad::dataset::FileEntry*>>
        streams;
    {
      Scope classify(recorder_, "core.commit", recorder_.intern("classify"));
      for (const aad::dataset::FileEntry& file : snapshot.files) {
        const std::string key =
            size_filter_.is_tiny(file.size())
                ? kTinyStream
                : aad::core::DedupPolicy::partition_key(file.kind);
        streams[key].push_back(&file);
      }
      classify.add(0, snapshot.files.size());
    }

    aad::core::UploadPipelineOptions pipeline_options;
    pipeline_options.journal = &journal_;
    aad::core::UploadPipeline pipeline(
        [this, &containers](const aad::core::UploadItem& item) {
          Scope put(recorder_, "cloud.put");
          put.add(item.payload.size(), 1);
          if (item.kind == aad::core::ObjectKind::kContainer) {
            containers.fetch_add(1, std::memory_order_relaxed);
          }
          return cloud_.upload(item.key, item.payload);
        },
        pipeline_options);
    const auto enqueue = [&](std::string key, aad::ByteBuffer payload,
                             aad::core::ObjectKind kind) {
      Scope scope(recorder_, "core.enqueue");
      scope.add(payload.size(), 1);
      pipeline.enqueue(std::move(key), std::move(payload), kind);
    };

    // Per-stream commit state, created up front in stream order so
    // container ids are allocated in the same order as run_file_parallel.
    struct StreamCommit {
      bool tiny = false;
      std::string key;
      std::uint32_t detail = 0;
      const char* chunk_layer = "";
      const char* hash_layer = "";
      aad::index::ChunkIndex* shard = nullptr;
      std::unique_ptr<aad::container::ContainerManager> manager;
      std::vector<aad::container::FileRecipe> recipes;
    };
    struct WorkItem {
      std::size_t stream;
      const aad::dataset::FileEntry* file;
    };
    std::vector<StreamCommit> commits;
    std::vector<WorkItem> items;
    {
      Scope setup(recorder_, "core.commit", recorder_.intern("streams"));
      commits.reserve(streams.size());
      for (const auto& [key, files] : streams) {
        StreamCommit commit;
        commit.key = key;
        commit.tiny = key == kTinyStream;
        commit.detail = recorder_.intern(key);
        if (!commit.tiny) {
          const auto category = aad::dataset::category_of(files.front()->kind);
          commit.chunk_layer = chunk_layer(category);
          commit.hash_layer = hash_layer(category);
          commit.shard = &index_.shard(key);
        }
        commit.manager = std::make_unique<aad::container::ContainerManager>(
            container_ids_,
            [&enqueue](std::uint64_t id, aad::ByteBuffer bytes) {
              enqueue(aad::backup::keys::container_object(id),
                      std::move(bytes), aad::core::ObjectKind::kContainer);
            },
            options_.container_capacity, /*pad_on_flush=*/false);
        commit.recipes.reserve(files.size());
        const std::size_t stream_index = commits.size();
        commits.push_back(std::move(commit));
        for (const aad::dataset::FileEntry* file : files) {
          items.push_back(WorkItem{stream_index, file});
        }
      }
    }

    struct Plan {
      aad::ByteBuffer content;
      aad::core::FileChunkPlan plan;
      aad::hash::Digest tiny_digest;
    };
    std::vector<Plan> plans;
    // Commit buffers, reused from file to file as in the scheme.
    std::vector<std::optional<aad::index::ChunkLocation>> found;
    std::unordered_map<aad::hash::Digest, std::size_t,
                       aad::hash::Digest::Hasher>
        first_seen;
    std::vector<std::size_t> fresh;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;

    const auto commit_file = [&](StreamCommit& commit, Plan& plan,
                                 const aad::dataset::FileEntry& file) {
      aad::container::FileRecipe recipe;
      recipe.path = file.path;
      recipe.file_size = plan.content.size();
      recipe.tag = commit.key;
      const std::vector<aad::chunk::ChunkRef>& chunks = plan.plan.chunks;
      const std::vector<aad::hash::Digest>& digests = plan.plan.digests;
      {
        Scope lookup(recorder_, "index.lookup", commit.detail);
        commit.shard->lookup_batch(digests, found);
        lookup.add(0, digests.size());
      }
      out.index_lookups += digests.size();
      {
        // Dedup decisions. A chunk absent from the shard but repeated in
        // the file is stored once; later copies reuse its location.
        Scope decide(recorder_, "core.commit", commit.detail);
        recipe.entries.resize(chunks.size());
        first_seen.clear();
        fresh.clear();
        aliases.clear();
        for (std::size_t c = 0; c < chunks.size(); ++c) {
          recipe.entries[c].digest = digests[c];
          if (found[c]) {
            recipe.entries[c].location = *found[c];
            ++out.index_hits;
          } else if (const auto [it, inserted] =
                         first_seen.try_emplace(digests[c], c);
                     inserted) {
            fresh.push_back(c);
          } else {
            aliases.emplace_back(c, it->second);
          }
        }
        decide.add(0, chunks.size());
      }
      if (!fresh.empty()) {
        Scope pack(recorder_, "container.pack", commit.detail);
        for (const std::size_t c : fresh) {
          const aad::ConstByteSpan bytes =
              aad::ConstByteSpan{plan.content}.subspan(chunks[c].offset,
                                                       chunks[c].length);
          recipe.entries[c].location =
              commit.manager->store(digests[c], bytes);
          pack.add(bytes.size(), 1);
        }
      }
      if (!aliases.empty()) {
        Scope fix(recorder_, "core.commit", commit.detail);
        for (const auto& [c, source] : aliases) {
          recipe.entries[c].location = recipe.entries[source].location;
        }
      }
      if (!fresh.empty()) {
        Scope insert(recorder_, "index.insert", commit.detail);
        for (const std::size_t c : fresh) {
          commit.shard->insert(digests[c], recipe.entries[c].location);
        }
        insert.add(0, fresh.size());
      }
      commit.recipes.push_back(std::move(recipe));
    };

    // Phase 1 of a batch: materialize, chunk and fingerprint every file
    // before any commit, as the scheme's front end does.
    const auto front_end = [&](std::size_t batch_begin,
                               std::size_t batch_size) {
      for (std::size_t i = 0; i < batch_size;) {
        const WorkItem& item = items[batch_begin + i];
        const StreamCommit& commit = commits[item.stream];
        if (commit.tiny) {
          // The tiny stream's files are contiguous; time them as one run.
          std::size_t end = i;
          while (end < batch_size &&
                 items[batch_begin + end].stream == item.stream) {
            ++end;
          }
          {
            Scope materialize(recorder_, "dataset.materialize",
                              commit.detail);
            for (std::size_t j = i; j < end; ++j) {
              aad::dataset::materialize_into(
                  items[batch_begin + j].file->content, plans[j].content);
              materialize.add(plans[j].content.size(), 1);
            }
          }
          Scope tag(recorder_, "hash.rabin96", commit.detail);
          for (std::size_t j = i; j < end; ++j) {
            Plan& plan = plans[j];
            plan.plan.chunks.clear();
            plan.plan.digests.clear();
            if (!plan.content.empty()) {
              plan.tiny_digest = aad::hash::Rabin96::hash(plan.content);
              tag.add(plan.content.size(), 1);
            }
          }
          i = end;
          continue;
        }
        Plan& plan = plans[i];
        {
          Scope materialize(recorder_, "dataset.materialize", commit.detail);
          aad::dataset::materialize_into(item.file->content, plan.content);
          materialize.add(plan.content.size(), 1);
        }
        const aad::core::CategoryPolicy policy =
            policy_.for_kind(item.file->kind);
        aad::core::FileChunkPlan file_plan;
        {
          Scope split(recorder_, commit.chunk_layer, commit.detail);
          file_plan.chunks = policy.chunker->split(plan.content);
          split.add(plan.content.size(), file_plan.chunks.size());
        }
        {
          Scope fingerprint(recorder_, commit.hash_layer, commit.detail);
          aad::core::fingerprint_chunks(policy, plan.content, file_plan);
          fingerprint.add(plan.content.size(), file_plan.chunks.size());
        }
        plan.plan = std::move(file_plan);
        ++i;
      }
    };

    // Phase 2 of a batch: commit each stream's files in order.
    const auto commit_batch = [&](std::size_t batch_begin,
                                  std::size_t batch_end) {
      for (std::size_t i = batch_begin; i < batch_end;) {
        StreamCommit& commit = commits[items[i].stream];
        std::size_t end = i;
        while (end < batch_end && items[end].stream == items[i].stream) ++end;
        if (commit.tiny) {
          Scope pack(recorder_, "container.pack", commit.detail);
          for (std::size_t j = i; j < end; ++j) {
            const Plan& plan = plans[j - batch_begin];
            aad::container::FileRecipe recipe;
            recipe.path = items[j].file->path;
            recipe.file_size = plan.content.size();
            if (!plan.content.empty()) {
              const aad::index::ChunkLocation location =
                  commit.manager->store(plan.tiny_digest, plan.content);
              recipe.entries.push_back(
                  aad::container::RecipeEntry{plan.tiny_digest, location});
              pack.add(plan.content.size(), 1);
            }
            commit.recipes.push_back(std::move(recipe));
          }
        } else {
          for (std::size_t j = i; j < end; ++j) {
            commit_file(commit, plans[j - batch_begin], *items[j].file);
          }
        }
        i = end;
      }
    };

    // Batches of at most front_end_batch_bytes (always >= 1 file); both
    // phases run on the pool's one worker, as in the scheme.
    std::size_t batch_begin = 0;
    while (batch_begin < items.size()) {
      std::size_t batch_end = batch_begin;
      std::uint64_t batch_bytes = 0;
      while (batch_end < items.size() &&
             (batch_end == batch_begin ||
              batch_bytes + items[batch_end].file->size() <=
                  options_.front_end_batch_bytes)) {
        batch_bytes += items[batch_end].file->size();
        ++batch_end;
      }
      const std::size_t batch_size = batch_end - batch_begin;
      if (plans.size() < batch_size) plans.resize(batch_size);
      pool_.submit([&] { front_end(batch_begin, batch_size); }).get();
      pool_.submit([&] { commit_batch(batch_begin, batch_end); }).get();
      batch_begin = batch_end;
    }

    for (StreamCommit& commit : commits) {
      Scope flush(recorder_, "container.pack", commit.detail);
      commit.manager->flush();
    }
    {
      // The front end's buffers die with the session in the scheme too.
      Scope release(recorder_, "dataset.materialize",
                    recorder_.intern("release"));
      plans.clear();
      plans.shrink_to_fit();
    }

    aad::container::RecipeStore recipes;
    {
      Scope meta(recorder_, "meta.recipes");
      for (StreamCommit& commit : commits) {
        for (aad::container::FileRecipe& recipe : commit.recipes) {
          recipes.put(std::move(recipe));
        }
      }
      aad::ByteBuffer image = recipes.serialize();
      meta.add(image.size(), 1);
      enqueue(aad::backup::keys::session_meta(kSchemeName, snapshot.session,
                                              "recipes"),
              std::move(image), aad::core::ObjectKind::kMetadata);
    }
    if (options_.sync_index) {
      Scope checkpoint(recorder_, "index.checkpoint");
      aad::index::BufferCheckpointSink sink;
      index_.checkpoint(sink);
      aad::ByteBuffer image = sink.take();
      checkpoint.add(image.size(), 1);
      enqueue(aad::backup::keys::session_meta(kSchemeName, snapshot.session,
                                              "index"),
              std::move(image), aad::core::ObjectKind::kMetadata);
    }
    {
      Scope drain(recorder_, "core.drain");
      pipeline.finish();
    }
    {
      Scope meta(recorder_, "meta.recipes", recorder_.intern("history"));
      history_[snapshot.session] = recipes;
      latest_ = std::move(recipes);
    }
  }
  const aad::cloud::StoreStats after = cloud_.store().stats();
  out.transferred_bytes = after.bytes_uploaded - before.bytes_uploaded;
  out.puts = after.put_requests - before.put_requests;
  out.containers = containers.load();
  out.journal_empty = journal_.empty();
  return out;
}

ReplayRestore LayerReplay::restore(const aad::dataset::Snapshot& snapshot) {
  ReplayRestore out;
  // A fresh reader cache per restore: every container is fetched cold.
  std::map<std::uint64_t, std::shared_ptr<aad::container::ContainerReader>>
      readers;
  aad::ByteBuffer expected;
  Scope session(recorder_, "session", recorder_.intern("restore"));
  recorder_.set_root_parent(session.id());
  for (const aad::dataset::FileEntry& file : snapshot.files) {
    const aad::container::FileRecipe* recipe = latest_.find(file.path);
    if (recipe == nullptr) {
      ++out.mismatched_files;
      continue;
    }
    aad::ByteBuffer restored;
    {
      Scope copy(recorder_, "restore.copy");
      restored.reserve(recipe->file_size);
      for (const aad::container::RecipeEntry& entry : recipe->entries) {
        ++out.reader_lookups;
        auto it = readers.find(entry.location.container_id);
        if (it == readers.end()) {
          aad::ByteBuffer object;
          {
            Scope get(recorder_, "cloud.get");
            const std::string key = aad::backup::keys::container_object(
                entry.location.container_id);
            auto result = cloud_.download(key);
            if (!result.ok()) {
              throw std::runtime_error("replay restore: cannot fetch " + key);
            }
            object = std::move(result).value();
            get.add(object.size(), 1);
          }
          Scope parse(recorder_, "container.parse");
          parse.add(object.size(), 1);
          it = readers
                   .emplace(entry.location.container_id,
                            std::make_shared<aad::container::ContainerReader>(
                                std::move(object)))
                   .first;
        } else {
          ++out.reader_hits;
        }
        aad::append(restored, it->second->chunk_at(entry.location.offset,
                                                   entry.location.length));
      }
      copy.add(restored.size(), 1);
    }
    aad::dataset::materialize_into(file.content, expected);
    if (restored != expected) ++out.mismatched_files;
  }
  return out;
}

IsolatedRates isolated_rates(const aad::core::DedupPolicy& policy,
                             aad::dataset::AppCategory category,
                             aad::ConstByteSpan content,
                             double min_cpu_seconds) {
  const aad::core::CategoryPolicy rung = policy.for_category(category);
  aad::core::FileChunkPlan plan;
  plan.chunks = rung.chunker->split(content);  // warms the buffer
  aad::core::fingerprint_chunks(rung, content, plan);

  IsolatedRates rates;
  std::uint64_t bytes = 0;
  std::size_t sink = 0;
  double begin = aad::thread_cpu_seconds();
  double cpu = 0.0;
  do {
    sink += rung.chunker->split(content).size();
    bytes += content.size();
    cpu = aad::thread_cpu_seconds() - begin;
  } while (cpu < min_cpu_seconds);
  rates.chunk_MBps = static_cast<double>(bytes) / cpu / 1e6;
  if (sink == 0) throw std::logic_error("isolated chunker produced nothing");

  bytes = 0;
  begin = aad::thread_cpu_seconds();
  do {
    aad::core::fingerprint_chunks(rung, content, plan);
    bytes += content.size();
    cpu = aad::thread_cpu_seconds() - begin;
  } while (cpu < min_cpu_seconds);
  rates.hash_MBps = static_cast<double>(bytes) / cpu / 1e6;
  return rates;
}

}  // namespace sessionbench
