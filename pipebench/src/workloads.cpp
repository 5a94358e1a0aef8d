#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "random/rng.hpp"
#include "ranking/metrics.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
namespace core = sgp::core;
namespace graph = sgp::graph;

constexpr std::size_t kProjectionDim = 128;
constexpr std::size_t kAuditedRows = 64;

// Publish workloads: the ROADMAP reference graph, BA with n=100k and attach
// 20 (≈2.0M edges), released at ε=1, δ=1e-6.
struct BaSize {
  std::size_t nodes;
  std::size_t attach;
  std::size_t shard_rows;  ///< 4 shards either way
};
constexpr BaSize kBaFull{100000, 20, 25000};
constexpr BaSize kBaTiny{2000, 20, 500};
constexpr sgp::dp::PrivacyParams kPublishBudget{1.0, 1e-6};

// Analyze workload: livejournal-sim (32 × 1562 SBM, ≈7.9M edges) released at
// ε=8, where clustering keeps real signal. The utility floors sit below the
// lowest values measured over 43 seeds (full: NMI 0.941, top-1% overlap
// 0.032 of a mean 0.053, where a ranking blind to the data scores 0.01;
// tiny, seeds 1–30: NMI 0.633), so a change that trades accuracy for speed
// falls through them. At tiny size the top 1% is 49
// nodes and the overlap ranges over 0–5 of them, so only NMI is held there.
constexpr sgp::dp::PrivacyParams kAnalyzeBudget{8.0, 1e-6};
constexpr double kNmiFloorFull = 0.90;
constexpr double kOverlapFloorFull = 0.02;
constexpr double kNmiFloorTiny = 0.55;
constexpr double kOverlapFloorTiny = 0.0;

core::RandomProjectionPublisher::Options publish_options(
    std::uint64_t seed, const sgp::dp::PrivacyParams& budget) {
  core::RandomProjectionPublisher::Options options;
  options.projection_dim = kProjectionDim;
  options.params = budget;
  options.seed = seed;
  return options;
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

// Shared by both publish workloads: the same BA edge-list file and the same
// reference release, made by the in-memory path with the seed set
// explicitly. The sharded release must be byte-identical to it.
class BaPublishWorkload : public Workload {
 public:
  explicit BaPublishWorkload(const WorkloadConfig& config)
      : seed_(config.seed),
        size_(config.tiny ? kBaTiny : kBaFull),
        graph_path_(config.workdir + "/ba.edges"),
        out_path_(config.workdir + "/release.bin") {}

  void setup() override {
    {
      sgp::random::Rng rng(seed_);
      const graph::Graph g = graph::barabasi_albert(size_.nodes, size_.attach,
                                                    rng);
      graph::write_edge_list_file(g, graph_path_);
    }
    // Read back under kCompact, as a pass does: the release numbers nodes
    // in first-appearance order, not in generator order.
    const graph::Graph g = graph::read_edge_list_file(graph_path_);
    const core::PublishedGraph reference =
        core::RandomProjectionPublisher(publish_options(seed_, kPublishBudget))
            .publish_matrix(g.adjacency_matrix(), 1.0);
    const std::string reference_path = out_path_ + ".reference";
    core::save_published_file(reference, reference_path);
    expect_.num_nodes = g.num_nodes();
    expect_.projection_dim = kProjectionDim;
    expect_.params = kPublishBudget;
    expect_.seed = seed_;
    expect_.file_hash = hash_file(reference_path);
    expect_.rows = sample_rows(g, kAuditedRows);
    facts_.edge_records = static_cast<double>(g.num_edges());
    facts_.nnz = 2.0 * facts_.edge_records;
    facts_.projection_dim = static_cast<double>(kProjectionDim);
    facts_.release_bytes = static_cast<double>(fs::file_size(reference_path));
    remove_quietly(reference_path);
  }

  std::vector<std::string> check() override {
    return check_release(out_path_, expect_);
  }

  void doctor(Doctor mode) override {
    if (mode == Doctor::kNone) return;
    const graph::Graph g = graph::read_edge_list_file(graph_path_);
    doctor_release(out_path_, mode, g.adjacency_matrix(), seed_);
  }

  void end_pass() override { remove_quietly(out_path_); }

  WorkloadFacts facts() const override { return facts_; }

 protected:
  std::uint64_t seed_;
  BaSize size_;
  std::string graph_path_;
  std::string out_path_;
  ReleaseExpectation expect_;
  WorkloadFacts facts_;
};

class PublishInMemory final : public BaPublishWorkload {
 public:
  using BaPublishWorkload::BaPublishWorkload;

  void pass(SpanRecorder& spans) override {
    const core::RandomProjectionPublisher publisher(
        publish_options(seed_, kPublishBudget));
    graph::Graph g;
    sgp::linalg::CsrMatrix a;
    core::PublishedGraph release;
    spans.layer("graph.read_edges",
                [&] { g = graph::read_edge_list_file(graph_path_); });
    spans.layer("graph.adjacency", [&] { a = g.adjacency_matrix(); });
    spans.layer("core.publish",
                [&] { release = publisher.publish_matrix(a, 1.0); });
    spans.layer("core.save",
                [&] { core::save_published_file(release, out_path_); });
  }
};

class PublishSharded final : public BaPublishWorkload {
 public:
  using BaPublishWorkload::BaPublishWorkload;

  void pass(SpanRecorder& spans) override {
    core::ShardedPublishOptions options;
    options.publish = publish_options(seed_, kPublishBudget);
    options.shard_rows = size_.shard_rows;
    options.resume = false;
    std::optional<graph::EdgeListShardReader> reader;
    spans.layer("graph.shard_scan", [&] { reader.emplace(graph_path_); });
    spans.layer("core.publish_sharded", [&] {
      (void)core::publish_sharded(*reader, options, out_path_);
    });
  }

  void end_pass() override {
    BaPublishWorkload::end_pass();
    remove_quietly(out_path_ + ".ckpt");
  }
};

// The analyze inputs do not follow --seed. k-means work is chaotic in its
// input: over graph seeds and init seeds alike, one cluster_embedding call
// ran 71–218 Lloyd iterations (1.2–3.0 s), so seeded inputs made wall_s
// spread 0.13–0.37 between runs — a measure of the draw, not of the code.
// One fixed release and k-means seed make every pass the same work; the
// checks still run on every pass.
constexpr std::uint64_t kAnalyzeSeed = 3;  // livejournal_sim's default

class AnalyzeRelease final : public Workload {
 public:
  explicit AnalyzeRelease(const WorkloadConfig& config)
      : seed_(kAnalyzeSeed),
        tiny_(config.tiny),
        release_path_(config.workdir + "/analyze.bin") {}

  void setup() override {
    // The release is published straight from the generated graph, so its
    // rows are in generator order and the planted labels apply unmapped. A
    // route through an edge-list file read under kCompact would renumber
    // nodes by first appearance and need the labels mapped the same way.
    const graph::Dataset d = dataset();
    const graph::Graph& g = d.planted.graph;
    const core::PublishedGraph release =
        core::RandomProjectionPublisher(publish_options(seed_, kAnalyzeBudget))
            .publish(g);
    core::save_published_file(release, release_path_);
    expect_.num_nodes = g.num_nodes();
    expect_.projection_dim = kProjectionDim;
    expect_.params = kAnalyzeBudget;
    expect_.seed = seed_;
    expect_.file_hash = hash_file(release_path_);
    expect_.rows = sample_rows(g, kAuditedRows);
    labels_ = d.planted.labels;
    clusters_ = d.num_communities;

    std::vector<double> degrees(g.num_nodes());
    for (std::size_t u = 0; u < degrees.size(); ++u) {
      degrees[u] = static_cast<double>(g.degree(u));
    }
    top_k_ = std::max<std::size_t>(1, g.num_nodes() / 100);
    const std::vector<std::size_t> by_degree =
        sgp::ranking::ranking_from_scores(degrees);
    in_true_top_.assign(g.num_nodes(), false);
    for (std::size_t i = 0; i < top_k_; ++i) in_true_top_[by_degree[i]] = true;
    facts_.projection_dim = static_cast<double>(kProjectionDim);
    facts_.release_bytes = static_cast<double>(fs::file_size(release_path_));
  }

  void pass(SpanRecorder& spans) override {
    core::PublishedGraph release;
    sgp::linalg::DenseMatrix embedding;
    sgp::cluster::KMeansResult clusters;
    spans.layer("core.load",
                [&] { release = core::load_published_file(release_path_); });
    spans.layer("linalg.embed", [&] {
      embedding = core::spectral_embedding(release, clusters_);
    });
    spans.layer("cluster.kmeans", [&] {
      sgp::cluster::SpectralOptions options;
      options.num_clusters = clusters_;
      options.seed = seed_;
      clusters = sgp::cluster::cluster_embedding(embedding, options);
    });
    spans.layer("ranking.rank", [&] {
      ranking_ = sgp::ranking::ranking_from_scores(core::degree_scores(release));
    });
    assignments_ = std::move(clusters.assignments);
  }

  std::vector<std::string> check() override {
    std::vector<std::string> failures = check_release(release_path_, expect_);
    const double nmi =
        sgp::cluster::normalized_mutual_information(assignments_, labels_);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < top_k_ && i < ranking_.size(); ++i) {
      hits += in_true_top_[ranking_[i]] ? 1 : 0;
    }
    const double overlap =
        static_cast<double>(hits) / static_cast<double>(top_k_);
    std::fprintf(stderr, "pipebench: analyze utility nmi=%.4f top1%%=%.4f\n",
                 nmi, overlap);
    const double nmi_floor = tiny_ ? kNmiFloorTiny : kNmiFloorFull;
    const double overlap_floor = tiny_ ? kOverlapFloorTiny : kOverlapFloorFull;
    if (!(nmi >= nmi_floor)) {
      failures.push_back("utility: NMI " + std::to_string(nmi) +
                         " below floor " + std::to_string(nmi_floor));
    }
    if (!(overlap >= overlap_floor)) {
      failures.push_back("utility: top-1% overlap " + std::to_string(overlap) +
                         " below floor " + std::to_string(overlap_floor));
    }
    return failures;
  }

  void doctor(Doctor mode) override {
    // The release is this workload's input: doctor it once, and every later
    // pass reads the doctored file.
    if (mode == Doctor::kNone || doctored_) return;
    const graph::Dataset d = dataset();
    doctor_release(release_path_, mode, d.planted.graph.adjacency_matrix(),
                   seed_);
    doctored_ = true;
  }

  WorkloadFacts facts() const override { return facts_; }

 private:
  [[nodiscard]] graph::Dataset dataset() const {
    return tiny_ ? graph::livejournal_sim_small(seed_)
                 : graph::livejournal_sim(seed_);
  }

  std::uint64_t seed_;
  bool tiny_;
  std::string release_path_;
  ReleaseExpectation expect_;
  WorkloadFacts facts_;
  std::vector<std::uint32_t> labels_;
  std::size_t clusters_ = 0;
  std::size_t top_k_ = 1;
  std::vector<bool> in_true_top_;
  std::vector<std::uint32_t> assignments_;
  std::vector<std::size_t> ranking_;
  bool doctored_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config) {
  if (config.name == "publish-inmem-ba100k") {
    return std::make_unique<PublishInMemory>(config);
  }
  if (config.name == "publish-sharded-ba100k") {
    return std::make_unique<PublishSharded>(config);
  }
  if (config.name == "analyze-ljsim50k") {
    return std::make_unique<AnalyzeRelease>(config);
  }
  throw std::invalid_argument("unknown workload: " + config.name);
}

}  // namespace pipebench
