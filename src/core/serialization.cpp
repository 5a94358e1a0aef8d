#include "core/serialization.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/projection.hpp"
#include "core/theory.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::core {
namespace {

// v2 adds the `projection_rng` header line (counter-v1 vs sequential-v0).
// v1 files predate counter-based generation: they carry no tag and are
// loaded as sequential-v0 so reconstruction regenerates their P with the
// old sequential Rng.
constexpr char kMagic[] = "sgp-published-graph v2";
constexpr char kMagicV1[] = "sgp-published-graph v1";

}  // namespace

void write_published_header(std::ostream& out, std::size_t num_nodes,
                            std::size_t projection_dim,
                            const dp::PrivacyParams& params,
                            const NoiseCalibration& calibration,
                            ProjectionKind projection,
                            ProjectionRngKind projection_rng) {
  out.precision(17);  // max_digits10: header doubles must round-trip exactly
  out << kMagic << '\n';
  out << "nodes " << num_nodes << " dim " << projection_dim << '\n';
  out << "epsilon " << params.epsilon << " delta " << params.delta << " sigma "
      << calibration.sigma << " sensitivity " << calibration.sensitivity
      << '\n';
  out << "projection " << to_string(projection) << '\n';
  out << "projection_rng " << to_string(projection_rng) << '\n';
  out << "data\n";
}

void write_published_doubles(std::ostream& out,
                             std::span<const double> values) {
  // Assumes a little-endian IEEE-754 host (x86-64 / aarch64) — asserted at
  // compile time below so a port to an exotic platform fails loudly.
  static_assert(sizeof(double) == 8);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
}

void save_published(const PublishedGraph& published, std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kIoSaveRelease);
  timer.attr("bytes", published.published_bytes());
  write_published_header(out, published.num_nodes, published.projection_dim,
                         published.params, published.calibration,
                         published.projection, published.projection_rng);
  write_published_doubles(out, published.data.data());
  if (!out.good()) {
    throw util::IoError("save_published: stream write failed");
  }
}

void save_published_file(const PublishedGraph& published,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    throw util::IoError("save_published: cannot open " + path);
  }
  save_published(published, out);
}

PublishedGraph load_published(std::istream& in) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoLoadRelease);
  std::string line;
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: bad magic line");
  }
  bool legacy_v1 = false;
  if (line == kMagicV1) {
    legacy_v1 = true;
  } else if (line != kMagic) {
    throw util::ParseError("load_published: bad magic line");
  }

  PublishedGraph pub;
  std::string token;
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    std::size_t n = 0, m = 0;
    if (!(fields >> token >> n >> token >> m) || n == 0 || m == 0) {
      throw util::ParseError("load_published: bad dimensions line");
    }
    pub.num_nodes = n;
    pub.projection_dim = m;
  }
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    if (!(fields >> token >> pub.params.epsilon >> token >> pub.params.delta >>
          token >> pub.calibration.sigma >> token >>
          pub.calibration.sensitivity)) {
      throw util::ParseError("load_published: bad privacy line");
    }
  }
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> token >> kind) || token != "projection") {
      throw util::ParseError("load_published: bad projection line");
    }
    if (kind == "gaussian") {
      pub.projection = ProjectionKind::kGaussian;
    } else if (kind == "achlioptas") {
      pub.projection = ProjectionKind::kAchlioptas;
    } else {
      throw util::ParseError("load_published: unknown projection kind '" +
                             kind + "'");
    }
  }
  if (legacy_v1) {
    // v1 files predate the projection_rng tag: their P/noise came from the
    // sequential Rng, so reconstruction must use the legacy regeneration.
    pub.projection_rng = ProjectionRngKind::kSequentialLegacy;
  } else {
    if (!std::getline(in, line)) {
      throw util::ParseError("load_published: truncated header");
    }
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> token >> tag) || token != "projection_rng") {
      throw util::ParseError("load_published: bad projection_rng line");
    }
    pub.projection_rng = parse_projection_rng(tag);
  }
  if (!std::getline(in, line) || line != "data") {
    throw util::ParseError("load_published: missing data marker");
  }

  std::vector<double> values(pub.num_nodes * pub.projection_dim);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (in.gcount() !=
      static_cast<std::streamsize>(values.size() * sizeof(double))) {
    throw util::ParseError("load_published: truncated payload");
  }
  pub.data = linalg::DenseMatrix(pub.num_nodes, pub.projection_dim,
                                 std::move(values));
  return pub;
}

PublishedGraph load_published_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw util::IoError("load_published: cannot open " + path);
  }
  return load_published(in);
}

}  // namespace sgp::core
