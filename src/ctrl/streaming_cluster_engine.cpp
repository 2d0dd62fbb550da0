#include "ctrl/streaming_cluster_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cluster/dbi.h"
#include "cluster/minibatch_kmeans.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace flips::ctrl {

namespace {

// Control-plane instruments, registered once process-wide. submit()
// only bumps cached counters (relaxed atomics, no allocation); the
// point/epoch gauges update on the rebuild path.
struct CtrlInstruments {
  obs::Counter* submissions;
  obs::Counter* rebuilds_lloyd;
  obs::Counter* rebuilds_minibatch;
  obs::Gauge* points;
  obs::Gauge* epoch;
  obs::Gauge* clusters;
};

const CtrlInstruments& ctrl_instruments() {
  obs::Registry& r = obs::Registry::global();
  static const CtrlInstruments g{
      &r.counter("flips_ctrl_submissions_total"),
      &r.counter("flips_ctrl_rebuilds_total", {{"path", "lloyd"}}),
      &r.counter("flips_ctrl_rebuilds_total", {{"path", "minibatch"}}),
      &r.gauge("flips_ctrl_points"),
      &r.gauge("flips_ctrl_epoch"),
      &r.gauge("flips_ctrl_clusters")};
  return g;
}

}  // namespace

StreamingClusterEngine::StreamingClusterEngine(
    const StreamingClusterConfig& config)
    : config_(config), epoch_(std::make_shared<const Epoch>()),
      drift_(config.drift) {}

std::size_t StreamingClusterEngine::nearest_centroid(
    const cluster::Point& point, const std::vector<cluster::Point>& cs) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < cs.size(); ++c) {
    const double d = cluster::squared_distance(point, cs[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::size_t StreamingClusterEngine::hash_spread(std::size_t party_id,
                                                std::size_t k) {
  return k == 0 ? 0 : common::mix_seed(0x5EED, party_id, 0) % k;
}

bool StreamingClusterEngine::submit(std::size_t party_id,
                                    cluster::Point point) {
  bool first_time = false;
  std::size_t assigned = kUnassigned;
  double residual = 0.0;
  {
    // The point write, the epoch snapshot and the late-joiner
    // nearest-centroid write happen under one lock so a concurrent
    // rebuild() can never interleave a stale epoch's cluster index
    // into the new epoch's table.
    std::lock_guard<std::mutex> lock(mutex_);
    if (points_.size() <= party_id) points_.resize(party_id + 1);
    first_time = !points_[party_id].has_value();
    if (first_time) ++parties_;
    const Epoch& epoch = *epoch_;
    if (epoch.id > 0) {
      if (assignment_.size() <= party_id) {
        assignment_.resize(party_id + 1, kUnassigned);
      }
      if (assignment_[party_id] == kUnassigned) {
        // Late joiner (or a first-time submitter racing a rebuild):
        // incremental nearest-centroid assignment.
        assignment_[party_id] = nearest_centroid(point, epoch.centroids);
      }
      assigned = assignment_[party_id];
      residual = common::l1_distance(point, epoch.centroids[assigned]);
    }
    // Re-submission refreshes the point in place; the party is never
    // duplicated.
    points_[party_id] = std::move(point);
  }
  ctrl_instruments().submissions->inc();
  // observe() takes the monitor's own lock, never under mutex_.
  if (assigned != kUnassigned) drift_.observe(assigned, residual);
  return first_time;
}

MembershipView StreamingClusterEngine::rebuild() {
  // Copy the submitted points out in party-id order (the elbow and
  // k-means++ seeding depend on point order, and arrival order must
  // not reach them), then cluster without the lock so submissions keep
  // flowing; first-time submitters that land meanwhile are picked up
  // by the old->new centroid remap below.
  std::vector<cluster::Point> points;
  std::vector<std::size_t> owners;
  std::shared_ptr<const Epoch> previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    points.reserve(parties_);
    owners.reserve(parties_);
    for (std::size_t p = 0; p < points_.size(); ++p) {
      if (!points_[p]) continue;
      owners.push_back(p);
      points.push_back(*points_[p]);
    }
    previous = epoch_;
  }
  if (points.empty()) return view();

  const bool lloyd_path = points.size() <= config_.lloyd_threshold;
  // Epoch 1 draws from Rng(seed) itself: below the Lloyd threshold with
  // k fixed it is then cluster::kmeans(points, {k, restarts}, Rng(seed)).
  common::Rng rng(previous->id == 0
                      ? config_.seed
                      : common::mix_seed(config_.seed, previous->id + 1,
                                         0x2EB));

  std::size_t k = config_.k_override;
  if (k == 0) {
    cluster::OptimalKConfig okc;
    okc.k_min = config_.k_min;
    okc.k_max = config_.k_max;
    okc.repeats = config_.elbow_repeats;
    okc.kmeans.restarts = config_.restarts;
    if (lloyd_path || points.size() <= config_.elbow_sample) {
      k = cluster::optimal_k_elbow(points, okc, rng).k;
    } else {
      // Elbow on a bounded sample: the k decision costs O(sample),
      // not O(parties).
      std::vector<cluster::Point> sample;
      sample.reserve(config_.elbow_sample);
      for (std::size_t i = 0; i < config_.elbow_sample; ++i) {
        sample.push_back(points[rng.uniform_index(points.size())]);
      }
      k = cluster::optimal_k_elbow(sample, okc, rng).k;
    }
  }
  k = std::max<std::size_t>(1, std::min(k, points.size()));

  cluster::KMeansResult result;
  if (lloyd_path) {
    cluster::KMeansConfig kc;
    kc.k = k;
    kc.restarts = config_.restarts;
    result = cluster::kmeans(points, kc, rng);
  } else {
    cluster::MiniBatchKMeansConfig mb;
    mb.k = k;
    mb.batch_size = config_.minibatch_size;
    mb.iterations = config_.minibatch_iterations;
    result = cluster::minibatch_kmeans(points, mb, rng);
  }
  k = result.centroids.size();

  // Per-cluster mean L1 residual of the clustered points — the drift
  // monitor's baseline for this epoch.
  std::vector<double> baseline(k, 0.0);
  std::vector<double> counts(k, 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t c = result.assignments[i];
    baseline[c] +=
        common::l1_distance(points[i], result.centroids[c]);
    counts[c] += 1.0;
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0.0) baseline[c] /= counts[c];
  }

  // Old cluster -> nearest new centroid, so parties that first
  // submitted after the copy above carry over at cluster granularity.
  std::vector<std::size_t> old_to_new(previous->centroids.size(), 0);
  for (std::size_t c = 0; c < previous->centroids.size(); ++c) {
    old_to_new[c] = nearest_centroid(previous->centroids[c],
                                     result.centroids);
  }

  auto next = std::make_shared<Epoch>();
  next->id = previous->id + 1;
  next->k = k;
  next->centroids = std::move(result.centroids);

  MembershipView published;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // assignment_ never outgrows points_: both grow in submit().
    std::vector<std::size_t> fresh(points_.size(), kUnassigned);
    for (std::size_t p = 0; p < assignment_.size(); ++p) {
      if (assignment_[p] < old_to_new.size()) {
        fresh[p] = old_to_new[assignment_[p]];
      }
    }
    for (std::size_t i = 0; i < owners.size(); ++i) {
      fresh[owners[i]] = result.assignments[i];
    }
    for (std::size_t p = 0; p < fresh.size(); ++p) {
      if (fresh[p] == kUnassigned) fresh[p] = hash_spread(p, k);
    }
    assignment_ = std::move(fresh);
    epoch_ = next;
    last_path_ = lloyd_path ? "lloyd" : "minibatch";
    published.epoch = next->id;
    published.k = next->k;
    published.cluster_of = assignment_;
    published.centroids = next->centroids;
    // Reset before releasing the lock: a submit landing between epoch
    // publish and monitor reset would otherwise feed a new-epoch
    // residual into the old epoch's EMA and could leave a spurious
    // trigger for a concurrent maybe_rebuild(). (Lock order engine ->
    // drift is unique to this call site; observe()/triggered() are
    // never called with mutex_ held.)
    drift_.reset(std::move(baseline));
  }
  const CtrlInstruments& ins = ctrl_instruments();
  (lloyd_path ? ins.rebuilds_lloyd : ins.rebuilds_minibatch)->inc();
  ins.points->set(static_cast<double>(points.size()));
  ins.epoch->set(static_cast<double>(published.epoch));
  ins.clusters->set(static_cast<double>(published.k));
  return published;
}

bool StreamingClusterEngine::maybe_rebuild() {
  if (!drift_.triggered()) return false;
  rebuild();
  return true;
}

MembershipView StreamingClusterEngine::view() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MembershipView out;
  out.epoch = epoch_->id;
  out.k = epoch_->k;
  if (out.epoch > 0) {
    out.cluster_of = assignment_;
    out.centroids = epoch_->centroids;
  }
  return out;
}

std::uint64_t StreamingClusterEngine::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_->id;
}

std::size_t StreamingClusterEngine::parties() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return parties_;
}

const char* StreamingClusterEngine::last_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_path_;
}

}  // namespace flips::ctrl
